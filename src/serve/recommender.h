// Top-K item ranking on top of a trained CTR model — the serving-side API
// of the MDR platform (Fig. 2's "provide services for thousands of
// domains").
#ifndef MAMDR_SERVE_RECOMMENDER_H_
#define MAMDR_SERVE_RECOMMENDER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "metrics/evaluator.h"
#include "models/ctr_model.h"
#include "obs/histogram.h"

namespace mamdr {
namespace serve {

struct RankedItem {
  int64_t item = 0;
  float score = 0.0f;
};

/// Ranks candidate items for a (user, domain) pair.
///
/// By default scores come from the model directly; pass the owning
/// framework's Scorer() (e.g. Mamdr::Scorer()) to serve with Θ = θS + θi
/// per domain.
///
/// ## Concurrency contract (setup-then-serve, lock-free steady state)
///
/// The per-domain state (candidate pool + resolved metric pointers) lives
/// in an immutable snapshot published through one atomic pointer.
/// `TopK`/`Rank`/`TopKBatched` are safe to call from any number of threads
/// concurrently and take NO lock in the steady state: a request is one
/// epoch announcement (an increment of one of two reader counts),
/// one load of the snapshot pointer, a hash lookup, relaxed atomic metric
/// bumps, and the scoring pass. Writers (`SetCandidates`, plus the one-time
/// lazy registration of a never-seen domain) serialize on a setup mutex,
/// rebuild the snapshot copy-on-write, and publish it — concurrent readers
/// keep using the snapshot they loaded. A replaced snapshot is freed by a
/// later writer once every reader that could still hold it has left
/// (epoch-based reclamation over two reader epochs: see Reclaim()), so a
/// refresh stream under live traffic keeps a bounded number of snapshots
/// alive. SetCandidates costs a full snapshot copy, so it is not a
/// hot-path operation.
///
/// Thread safety of the scoring pass itself is inherited from the scorer:
/// the default model path is safe for concurrent read-only inference; a
/// custom ScoreFn that mutates model parameters per domain (e.g.
/// Mamdr::Scorer()) must be externally serialized, exactly as with
/// Framework::ScorerIsThreadSafe().
class Recommender {
 public:
  explicit Recommender(models::CtrModel* model,
                       metrics::ScoreFn scorer = nullptr);
  ~Recommender();

  /// Register the serving candidate pool of a domain (typically the items
  /// appearing in that domain's interactions). Copy-on-write snapshot
  /// publish: safe concurrently with readers, serialized against other
  /// writers. Not a hot-path call (see class comment).
  void SetCandidates(int64_t domain, std::vector<int64_t> items);

  /// Score all candidates of the domain for the user and return the top k,
  /// highest score first; equal scores order by ascending item id so the
  /// result is bit-stable across platforms. k is clamped to the candidate
  /// count.
  std::vector<RankedItem> TopK(int64_t user, int64_t domain,
                               int64_t k) const;

  /// Score an explicit candidate list (used by offline evaluation). Same
  /// deterministic ordering contract as TopK.
  std::vector<RankedItem> Rank(int64_t user, int64_t domain,
                               const std::vector<int64_t>& items) const;

  /// One element of a TopKBatched micro-batch.
  struct TopKRequest {
    int64_t user = 0;
    int64_t domain = 0;
    int64_t k = 0;
  };

  /// Micro-batched TopK: answers every request with ONE scoring pass per
  /// distinct domain in the batch (embedding gather → single blocked GEMM
  /// → scatter scores) instead of one model call per request. Results are
  /// bit-identical to calling TopK per request — model inference is
  /// row-independent in eval mode — in the same order as `requests`.
  /// Throughput knob for high-QPS serving; the per-request path remains
  /// the reference implementation.
  std::vector<std::vector<RankedItem>> TopKBatched(
      const std::vector<TopKRequest>& requests) const;

  /// Snapshots currently allocated: the published one plus those retired
  /// but not yet freed because a reader may still hold them.
  int64_t live_snapshots() const MAMDR_EXCLUDES(setup_mu_);

 private:
  /// Immutable per-domain serving state. Metric pointers are resolved once
  /// per domain (registry-lifetime) and carried from snapshot to snapshot.
  struct DomainState {
    std::vector<int64_t> candidates;
    obs::Counter* topk_requests = nullptr;
    obs::Counter* rank_requests = nullptr;
    obs::Gauge* pool_size = nullptr;
  };
  struct Snapshot {
    std::unordered_map<int64_t, DomainState> domains;
  };

  /// Read-side critical section of the reclamation scheme: while one is
  /// alive on a thread, no snapshot that thread loaded (or published) is
  /// freed. Every request path holds one around all its snapshot use.
  class ReadGuard;

  /// Lock-free lookup in the current snapshot; nullptr when the domain has
  /// never been seen. Caller holds a ReadGuard.
  const DomainState* FindDomain(int64_t domain) const;

  /// FindDomain, or (first request for the domain) copy-on-write publish
  /// of a snapshot that includes it. The reference is valid while the
  /// caller's ReadGuard is.
  const DomainState& EnsureDomain(int64_t domain) const
      MAMDR_EXCLUDES(setup_mu_);

  /// Install `next` as the current snapshot, retire the previous one and
  /// free what Reclaim() proves no reader can hold.
  const Snapshot* Publish(std::unique_ptr<const Snapshot> next) const
      MAMDR_REQUIRES(setup_mu_);

  /// Advance the reader epoch past every epoch whose readers have all left
  /// (at most two steps) and free the retired snapshots no remaining
  /// reader can hold: one retired during epoch r is reachable only by
  /// readers that entered at an epoch <= r, and the epoch reaches r + 2
  /// only after all of those have left.
  void Reclaim() const MAMDR_REQUIRES(setup_mu_);

  /// True when no reader announced under epoch parity `parity` is active.
  bool Drained(uint64_t parity) const;

  /// The uninstrumented scoring + sort core shared by TopK and Rank (so
  /// each public API observes its own end-to-end latency exactly once).
  std::vector<RankedItem> RankImpl(int64_t user, int64_t domain,
                                   const std::vector<int64_t>& items) const;

  models::CtrModel* model_;
  metrics::ScoreFn scorer_;

  obs::Histogram* topk_latency_;  // registry-lifetime, cached at ctor
  obs::Histogram* rank_latency_;
  obs::Histogram* batch_latency_;

  /// Writers serialize here; readers never touch it.
  mutable Mutex setup_mu_{MAMDR_LOCK_CLASS("serve.recommender.setup")};
  /// Current snapshot, loaded by every request and stored on publish
  /// (both seq_cst: the reclamation argument orders them against the
  /// epoch). Owned by current_.
  mutable std::atomic<const Snapshot*> snapshot_{nullptr};
  mutable std::unique_ptr<const Snapshot> current_ MAMDR_GUARDED_BY(setup_mu_);

  /// Reader epoch; only writers advance it (under setup_mu_).
  mutable std::atomic<uint64_t> epoch_{0};
  /// Active readers per epoch parity.
  mutable std::atomic<int64_t> readers_[2] = {0, 0};

  struct Retired {
    uint64_t epoch = 0;  // epoch during which it was replaced
    std::unique_ptr<const Snapshot> snapshot;
  };
  /// Replaced snapshots that a reader may still hold, oldest first.
  mutable std::vector<Retired> retired_ MAMDR_GUARDED_BY(setup_mu_);
};

/// Offline top-K quality on a domain's test positives, with the standard
/// sampled-negatives protocol: each positive (u, v) is ranked against
/// `num_negatives` random un-interacted items; HitRate@K counts v in the
/// top K, NDCG@K discounts by rank position. A domain with no test
/// positives (or a dataset with no items to sample candidates from) yields
/// a zeroed report — never NaN.
struct TopKReport {
  double hit_rate = 0.0;
  double ndcg = 0.0;
  int64_t num_cases = 0;
};

TopKReport EvaluateTopK(const Recommender& rec,
                        const data::MultiDomainDataset& ds, int64_t domain,
                        int64_t k, int64_t num_negatives, Rng* rng);

}  // namespace serve
}  // namespace mamdr

#endif  // MAMDR_SERVE_RECOMMENDER_H_
