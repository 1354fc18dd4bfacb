#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/random.h"
#include "core/framework_registry.h"
#include "core/mamdr.h"
#include "data/synthetic.h"
#include "metrics/auc.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "optim/param_snapshot.h"
#include "oracles.h"
#include "ps/distributed_mamdr.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_group.h"
#include "serve/recommender.h"
#include "tensor/tensor_ops.h"
#include "timed_ps_client.h"

namespace e2ebench {

using namespace mamdr;  // NOLINT: the benchmark calls into every module

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Training runs a fixed number of epochs so test_auc is a
// function of the seed alone; serving runs for a fixed share of --seconds.

constexpr int kIndustryDomains = 48;
constexpr uint64_t kIndustryShapeSeed = 17;  // fixes the domain-size profile
constexpr int kIndustryEpochs = 10;
constexpr int kDistEpochs = 4;
constexpr int kTracedDistEpochs = 2;  // traced replica, train-dist-netps
static_assert(kTracedDistEpochs <= kDistEpochs, "replica repeats a prefix");
constexpr int kSetupRepeats = 11;
// Test evaluations repeated after the last epoch, so eval_s is a median of
// enough samples even for short training runs.
constexpr int kExtraEvals = 4;
// Serving: 4 closed-loop clients, k = 10; client 0 refreshes a pool as the
// last of every kRound operations; every kSampleEvery-th response of each
// client is checked against a brute-force top-k after the run.
constexpr int kServeClients = 4;
constexpr int64_t kTopK = 10;
constexpr int kRound = 64;
constexpr int kSampleEvery = 256;
constexpr int kPoolVersions = 4;
// Share of --seconds each workload serves for, after its training. A fixed
// window (not "whatever training left") keeps the number of refreshes, and
// so the retired-snapshot memory, independent of how fast training ran.
constexpr double kServeShare = 0.3;
// Trained mean test AUC must beat the untrained replica by this much.
constexpr double kAucMargin = 0.02;
constexpr double kAucTolerance = 1e-9;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(1);
}

uint64_t Mix(uint64_t x, uint64_t salt) {
  uint64_t z = x + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Seeds {
  uint64_t data = 0;
  uint64_t model = 0;
  uint64_t serve = 0;
};

Seeds DeriveSeeds(uint64_t seed) {
  return {Mix(seed, 1), Mix(seed, 2), Mix(seed, 3)};
}

// The domain-size profile (sizes, CTR ratios, conflict) is drawn once from a
// fixed seed; the run seed drives the interactions themselves.
data::SyntheticConfig IndustryConfig(uint64_t data_seed) {
  data::SyntheticConfig c =
      data::IndustryLike(kIndustryDomains, 1.0, kIndustryShapeSeed);
  c.seed = data_seed;
  return c;
}

data::MultiDomainDataset GenerateOrDie(const data::SyntheticConfig& c) {
  auto ds = data::Generate(c);
  if (!ds.ok()) Die("data::Generate: " + ds.status().ToString());
  return std::move(ds).value();
}

// Hyper-parameters as mamdr_run uses them by default.
models::ModelConfig ModelConfigFor(const data::MultiDomainDataset& ds,
                                   uint64_t seed) {
  models::ModelConfig mc;
  mc.num_users = ds.num_users();
  mc.num_items = ds.num_items();
  mc.num_domains = ds.num_domains();
  mc.embedding_dim = 16;
  mc.hidden = {64, 32};
  mc.expert_hidden = {64};
  mc.tower_hidden = {16};
  mc.seed = seed;
  return mc;
}

core::TrainConfig TrainConfigFor(uint64_t model_seed) {
  core::TrainConfig tc;
  tc.batch_size = 256;
  tc.inner_lr = 1e-3f;
  tc.outer_lr = 0.5f;
  tc.dr_lr = 0.5f;
  tc.dr_sample_k = 5;
  tc.inner_optimizer = "adam";
  tc.seed = model_seed + 1;
  return tc;
}

std::unique_ptr<models::CtrModel> NewModel(const models::ModelConfig& mc) {
  Rng rng(mc.seed);
  auto m = models::CreateModel("MLP", mc, &rng);
  if (!m.ok()) Die("models::CreateModel: " + m.status().ToString());
  return std::move(m).value();
}

std::unique_ptr<core::Framework> NewFramework(const std::string& name,
                                              models::CtrModel* model,
                                              const data::MultiDomainDataset* ds,
                                              const core::TrainConfig& tc) {
  auto fw = core::CreateFramework(name, model, ds, tc);
  if (!fw.ok()) Die("core::CreateFramework: " + fw.status().ToString());
  return std::move(fw).value();
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void WriteGlobalTrace(const std::string& path) {
  std::ofstream out(path);
  out << obs::TraceJson() << "\n";
  if (!out) Die("cannot write " + path);
}

// Set-up repeated kSetupRepeats times; reports the median and keeps the last
// state. The previous state is destroyed before the next is built, so peak
// memory holds one state.
template <typename State, typename MakeFn>
std::unique_ptr<State> RepeatedSetup(RunContext* ctx, MakeFn&& make) {
  std::unique_ptr<State> state;
  std::vector<double> secs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    secs.push_back(SecondsSince(t0));
  }
  ctx->e2e.Set("setup_s", Median(secs), "s");
  return state;
}

// ---------------------------------------------------------------------------
// Training on a core::Framework.

struct EpochLog {
  std::vector<double> train_s;  // wall time of each epoch's training
  std::vector<double> eval_s;   // each test-split evaluation of all domains
  std::vector<std::vector<double>> test_auc;  // per epoch, per domain
  std::vector<int64_t> passes;  // domain passes per epoch
  std::vector<int64_t> steps;   // mini-batch steps per epoch
};

// kExtraEvals more evaluations of the final parameters; each must repeat
// the last epoch's per-domain AUC bit for bit.
template <typename EvalFn>
void RepeatEvaluation(EvalFn&& evaluate, EpochLog* log, RunRecord* rec) {
  for (int r = 0; r < kExtraEvals; ++r) {
    const auto t0 = Clock::now();
    const std::vector<double> aucs = evaluate();
    log->eval_s.push_back(SecondsSince(t0));
    rec->Ops("evaluations", 1);
    rec->Check(aucs == log->test_auc.back(),
               "a repeated evaluation of the same parameters changed the AUC");
  }
}

EpochLog TrainFramework(core::Framework* fw, int epochs, RunRecord* rec) {
  EpochLog log;
  for (int e = 0; e < epochs; ++e) {
    const int64_t p0 = fw->domain_pass_count();
    const int64_t s0 = fw->batch_step_count();
    auto t0 = Clock::now();
    fw->TrainEpoch();
    log.train_s.push_back(SecondsSince(t0));
    log.passes.push_back(fw->domain_pass_count() - p0);
    log.steps.push_back(fw->batch_step_count() - s0);
    rec->Ops("epochs", 1);
    t0 = Clock::now();
    log.test_auc.push_back(fw->Evaluate(metrics::Split::kTest));
    log.eval_s.push_back(SecondsSince(t0));
    rec->Ops("evaluations", 1);
  }
  RepeatEvaluation([fw] { return fw->Evaluate(metrics::Split::kTest); }, &log,
                   rec);
  return log;
}

void ReportTraining(const EpochLog& log, int64_t samples, RunContext* ctx) {
  // Per epoch, then the median: one epoch slowed by a neighbour on the host
  // does not move the figure.
  std::vector<double> per_epoch;
  for (double s : log.train_s) {
    per_epoch.push_back(static_cast<double>(samples) / s);
  }
  ctx->e2e.Set("train_samples_per_s", Median(per_epoch), "1/s");
  std::fprintf(stderr, "e2ebench: epoch seconds:");
  for (double s : log.train_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  ctx->e2e.Set("eval_s", Median(log.eval_s), "s");
  ctx->e2e.Set("test_auc", Mean(log.test_auc.back()), "auc");
}

void ReportCoreEpochs(const EpochLog& log, RunContext* ctx) {
  std::vector<double> ms, passes, steps;
  for (size_t i = 0; i < log.train_s.size(); ++i) {
    ms.push_back(log.train_s[i] * 1e3);
    passes.push_back(static_cast<double>(log.passes[i]));
    steps.push_back(static_cast<double>(log.steps[i]));
  }
  ctx->layer.Set("core.train_epoch_ms", Median(ms), "ms");
  ctx->layer.Set("core.domain_passes", Median(passes), "count");
  ctx->layer.Set("core.batch_steps", Median(steps), "count");
}

// Mean oracle AUC of an untrained replica built from the same seed.
double UntrainedMeanAuc(const data::MultiDomainDataset& ds,
                        const models::ModelConfig& mc) {
  auto model = NewModel(mc);
  std::vector<double> aucs;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const data::Batch batch = data::Batcher::All(ds.domain(d).test);
    aucs.push_back(OracleAuc(model->Score(batch, d), batch.labels));
  }
  return Mean(aucs);
}

// Per-domain oracle AUC over `score` equals the library's evaluation, and
// the trained model beats its untrained replica by kAucMargin.
void CheckQuality(const data::MultiDomainDataset& ds,
                  const models::ModelConfig& mc, const metrics::ScoreFn& score,
                  const std::vector<double>& library_auc, const char* what,
                  RunRecord* rec) {
  std::vector<double> oracle;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const data::Batch batch = data::Batcher::All(ds.domain(d).test);
    oracle.push_back(OracleAuc(score(batch, d), batch.labels));
    const double lib = library_auc[static_cast<size_t>(d)];
    rec->Check(std::fabs(oracle.back() - lib) <= kAucTolerance,
               std::string(what) + ": oracle AUC " +
                   std::to_string(oracle.back()) + " != library AUC " +
                   std::to_string(lib) + " on domain " + std::to_string(d));
  }
  const double trained = Mean(oracle);
  const double untrained = UntrainedMeanAuc(ds, mc);
  rec->Check(trained >= untrained + kAucMargin,
             std::string(what) + ": trained mean AUC " +
                 std::to_string(trained) + " does not beat untrained " +
                 std::to_string(untrained) + " by " +
                 std::to_string(kAucMargin));
}

// ---------------------------------------------------------------------------
// Serving.

struct ServeInputs {
  std::vector<std::vector<std::vector<int64_t>>> pools;  // [domain][version]
  std::vector<std::vector<int64_t>> users;  // [domain] users who request
  std::vector<double> cdf;                  // traffic CDF over domains
};

// Version 0 of a pool is the domain's distinct train items; versions 1..3
// each drop a different fifth of them (a refresh that retires items).
ServeInputs MakeServeInputs(const data::MultiDomainDataset& ds) {
  ServeInputs in;
  double total = 0.0;
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const auto& train = ds.domain(d).train;
    std::vector<int64_t> items, users;
    for (const auto& x : train) {
      items.push_back(x.item);
      users.push_back(x.user);
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    std::vector<std::vector<int64_t>> versions = {items};
    for (int v = 1; v < kPoolVersions; ++v) {
      std::vector<int64_t> kept;
      for (int64_t it : items) {
        if ((static_cast<uint64_t>(it) * 2654435761u + static_cast<uint64_t>(v)) % 5 != 0) {
          kept.push_back(it);
        }
      }
      versions.push_back(kept.empty() ? items : kept);
    }
    in.pools.push_back(std::move(versions));
    in.users.push_back(std::move(users));
    total += static_cast<double>(train.size());
    in.cdf.push_back(total);
  }
  for (double& c : in.cdf) c /= total;
  return in;
}

struct ServeStats {
  double wall_s = 0.0;
  std::vector<double> topk_us;
  std::vector<double> refresh_us;
};

// One Recommender under closed-loop load.
class ServeSession {
 public:
  ServeSession(models::CtrModel* model, const ServeInputs* in)
      : model_(model), in_(in), rec_(model) {
    const size_t n = in_->pools.size();
    current_.assign(n, 0);
    held_.assign(n, std::set<int>{0});
    for (size_t d = 0; d < n; ++d) {
      rec_.SetCandidates(static_cast<int64_t>(d), in_->pools[d][0]);
      std::set<size_t> sizes;
      for (const auto& p : in_->pools[d]) {
        sizes.insert(std::min<size_t>(p.size(), kTopK));
      }
      sizes_.push_back(std::move(sizes));
    }
  }

  ServeStats Run(double seconds, uint64_t seed, RunRecord* rec) {
    ServeStats stats;
    std::vector<Client> clients(kServeClients);
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([this, c, seed, deadline, &clients] {
        ClientLoop(c, Mix(seed, static_cast<uint64_t>(c) + 1), deadline,
                   &clients[static_cast<size_t>(c)]);
      });
    }
    for (auto& t : threads) t.join();
    stats.wall_s = SecondsSince(t0);
    int64_t bad = 0;
    std::string first_bad;
    for (auto& cl : clients) {
      stats.topk_us.insert(stats.topk_us.end(), cl.topk_us.begin(),
                           cl.topk_us.end());
      stats.refresh_us.insert(stats.refresh_us.end(), cl.refresh_us.begin(),
                              cl.refresh_us.end());
      for (auto& s : cl.samples) samples_.push_back(std::move(s));
      bad += cl.bad;
      if (first_bad.empty()) first_bad = cl.first_bad;
    }
    rec->Ops("topk_requests", static_cast<int64_t>(stats.topk_us.size()));
    rec->Ops("refreshes", static_cast<int64_t>(stats.refresh_us.size()));
    rec->Check(bad == 0, "serve: " + std::to_string(bad) +
                             " malformed TopK responses, first: " + first_bad);
    return stats;
  }

  // Every sampled response must equal the brute-force top-k over one of
  // the pools its domain held during the run.
  void Verify(RunRecord* rec) {
    int64_t mismatches = 0;
    for (const Sample& s : samples_) {
      bool matched = false;
      for (int v : held_[static_cast<size_t>(s.domain)]) {
        const auto want = BruteForceTopK(
            model_, s.user, s.domain,
            in_->pools[static_cast<size_t>(s.domain)][static_cast<size_t>(v)],
            kTopK);
        if (want.size() != s.got.size()) continue;
        bool same = true;
        for (size_t i = 0; i < want.size() && same; ++i) {
          same = want[i].item == s.got[i].item &&
                 std::memcmp(&want[i].score, &s.got[i].score,
                             sizeof(float)) == 0;
        }
        if (same) {
          matched = true;
          break;
        }
      }
      if (!matched) ++mismatches;
    }
    rec->Check(!samples_.empty(), "serve: no response was sampled");
    rec->Check(mismatches == 0,
               "serve: " + std::to_string(mismatches) + " of " +
                   std::to_string(samples_.size()) +
                   " sampled responses differ from the brute-force top-k");
  }

 private:
  struct Sample {
    int64_t user = 0;
    int64_t domain = 0;
    std::vector<serve::RankedItem> got;
  };
  struct Client {
    std::vector<double> topk_us;
    std::vector<double> refresh_us;
    std::vector<Sample> samples;
    int64_t bad = 0;
    std::string first_bad;
  };

  int64_t PickDomain(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(in_->cdf.begin(), in_->cdf.end(), u);
    return std::min<int64_t>(it - in_->cdf.begin(),
                             static_cast<int64_t>(in_->cdf.size()) - 1);
  }

  // Size in the allowed set, distinct items, score desc then item asc.
  std::string Malformed(int64_t domain,
                        const std::vector<serve::RankedItem>& r) const {
    if (sizes_[static_cast<size_t>(domain)].count(r.size()) == 0) {
      return "domain " + std::to_string(domain) + ": " +
             std::to_string(r.size()) + " items";
    }
    for (size_t i = 0; i < r.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (r[i].item == r[j].item) return "duplicate item";
      }
      if (i > 0 && !(r[i - 1].score > r[i].score ||
                     (r[i - 1].score == r[i].score &&
                      r[i - 1].item < r[i].item))) {
        return "items out of order";
      }
    }
    return "";
  }

  void ClientLoop(int id, uint64_t seed, Clock::time_point deadline,
                  Client* out) {
    Rng rng(seed);
    int64_t served = 0;
    while (Clock::now() < deadline) {
      for (int op = 0; op < kRound; ++op) {
        if (id == 0 && op == kRound - 1) {
          Refresh(&rng, out);
          continue;
        }
        const int64_t d = PickDomain(&rng);
        const auto& users = in_->users[static_cast<size_t>(d)];
        const int64_t u = users[rng.UniformInt(users.size())];
        const auto t0 = Clock::now();
        std::vector<serve::RankedItem> got = rec_.TopK(u, d, kTopK);
        out->topk_us.push_back(SecondsSince(t0) * 1e6);
        const std::string err = Malformed(d, got);
        if (!err.empty()) {
          if (out->bad++ == 0) out->first_bad = err;
        }
        if (++served % kSampleEvery == 0) {
          out->samples.push_back({u, d, std::move(got)});
        }
      }
    }
  }

  // Only client 0 refreshes, so current_/held_ need no lock.
  void Refresh(Rng* rng, Client* out) {
    const int64_t d = PickDomain(rng);
    const size_t di = static_cast<size_t>(d);
    const int v = (current_[di] + 1) % kPoolVersions;
    std::vector<int64_t> pool = in_->pools[di][static_cast<size_t>(v)];
    const auto t0 = Clock::now();
    rec_.SetCandidates(d, std::move(pool));
    out->refresh_us.push_back(SecondsSince(t0) * 1e6);
    current_[di] = v;
    held_[di].insert(v);
  }

  models::CtrModel* model_;
  const ServeInputs* in_;
  serve::Recommender rec_;
  std::vector<int> current_;
  std::vector<std::set<int>> held_;
  std::vector<std::set<size_t>> sizes_;
  std::vector<Sample> samples_;
};

double Qps(const ServeStats& s) {
  return s.wall_s > 0.0 ? static_cast<double>(s.topk_us.size()) / s.wall_s
                        : 0.0;
}

// Serve `model` for `seconds` and report the serve_* metrics.
void ServePhase(models::CtrModel* model, const ServeInputs& in,
                double seconds, uint64_t seed, RunContext* ctx) {
  const double rss0 = CurrentRssMb();
  {
    ServeSession session(model, &in);
    const ServeStats all = session.Run(seconds, seed, &ctx->record);
    ctx->layer.Set("serve.rss_growth_mb", CurrentRssMb() - rss0, "MB");
    ctx->e2e.Set("serve_qps", Qps(all), "1/s");
    ctx->e2e.Set("serve_p50_us", Quantile(all.topk_us, 0.5), "us");
    ctx->e2e.Set("serve_p99_us", Quantile(all.topk_us, 0.99), "us");
    ctx->layer.Set("serve.refresh_us", Median(all.refresh_us), "us");
    ctx->record.Check(!all.refresh_us.empty(), "serve: no pool was refreshed");
    session.Verify(&ctx->record);
  }
}

// ---------------------------------------------------------------------------
// PS-Worker training over the networked parameter server.

struct NetCounters {
  double queue_wait_ms = 0.0;
  double bad_requests = 0.0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double redials = 0.0;
  double dials = 0.0;
};

NetCounters ReadNetCounters() {
  const obs::RegistrySnapshot snap = obs::Registry::Global().Snapshot(true);
  auto starts = [](const std::string& name, const char* family) {
    return name.rfind(std::string(family) + "{", 0) == 0;
  };
  NetCounters n;
  for (const auto& c : snap.counters) {
    const double v = static_cast<double>(c.value);
    if (starts(c.name, "ps.net.shard.bad_requests")) n.bad_requests += v;
    if (starts(c.name, "ps.net.shard.bytes_in")) n.bytes_in += v;
    if (starts(c.name, "ps.net.shard.bytes_out")) n.bytes_out += v;
    if (c.name == "ps.net.client.redials") n.redials += v;
    if (c.name == "ps.net.client.pool.dials") n.dials += v;
  }
  for (const auto& h : snap.histograms) {
    if (starts(h.name, "ps.net.shard.queue_wait_us")) {
      n.queue_wait_ms += h.snapshot.sum / 1e3;
    }
  }
  return n;
}

// A 1-shard loopback ShardGroup in its default config and a DistributedMamdr
// whose workers reach it through TimedPsClient-wrapped pooled NetPsClients.
class DistHarness {
 public:
  DistHarness(const data::MultiDomainDataset* ds,
              const models::ModelConfig& mc, const core::TrainConfig& tc,
              const std::string& work_dir, bool shard_trace)
      : ledger_(std::make_unique<PsCallLedger>()) {
    auto ref = NewModel(mc);
    ps::MakeDefaultRowExtractor(ref.get(), mc, &is_embedding_);
    layout_ = optim::Snapshot(ref->Parameters());
    ps::net::ShardGroupConfig gc;
    if (shard_trace) gc.trace_dir = work_dir;
    group_ = std::make_unique<ps::net::ShardGroup>(gc, layout_, is_embedding_);
    if (Status s = group_->Start(); !s.ok()) Die("ShardGroup: " + s.ToString());

    // A fresh checkpoint directory: an earlier harness of the same run may
    // have left one.
    const std::string ckpt_dir = work_dir + "/ckpt";
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    ps::DistributedConfig dc;
    dc.num_workers = 4;
    dc.pool_threads = 4;
    dc.train = tc;
    dc.use_embedding_cache = true;
    dc.run_dr = true;
    dc.model_name = "MLP";
    dc.checkpoint_dir = ckpt_dir;
    // Checkpoints are taken explicitly after every epoch, so they can be
    // timed on their own.
    dc.checkpoint_every = int64_t{1} << 40;
    PsCallLedger* ledger = ledger_.get();
    dc.ps_client_factory = [this, ledger](int64_t) -> std::unique_ptr<ps::PsClient> {
      return std::make_unique<TimedPsClient>(NewPlainClient(), ledger);
    };
    dist_ = std::make_unique<ps::DistributedMamdr>(mc, ds, dc);
  }

  ~DistHarness() {
    dist_.reset();
    group_->Stop();
  }
  DistHarness(const DistHarness&) = delete;
  DistHarness& operator=(const DistHarness&) = delete;

  ps::DistributedMamdr* dist() { return dist_.get(); }
  const PsCallLedger& ledger() const { return *ledger_; }

  std::unique_ptr<ps::PsClient> NewPlainClient() {
    return std::make_unique<ps::net::NetPsClient>(
        ps::net::NetPsClientConfig{}, group_->directory(), layout_,
        is_embedding_);
  }

 private:
  std::unique_ptr<PsCallLedger> ledger_;
  std::vector<bool> is_embedding_;
  std::vector<Tensor> layout_;
  std::unique_ptr<ps::net::ShardGroup> group_;
  std::unique_ptr<ps::DistributedMamdr> dist_;
};

struct DistLog {
  EpochLog epochs;             // train_s includes the checkpoint
  std::vector<double> dist_epoch_ms;
  std::vector<double> checkpoint_ms;
};

// `epochs` synchronous epochs, each followed by a checkpoint and (with
// `evaluate`) a test evaluation. With `trace_path` set, all of it is traced.
DistLog TrainDist(DistHarness* h, int epochs, bool evaluate,
                  const std::string& trace_path, RunRecord* rec) {
  DistLog log;
  ps::DistributedMamdr* dist = h->dist();
  if (!trace_path.empty()) obs::StartTracing();
  for (int e = 0; e < epochs; ++e) {
    auto t0 = Clock::now();
    const Status st = dist->TrainEpoch();
    const double epoch_s = SecondsSince(t0);
    rec->Ops("epochs", 1, st.ok() ? 0 : 1);
    rec->Check(st.ok(), "dist: TrainEpoch: " + st.ToString());
    t0 = Clock::now();
    const Status ck = dist->SaveCheckpoint(dist->epochs_run());
    const double ckpt_s = SecondsSince(t0);
    rec->Ops("checkpoints", 1, ck.ok() ? 0 : 1);
    rec->Check(ck.ok(), "dist: SaveCheckpoint: " + ck.ToString());
    log.dist_epoch_ms.push_back(epoch_s * 1e3);
    log.checkpoint_ms.push_back(ckpt_s * 1e3);
    log.epochs.train_s.push_back(epoch_s + ckpt_s);
    if (evaluate) {
      t0 = Clock::now();
      log.epochs.test_auc.push_back(dist->EvaluateTest());
      log.epochs.eval_s.push_back(SecondsSince(t0));
      rec->Ops("evaluations", 1);
    }
  }
  if (evaluate) {
    RepeatEvaluation([dist] { return dist->EvaluateTest(); }, &log.epochs, rec);
  }
  if (!trace_path.empty()) {
    obs::StopTracing();
    WriteGlobalTrace(trace_path);
  }
  const ps::RecoveryStats& r = dist->recovery_stats();
  rec->Check(r.failed_epochs == 0 && r.respawns == 0 &&
                 r.respawn_failures == 0 && r.reassigned_epochs == 0,
             "dist: recovery stats are not zero");
  return log;
}

bool BitEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<size_t>(a[i].size()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// SaveCheckpoint -> overwrite the PS with zeros -> RestoreFromCheckpoint
// must give back bit-identical PS tensors.
void CheckCheckpointRoundTrip(DistHarness* h, RunRecord* rec) {
  auto client = h->NewPlainClient();
  auto before = client->Snapshot();
  rec->Check(before.ok(), "round trip: Snapshot: " + before.status().ToString());
  if (!before.ok()) return;
  const int64_t epoch = h->dist()->epochs_run();
  const Status saved = h->dist()->SaveCheckpoint(epoch);
  rec->Check(saved.ok(), "round trip: SaveCheckpoint: " + saved.ToString());
  std::vector<Tensor> zeros;
  for (const Tensor& t : before.value()) zeros.emplace_back(t.shape(), 0.0f);
  const Status wiped = client->Restore(zeros);
  rec->Check(wiped.ok(), "round trip: Restore(zeros): " + wiped.ToString());
  auto restored = h->dist()->RestoreFromCheckpoint();
  rec->Check(restored.ok() && restored.value() == epoch,
             "round trip: RestoreFromCheckpoint did not return epoch " +
                 std::to_string(epoch));
  auto after = client->Snapshot();
  rec->Check(after.ok() && BitEqual(before.value(), after.value()),
             "round trip: PS tensors differ after restore");
}

void ReportPsLayers(const DistHarness& h, const DistLog& log,
                    const NetCounters& n0, const NetCounters& n1,
                    RunContext* ctx) {
  for (int op = 0; op < kNumPsOps; ++op) {
    const PsCallLedger::OpTotals t = h.ledger().Totals(op);
    const std::string base = std::string("ps.") + PsOpName(op);
    ctx->layer.Set(base + ".calls", static_cast<double>(t.calls), "count");
    ctx->layer.Set(base + ".failed", static_cast<double>(t.failed), "count");
    ctx->layer.Set(base + ".total_ms", t.total_ms, "ms");
    if (op == static_cast<int>(PsOpKind::kPullRows) ||
        op == static_cast<int>(PsOpKind::kPushRowDeltas)) {
      ctx->layer.Set(base + ".rows", static_cast<double>(t.rows), "count");
    }
    ctx->record.Ops(base, t.calls, t.failed);
  }
  ctx->layer.Set("ps.dist_epoch_ms", Median(log.dist_epoch_ms), "ms");
  ctx->layer.Set("checkpoint.save_ms", Median(log.checkpoint_ms), "ms");
  ctx->layer.Set("ps.net.shard.queue_wait_ms", n1.queue_wait_ms - n0.queue_wait_ms, "ms");
  ctx->layer.Set("ps.net.shard.bad_requests", n1.bad_requests - n0.bad_requests, "count");
  ctx->layer.Set("ps.net.shard.bytes_in", n1.bytes_in - n0.bytes_in, "bytes");
  ctx->layer.Set("ps.net.shard.bytes_out", n1.bytes_out - n0.bytes_out, "bytes");
  ctx->layer.Set("ps.net.client.redials", n1.redials - n0.redials, "count");
  ctx->layer.Set("ps.net.client.pool.dials", n1.dials - n0.dials, "count");
}

// Traced run, workloads whose main phase is not PS-Worker training: one
// traced DistributedMamdr epoch + checkpoint round trip on the workload's
// own data, so every ps.* and checkpoint.* metric is measured.
void PsProbe(const data::MultiDomainDataset& ds, const models::ModelConfig& mc,
             const core::TrainConfig& tc, RunContext* ctx) {
  const NetCounters n0 = ReadNetCounters();
  DistHarness h(&ds, mc, tc, ctx->opt.work_dir, /*shard_trace=*/true);
  const DistLog log = TrainDist(&h, 1, /*evaluate=*/false,
                                ctx->opt.work_dir + "/ps.trace.json",
                                &ctx->record);
  CheckCheckpointRoundTrip(&h, &ctx->record);
  ReportPsLayers(h, log, n0, ReadNetCounters(), ctx);
}

// ---------------------------------------------------------------------------
// Layer probes (traced run): each layer's public entry point timed from
// outside on the workload's data and model shapes.

void LayerProbes(const data::MultiDomainDataset& ds,
                 const models::ModelConfig& mc, const core::TrainConfig& tc,
                 bool traced_mamdr_epoch, RunContext* ctx) {
  auto model = NewModel(mc);
  auto fw = NewFramework("MAMDR", model.get(), &ds, tc);
  auto* mamdr_fw = dynamic_cast<core::Mamdr*>(fw.get());
  if (mamdr_fw == nullptr) Die("MAMDR framework is not core::Mamdr");
  if (traced_mamdr_epoch) {
    // One untraced epoch for the core.* epoch figures (when the workload's
    // main phase trains no core::Framework), then one traced epoch.
    const EpochLog log = TrainFramework(fw.get(), 1, &ctx->record);
    if (!ctx->layer.Has("core.train_epoch_ms")) ReportCoreEpochs(log, ctx);
    obs::StartTracing();
    fw->TrainEpoch();
    obs::StopTracing();
    ctx->record.Ops("epochs", 1);
    WriteGlobalTrace(ctx->opt.work_dir + "/core.trace.json");
  }

  // A 256-sample batch of the largest domain.
  int64_t big = 0;
  for (int64_t d = 1; d < ds.num_domains(); ++d) {
    if (ds.domain(d).train.size() > ds.domain(big).train.size()) big = d;
  }
  const auto& train = ds.domain(big).train;
  std::vector<data::Interaction> first(
      train.begin(),
      train.begin() + static_cast<long>(std::min<size_t>(256, train.size())));
  const data::Batch batch = data::Batcher::All(first);

  // tensor: the MLP's widest GEMM, [256 x concat] * [concat x hidden0].
  {
    Rng rng(mc.seed);
    const int64_t in = 4 * mc.embedding_dim, out = mc.hidden[0];
    std::vector<float> a(static_cast<size_t>(256 * in)), b(static_cast<size_t>(in * out));
    for (float& x : a) x = static_cast<float>(rng.Normal());
    for (float& x : b) x = static_cast<float>(rng.Normal());
    const Tensor ta({256, in}, a), tb({in, out}, b);
    float sink = 0.0f;
    ctx->layer.Set("tensor.matmul_us", MedianMicros(9, 50, [&] {
                     sink += ops::MatMul(ta, tb).data()[0];
                   }),
                   "us");
    if (!std::isfinite(sink)) Die("matmul probe produced non-finite output");
  }

  // autograd + optim on the model's own parameters.
  {
    std::vector<autograd::Var> params = model->Parameters();
    optim::Adam adam(params, 1e-3f);
    Rng rng(mc.seed + 5);
    nn::Context train_ctx{true, &rng};
    std::vector<double> fwd, bwd;
    for (int r = 0; r < 15; ++r) {
      adam.ZeroGrad();
      auto t0 = Clock::now();
      autograd::Var loss = model->Loss(batch, big, train_ctx);
      fwd.push_back(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
      loss.Backward();
      bwd.push_back(SecondsSince(t0) * 1e6);
    }
    ctx->layer.Set("autograd.loss_forward_us", Median(fwd), "us");
    ctx->layer.Set("autograd.backward_us", Median(bwd), "us");
    ctx->layer.Set("optim.adam_step_us",
                   MedianMicros(9, 3, [&] { adam.Step(); }), "us");
    std::vector<Tensor> snap;
    ctx->layer.Set("optim.snapshot_us",
                   MedianMicros(9, 3, [&] { snap = optim::Snapshot(params); }),
                   "us");
    ctx->layer.Set("optim.meta_interpolate_us", MedianMicros(9, 3, [&] {
                     optim::MetaInterpolate(params, snap, 0.5f);
                   }),
                   "us");
  }

  // core: the shared/specific store of a MAMDR framework.
  {
    core::SharedSpecificStore* store = mamdr_fw->store();
    const int64_t n = ds.num_domains();
    int64_t d = 0;
    ctx->layer.Set("core.install_composite_us", MedianMicros(9, 8, [&] {
                     store->InstallComposite(d);
                     d = (d + 1) % n;
                   }),
                   "us");
    d = 0;
    ctx->layer.Set("core.update_specific_us", MedianMicros(9, 8, [&] {
                     store->UpdateSpecificFromComposite(d);
                     d = (d + 1) % n;
                   }),
                   "us");
    ctx->layer.Set("core.specific_param_floats",
                   static_cast<double>(store->SpecificParameterCount() * n),
                   "count");
  }

  // models + metrics: scoring a batch, and the AUCs of one test evaluation.
  {
    mamdr_fw->store()->InstallShared();
    ctx->layer.Set("models.score_us", MedianMicros(9, 10, [&] {
                     (void)model->Score(batch, big);
                   }),
                   "us");
    std::vector<std::vector<float>> scores, labels;
    for (int64_t d = 0; d < ds.num_domains(); ++d) {
      const data::Batch b = data::Batcher::All(ds.domain(d).test);
      scores.push_back(model->Score(b, d));
      labels.push_back(b.labels);
    }
    double sink = 0.0;
    ctx->layer.Set("metrics.auc_ms", MedianMicros(7, 1, [&] {
                     for (size_t d = 0; d < scores.size(); ++d) {
                       sink += metrics::Auc(scores[d], labels[d]);
                     }
                   }) / 1e3,
                   "ms");
    if (!std::isfinite(sink)) Die("auc probe produced non-finite output");
  }
}

// ---------------------------------------------------------------------------
// The workloads.

void TrainMamdrIndustry(RunContext* ctx) {
  const RunOptions& opt = ctx->opt;
  const Seeds seeds = DeriveSeeds(opt.seed);
  struct State {
    data::MultiDomainDataset ds;
    models::ModelConfig mc;
    core::TrainConfig tc;
    std::unique_ptr<models::CtrModel> model;
    std::unique_ptr<core::Framework> fw;
    ServeInputs serve;
    double generate_ms = 0.0;
  };
  std::vector<double> gen_ms;
  auto st = RepeatedSetup<State>(ctx, [&] {
    auto s = std::make_unique<State>();
    const auto t0 = Clock::now();
    s->ds = GenerateOrDie(IndustryConfig(seeds.data));
    gen_ms.push_back(SecondsSince(t0) * 1e3);
    s->mc = ModelConfigFor(s->ds, seeds.model);
    s->tc = TrainConfigFor(seeds.model);
    s->model = NewModel(s->mc);
    s->fw = NewFramework("MAMDR", s->model.get(), &s->ds, s->tc);
    s->serve = MakeServeInputs(s->ds);
    return s;
  });
  ctx->layer.Set("data.generate_ms", Median(gen_ms), "ms");

  const EpochLog log =
      TrainFramework(st->fw.get(), kIndustryEpochs, &ctx->record);
  const int64_t n = st->ds.num_domains();
  const int64_t want_passes =
      n * (1 + 2 * std::min<int64_t>(st->tc.dr_sample_k, n - 1));
  for (size_t e = 0; e < log.passes.size(); ++e) {
    ctx->record.Check(log.passes[e] == want_passes,
                      "MAMDR epoch " + std::to_string(e + 1) + " ran " +
                          std::to_string(log.passes[e]) +
                          " domain passes, Algorithms 1-2 give " +
                          std::to_string(want_passes));
  }
  CheckQuality(st->ds, st->mc, st->fw->Scorer(), log.test_auc.back(), "MAMDR",
               &ctx->record);
  ReportTraining(log, st->ds.TotalTrain(), ctx);
  ReportCoreEpochs(log, ctx);

  // Serve the shared parameters θS of the trained model.
  dynamic_cast<core::Mamdr*>(st->fw.get())->store()->InstallShared();
  ServePhase(st->model.get(), st->serve, kServeShare * opt.seconds,
             seeds.serve, ctx);

  // Same seed, same thread count: a replica's first epoch gives
  // bit-identical per-domain AUC. The traced run trains a second replica
  // with tracing on: the same work, so the ratio of the two epoch times is
  // the tracing overhead, and tracing must not change a bit either.
  std::vector<double> replica_s;
  for (int r = 0; r < (opt.trace ? 2 : 1); ++r) {
    const bool traced = r == 1;
    auto replica = NewModel(st->mc);
    auto fw2 = NewFramework("MAMDR", replica.get(), &st->ds, st->tc);
    if (traced) obs::StartTracing();
    const auto t0 = Clock::now();
    fw2->TrainEpoch();
    replica_s.push_back(SecondsSince(t0));
    if (traced) {
      obs::StopTracing();
      WriteGlobalTrace(opt.work_dir + "/core.trace.json");
    }
    const std::vector<double> again = fw2->Evaluate(metrics::Split::kTest);
    ctx->record.Ops("epochs", 1);
    ctx->record.Ops("evaluations", 1);
    ctx->record.Check(again == log.test_auc[0],
                      std::string("MAMDR: a same-seed ") +
                          (traced ? "traced " : "") +
                          "repeat of epoch 1 gave different per-domain AUC");
  }
  if (opt.trace) {
    ctx->layer.Set("obs.trace_overhead_pct",
                   (replica_s[1] / replica_s[0] - 1.0) * 100.0, "%");
  }

  if (opt.trace) {
    LayerProbes(st->ds, st->mc, st->tc, /*traced_mamdr_epoch=*/false, ctx);
    PsProbe(st->ds, st->mc, st->tc, ctx);
  }
}

void TrainDistNetps(RunContext* ctx) {
  const RunOptions& opt = ctx->opt;
  const Seeds seeds = DeriveSeeds(opt.seed);
  struct State {
    data::MultiDomainDataset ds;
    models::ModelConfig mc;
    core::TrainConfig tc;
    std::unique_ptr<DistHarness> h;
    ServeInputs serve;
  };
  std::vector<double> gen_ms;
  auto st = RepeatedSetup<State>(ctx, [&] {
    auto s = std::make_unique<State>();
    const auto t0 = Clock::now();
    s->ds = GenerateOrDie(data::TaobaoLike(20, 1.0, seeds.data));
    gen_ms.push_back(SecondsSince(t0) * 1e3);
    s->mc = ModelConfigFor(s->ds, seeds.model);
    s->tc = TrainConfigFor(seeds.model);
    s->h = std::make_unique<DistHarness>(&s->ds, s->mc, s->tc, opt.work_dir,
                                         /*shard_trace=*/false);
    s->serve = MakeServeInputs(s->ds);
    return s;
  });
  ctx->layer.Set("data.generate_ms", Median(gen_ms), "ms");

  const NetCounters n0 = ReadNetCounters();
  const DistLog log = TrainDist(st->h.get(), kDistEpochs, /*evaluate=*/true,
                                /*trace_path=*/"", &ctx->record);
  ps::DistributedMamdr* dist = st->h->dist();
  // Score each domain as EvaluateTest does: the owner worker's composite.
  const metrics::ScoreFn owner_score = [dist](const data::Batch& b,
                                              int64_t d) {
    ps::Worker* w = dist->worker(dist->OwnerOf(d));
    w->specific_store()->InstallComposite(d);
    return w->model()->Score(b, d);
  };
  CheckQuality(st->ds, st->mc, owner_score, log.epochs.test_auc.back(),
               "dist", &ctx->record);
  ReportTraining(log.epochs, st->ds.TotalTrain(), ctx);

  // Serve the PS's shared parameters, with the parameter server stopped.
  auto served = NewModel(st->mc);
  {
    auto client = st->h->NewPlainClient();
    auto snap = client->Snapshot();
    if (!snap.ok()) Die("dist: Snapshot for serving: " + snap.status().ToString());
    optim::Restore(served->Parameters(), snap.value());
  }
  CheckCheckpointRoundTrip(st->h.get(), &ctx->record);
  ReportPsLayers(*st->h, log, n0, ReadNetCounters(), ctx);
  st->h.reset();
  ServePhase(served.get(), st->serve, kServeShare * opt.seconds,
             seeds.serve, ctx);

  if (opt.trace) {
    // A same-seed replica trained with the trainer and the shard traced
    // repeats the first kTracedDistEpochs epochs of the untraced run, so the
    // ratio of their TrainEpoch times (checkpoints left out) is the tracing
    // overhead.
    DistHarness traced(&st->ds, st->mc, st->tc, opt.work_dir,
                       /*shard_trace=*/true);
    const DistLog tlog =
        TrainDist(&traced, kTracedDistEpochs, /*evaluate=*/false,
                  opt.work_dir + "/ps.trace.json", &ctx->record);
    const std::vector<double> untraced_ms(
        log.dist_epoch_ms.begin(), log.dist_epoch_ms.begin() + kTracedDistEpochs);
    ctx->layer.Set("obs.trace_overhead_pct",
                   (Median(tlog.dist_epoch_ms) / Median(untraced_ms) - 1.0) *
                       100.0,
                   "%");
    LayerProbes(st->ds, st->mc, st->tc, /*traced_mamdr_epoch=*/true, ctx);
  }
}

}  // namespace

const char* const* WorkloadNames() {
  static const char* const kNames[] = {"train-mamdr-industry",
                                       "train-dist-netps", nullptr};
  return kNames;
}

bool RunWorkload(RunContext* ctx) {
  // Serial kernels everywhere. With the default 4-thread kernel pool, MAMDR
  // epoch times followed the VM's steal time (run-to-run spread 17-25%, and
  // slower than serial), which no bound of this benchmark could hold.
  SetKernelThreads(1);
  const std::string& w = ctx->opt.workload;
  if (w == "train-mamdr-industry") {
    TrainMamdrIndustry(ctx);
  } else if (w == "train-dist-netps") {
    TrainDistNetps(ctx);
  } else {
    return false;
  }
  ctx->e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  return true;
}

}  // namespace e2ebench
