// A PsClient decorator that times and counts every call a PS-Worker run
// makes. It is installed through DistributedConfig::ps_client_factory
// around each NetPsClient, so it sees exactly the calls Worker and
// DistributedMamdr make, including every attempt of the worker's own retry
// loop (each attempt is a separate call through the PsClient interface).
#ifndef MAMDR_E2EBENCH_TIMED_PS_CLIENT_H_
#define MAMDR_E2EBENCH_TIMED_PS_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ps/ps_client.h"

namespace e2ebench {

enum class PsOpKind {
  kPullDense,
  kPullRows,
  kPullFullTable,
  kPushDenseDelta,
  kPushRowDeltas,
  kSnapshot,
  kRestore,
};
inline constexpr int kNumPsOps = 7;

/// Metric-name spelling of each op ("pull_dense", ...).
const char* PsOpName(int op);

/// Counters shared by every TimedPsClient of one run; thread-safe.
class PsCallLedger {
 public:
  struct OpTotals {
    int64_t calls = 0;
    int64_t failed = 0;
    int64_t rows = 0;
    double total_ms = 0.0;
  };
  void Add(PsOpKind op, bool ok, int64_t rows, int64_t nanos);
  OpTotals Totals(int op) const;

 private:
  struct Slot {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> failed{0};
    std::atomic<int64_t> rows{0};
    std::atomic<int64_t> nanos{0};
  };
  std::array<Slot, kNumPsOps> slots_;
};

class TimedPsClient : public mamdr::ps::PsClient {
 public:
  /// `ledger` must outlive the client.
  TimedPsClient(std::unique_ptr<mamdr::ps::PsClient> inner,
                PsCallLedger* ledger);

  int64_t num_params() const override { return inner_->num_params(); }
  bool is_embedding(int64_t idx) const override {
    return inner_->is_embedding(idx);
  }
  mamdr::Status PullDense(std::vector<mamdr::Tensor>* out) override;
  mamdr::Status PullRows(int64_t idx, const std::vector<int64_t>& rows,
                         mamdr::Tensor* into) override;
  mamdr::Status PullFullTable(int64_t idx, mamdr::Tensor* into) override;
  mamdr::Status PushDenseDelta(const std::vector<mamdr::Tensor>& delta,
                               float beta) override;
  mamdr::Status PushRowDeltas(int64_t idx, const std::vector<int64_t>& rows,
                              const mamdr::Tensor& delta,
                              float beta) override;
  mamdr::Result<std::vector<mamdr::Tensor>> Snapshot() override;
  mamdr::Status Restore(const std::vector<mamdr::Tensor>& params) override;

 private:
  std::unique_ptr<mamdr::ps::PsClient> inner_;
  PsCallLedger* ledger_;
};

}  // namespace e2ebench

#endif  // MAMDR_E2EBENCH_TIMED_PS_CLIENT_H_
