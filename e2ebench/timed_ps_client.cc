#include "timed_ps_client.h"

#include "harness.h"

namespace e2ebench {

using mamdr::Result;
using mamdr::Status;
using mamdr::Tensor;

const char* PsOpName(int op) {
  static const char* const kNames[kNumPsOps] = {
      "pull_dense",       "pull_rows",       "pull_full_table", "push_dense_delta",
      "push_row_deltas",  "snapshot",        "restore"};
  return kNames[op];
}

void PsCallLedger::Add(PsOpKind op, bool ok, int64_t rows, int64_t nanos) {
  Slot& s = slots_[static_cast<size_t>(op)];
  s.calls.fetch_add(1, std::memory_order_relaxed);
  if (!ok) s.failed.fetch_add(1, std::memory_order_relaxed);
  s.rows.fetch_add(rows, std::memory_order_relaxed);
  s.nanos.fetch_add(nanos, std::memory_order_relaxed);
}

PsCallLedger::OpTotals PsCallLedger::Totals(int op) const {
  const Slot& s = slots_[static_cast<size_t>(op)];
  OpTotals t;
  t.calls = s.calls.load(std::memory_order_relaxed);
  t.failed = s.failed.load(std::memory_order_relaxed);
  t.rows = s.rows.load(std::memory_order_relaxed);
  t.total_ms = static_cast<double>(s.nanos.load(std::memory_order_relaxed)) / 1e6;
  return t;
}

namespace {

// Runs `call`, then books its outcome and wall time against `op`.
template <typename Call>
auto Timed(PsCallLedger* ledger, PsOpKind op, int64_t rows, Call&& call) {
  const auto t0 = Clock::now();
  auto result = call();
  const int64_t nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count();
  ledger->Add(op, result.ok(), rows, nanos);
  return result;
}

}  // namespace

TimedPsClient::TimedPsClient(std::unique_ptr<mamdr::ps::PsClient> inner,
                             PsCallLedger* ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

Status TimedPsClient::PullDense(std::vector<Tensor>* out) {
  return Timed(ledger_, PsOpKind::kPullDense, 0,
               [&] { return inner_->PullDense(out); });
}

Status TimedPsClient::PullRows(int64_t idx, const std::vector<int64_t>& rows,
                               Tensor* into) {
  return Timed(ledger_, PsOpKind::kPullRows, static_cast<int64_t>(rows.size()),
               [&] { return inner_->PullRows(idx, rows, into); });
}

Status TimedPsClient::PullFullTable(int64_t idx, Tensor* into) {
  const int64_t rows = into->rank() == 2 ? into->rows() : 0;
  return Timed(ledger_, PsOpKind::kPullFullTable, rows,
               [&] { return inner_->PullFullTable(idx, into); });
}

Status TimedPsClient::PushDenseDelta(const std::vector<Tensor>& delta,
                                     float beta) {
  return Timed(ledger_, PsOpKind::kPushDenseDelta, 0,
               [&] { return inner_->PushDenseDelta(delta, beta); });
}

Status TimedPsClient::PushRowDeltas(int64_t idx,
                                    const std::vector<int64_t>& rows,
                                    const Tensor& delta, float beta) {
  return Timed(ledger_, PsOpKind::kPushRowDeltas,
               static_cast<int64_t>(rows.size()),
               [&] { return inner_->PushRowDeltas(idx, rows, delta, beta); });
}

Result<std::vector<Tensor>> TimedPsClient::Snapshot() {
  return Timed(ledger_, PsOpKind::kSnapshot, 0,
               [&] { return inner_->Snapshot(); });
}

Status TimedPsClient::Restore(const std::vector<Tensor>& params) {
  return Timed(ledger_, PsOpKind::kRestore, 0,
               [&] { return inner_->Restore(params); });
}

}  // namespace e2ebench
