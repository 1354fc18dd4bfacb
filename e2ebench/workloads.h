// The two e2ebench workloads. Each one is a whole train -> evaluate ->
// serve pipeline driven through the library's public entry points; they
// differ in what the training phase runs:
//
//   train-mamdr-industry  MAMDR + MLP on IndustryLike(48), then a short
//                         serving phase on the result.
//   train-dist-netps      DistributedMamdr (DN + per-worker DR, embedding
//                         cache) over a 1-shard loopback ShardGroup with
//                         pooled NetPsClients, checkpoint + evaluation after
//                         every epoch, then a short serving phase.
//
// Kernels run serially in every workload (see RunWorkload).
//
// With `trace` set a run also records spans (see README.md) and probes
// every layer on the workload's own data, so each per-layer metric is a
// measurement on every workload.
#ifndef MAMDR_E2EBENCH_WORKLOADS_H_
#define MAMDR_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoints and trace files; must exist.
  std::string work_dir;
};

struct RunContext {
  RunOptions opt;
  RunRecord record;
  MetricSink e2e;    // end-to-end metrics (printed with --trace 0)
  MetricSink layer;  // per-layer metrics (printed with --trace 1)
};

/// Known workload names, in BENCHMARK.json order.
const char* const* WorkloadNames();

/// Run `ctx->opt.workload`. Returns false for an unknown workload; check
/// failures are recorded in ctx->record instead.
bool RunWorkload(RunContext* ctx);

}  // namespace e2ebench

#endif  // MAMDR_E2EBENCH_WORKLOADS_H_
