// e2ebench: one run of one workload.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a record line ("e2ebench-record: {...}": host fingerprint, checks,
// operations attempted/failed per kind) and, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}. The metrics
// are the end-to-end ones with --trace 0 and the per-layer ones with
// --trace 1. Exits 2 on bad flags and 3 on a build that is not Release.
// Normally driven by run.py, which builds this binary and adds the metrics
// that come from reducing the traced run's span files.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "oracles.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\nworkloads:");
  for (const char* const* w = e2ebench::WorkloadNames(); *w != nullptr; ++w) {
    std::fprintf(stderr, " %s", *w);
  }
  std::fprintf(stderr, "\n");
}

bool ParseUnsigned(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

bool ParseArgs(int argc, char** argv, e2ebench::RunOptions* opt) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &opt->seed)) return false;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt->seconds > 0.0) || opt->seconds > 3600.0) {
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace &&
         !opt->work_dir.empty() && std::filesystem::is_directory(opt->work_dir);
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunContext ctx;
  if (!ParseArgs(argc, argv, &ctx.opt)) {
    Usage();
    return 2;
  }
  const e2ebench::HostFingerprint host = e2ebench::Fingerprint();
  if (host.build_type != "Release") {
    std::fprintf(stderr,
                 "e2ebench: refusing to report from a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 host.build_type.c_str());
    return 3;
  }
  const std::string self_test = e2ebench::OracleSelfTest();
  ctx.record.Check(self_test.empty(), "oracle self-test: " + self_test);

  if (!e2ebench::RunWorkload(&ctx)) {
    Usage();
    return 2;
  }

  const e2ebench::MetricSink& out = ctx.opt.trace ? ctx.layer : ctx.e2e;
  for (const std::string& name : out.NonFinite()) {
    ctx.record.Check(false, "metric " + name + " is not finite");
  }
  std::printf("e2ebench-record: %s\n", ctx.record.Json(host).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              ctx.record.correct() ? "true" : "false",
              static_cast<long long>(ctx.record.attempted()),
              static_cast<long long>(ctx.record.failed()), out.Json().c_str());
  std::fflush(stdout);
  return 0;
}
