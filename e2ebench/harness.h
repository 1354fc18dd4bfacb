// Measurement plumbing shared by the e2ebench workloads: clocks, order
// statistics, process memory, the host fingerprint, the per-run record of
// attempted/failed operations and correctness checks, and the metric sink
// the result line is printed from.
#ifndef MAMDR_E2EBENCH_HARNESS_H_
#define MAMDR_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty vector). Takes a copy: callers keep order.
double Median(std::vector<double> v);

/// The q-quantile (0 <= q <= 1) by the nearest-rank rule.
double Quantile(std::vector<double> v, double q);

/// Time `fn` `reps` times and return the median wall time of one call in
/// microseconds. Each repetition runs `fn` `inner` times back to back, so
/// calls shorter than the clock's resolution still time well.
template <typename Fn>
double MedianMicros(int reps, int inner, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) fn();
    us.push_back(SecondsSince(t0) * 1e6 / inner);
  }
  return Median(std::move(us));
}

/// Resident set size now and its high-water mark, from /proc/self/status.
double CurrentRssMb();
double PeakRssMb();

/// nproc, CPU model, compiler and build type of this binary.
struct HostFingerprint {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
HostFingerprint Fingerprint();

/// What one run attempted, what failed, and every correctness check.
class RunRecord {
 public:
  /// Count `n` attempts of operation kind `kind`, `failed` of them failed.
  void Ops(const std::string& kind, int64_t n, int64_t failed = 0);
  /// Record a correctness check; a failed one makes the run incorrect and
  /// is reported on stderr with `what`.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failed_checks_ == 0; }
  /// Sum over the operation kinds that make up the result line's
  /// `attempted`/`failed` (PS calls are reported per kind only: the worker
  /// retries them, so one transient failure does not fail an epoch).
  int64_t attempted() const;
  int64_t failed() const;
  /// JSON object of the record: fingerprint, checks and per-kind counts.
  std::string Json(const HostFingerprint& host) const;

 private:
  struct Count {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  std::map<std::string, Count> ops_;
  int64_t checks_ = 0;
  int64_t failed_checks_ = 0;
};

/// Metric name -> (value, unit), printed in name order.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Names of metrics whose value is NaN or infinite.
  std::vector<std::string> NonFinite() const;
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of each
  /// value; a non-finite value prints as 0 (NonFinite() reports it).
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace e2ebench

#endif  // MAMDR_E2EBENCH_HARNESS_H_
