#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace e2ebench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

namespace {

// Value of a "Key:   123 kB" line of /proc/self/status, in MB.
double StatusKbField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double CurrentRssMb() { return StatusKbField("VmRSS"); }
double PeakRssMb() { return StatusKbField("VmHWM"); }

HostFingerprint Fingerprint() {
  HostFingerprint h;
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = E2EBENCH_BUILD_TYPE;
  return h;
}

void RunRecord::Ops(const std::string& kind, int64_t n, int64_t failed) {
  Count& c = ops_[kind];
  c.attempted += n;
  c.failed += failed;
}

void RunRecord::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++failed_checks_;
    std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", what.c_str());
  }
}

int64_t RunRecord::attempted() const {
  int64_t n = 0;
  for (const auto& [kind, c] : ops_) {
    if (kind.rfind("ps.", 0) != 0) n += c.attempted;
  }
  return n;
}

int64_t RunRecord::failed() const {
  int64_t n = 0;
  for (const auto& [kind, c] : ops_) {
    if (kind.rfind("ps.", 0) != 0) n += c.failed;
  }
  return n;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(ch);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string RunRecord::Json(const HostFingerprint& host) const {
  std::string out = "{\"host\":{\"nproc\":" + std::to_string(host.nproc) +
                    ",\"cpu_model\":" + Quote(host.cpu_model) +
                    ",\"compiler\":" + Quote(host.compiler) +
                    ",\"build_type\":" + Quote(host.build_type) + "}";
  out += ",\"checks\":" + std::to_string(checks_) +
         ",\"failed_checks\":" + std::to_string(failed_checks_) + ",\"ops\":{";
  bool first = true;
  for (const auto& [kind, c] : ops_) {
    if (!first) out += ",";
    first = false;
    out += Quote(kind) + ":{\"attempted\":" + std::to_string(c.attempted) +
           ",\"failed\":" + std::to_string(c.failed) + "}";
  }
  out += "}}";
  return out;
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

bool MetricSink::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::vector<std::string> MetricSink::NonFinite() const {
  std::vector<std::string> out;
  for (const auto& [name, vu] : values_) {
    if (!std::isfinite(vu.first)) out.push_back(name);
  }
  return out;
}

std::string MetricSink::Json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : values_) {
    if (!first) out += ",";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += Quote(name) + ":{\"value\":" + buf + ",\"unit\":" +
           Quote(vu.second) + "}";
  }
  out += "}";
  return out;
}

}  // namespace e2ebench
