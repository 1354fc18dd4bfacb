#include "common/flags.h"

#include <cerrno>
#include <cstdlib>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "obs/telemetry.h"

namespace mamdr {

namespace {

/// The one checked number parse behind every numeric getter: `parse`
/// (strtoll/strtod shaped) must consume all of `text` without overflow.
template <typename Parse>
auto ParseWhole(const std::string& name, const std::string& text,
                const char* kind, Parse parse)
    -> Result<decltype(parse(text.c_str(), nullptr))> {
  errno = 0;
  char* end = nullptr;
  const auto parsed = parse(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    return Status::InvalidArgument("--" + name + ": '" + text + "' is not " +
                                   kind);
  }
  return parsed;
}

/// A malformed flag value is a usage error: name it and exit 2, as the
/// tools do for unknown flags.
template <typename T>
T ValueOrExit(Result<T> value) {
  if (!value.ok()) {
    MAMDR_LOG(Error) << value.status().message();
    std::exit(2);
  }
  return value.value();
}

}  // namespace

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  if (argc > 0) parser.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      return Status::InvalidArgument("unexpected positional argument '" +
                                     arg + "'");
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      parser.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      parser.values_[arg] = argv[++i];
    } else {
      parser.values_[arg] = "true";  // bare boolean flag
    }
  }
  return parser;
}

bool FlagParser::Has(const std::string& name) const {
  queried_.insert(name);
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  return ValueOrExit(GetIntChecked(name, default_value));
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ValueOrExit(ParseWhole(name, it->second, "a number",
                                [](const char* s, char** end) {
                                  return std::strtod(s, end);
                                }));
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Result<int64_t> FlagParser::GetIntChecked(const std::string& name,
                                          int64_t default_value) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseWhole(name, it->second, "an integer",
                    [](const char* s, char** end) {
                      return static_cast<int64_t>(std::strtoll(s, end, 10));
                    });
}

Status ApplyGlobalFlags(const FlagParser& flags) {
  auto threads = flags.GetIntChecked("kernel-threads", 0);
  if (threads.ok() && flags.Has("kernel_threads")) {
    threads = flags.GetIntChecked("kernel_threads", threads.value());
  }
  MAMDR_RETURN_NOT_OK(threads.status());
  if (threads.value() < 0) {
    return Status::InvalidArgument(
        "--kernel-threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(threads.value()));
  }
  SetKernelThreads(threads.value());

  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const bool probe_conflict = flags.GetBool("probe-conflict", false);
  if (probe_conflict && metrics_out.empty()) {
    return Status::InvalidArgument(
        "--probe-conflict requires --metrics-out (the probe records into "
        "the metrics document)");
  }
  if (!metrics_out.empty() || !trace_out.empty()) {
    obs::ConfigureOutputs(metrics_out, trace_out, probe_conflict);
  }
  return Status::OK();
}

std::vector<std::string> FlagParser::Unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (queried_.count(name) == 0) out.push_back(name);
  }
  return out;
}

}  // namespace mamdr
