#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "fault/fault.h"

namespace domd {
namespace {

[[noreturn]] void FlagError(const std::string& key, const std::string& why) {
  std::fprintf(stderr, "error: --%s: %s\n", key.c_str(), why.c_str());
  std::exit(2);
}

}  // namespace

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    if (i + 1 >= argc) FlagError(key.substr(2), "missing value");
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::int64_t IntFlagIn(const Flags& flags, const std::string& key,
                       std::int64_t fallback, std::int64_t min,
                       std::int64_t max) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto value = ParseInt(it->second);
  if (!value.ok()) FlagError(key, value.status().message());
  if (*value < min || *value > max) {
    FlagError(key, it->second + " is outside [" + std::to_string(min) +
                       ", " + std::to_string(max) + "]");
  }
  return *value;
}

double DoubleFlag(const Flags& flags, const std::string& key,
                  double fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  const auto value = ParseDouble(it->second);
  if (!value.ok()) FlagError(key, value.status().message());
  if (!std::isfinite(*value)) FlagError(key, it->second + " is not finite");
  return *value;
}

int ArmFaults(const Flags& flags, [[maybe_unused]] const char* program) {
  std::string spec = FlagOr(flags, "fault-spec", "");
  if (spec.empty()) {
    if (const char* env = std::getenv("DOMD_FAULT_SPEC")) spec = env;
  }
  if (spec.empty()) return 0;
#if DOMD_FAULT_COMPILED
  const Status status = fault::FaultRegistry::Default().ApplySpec(spec);
  if (!status.ok()) {
    std::fprintf(stderr, "error: --fault-spec: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  fault::SetEnabled(true);
  std::fprintf(stderr, "%s: fault injection armed: %s\n", program,
               spec.c_str());
  return 0;
#else
  std::fprintf(stderr,
               "error: --fault-spec given but fault injection was compiled "
               "out (-DDOMD_DISABLE_FAULTS)\n");
  return 2;
#endif
}

}  // namespace domd
