#ifndef DOMD_COMMON_FLAGS_H_
#define DOMD_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

namespace domd {

/// `--key value` flags of domd, domd_serve and domd_router, keyed without
/// the dashes. Every read is checked: a malformed or out-of-range value
/// prints "error: --<key>: <why>" and exits 2, so `--port abc` never runs
/// as port 0.
using Flags = std::map<std::string, std::string>;

/// Collects the `--key value` pairs of argv[first..]. A trailing `--key`
/// with no value exits 2; tokens that do not start with `--` are ignored.
Flags ParseFlags(int argc, char** argv, int first);

/// The raw value of `key`, or `fallback` when absent.
std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback);

/// `key` parsed by ParseInt and within [min, max]; `fallback` if absent.
std::int64_t IntFlagIn(const Flags& flags, const std::string& key,
                       std::int64_t fallback, std::int64_t min,
                       std::int64_t max);

/// IntFlagIn over [min, max], by default T's range capped at int64's.
template <typename T>
T IntFlag(const Flags& flags, const std::string& key, T fallback,
          T min = std::numeric_limits<T>::min(),
          T max = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>);
  constexpr std::int64_t kTop = std::numeric_limits<std::int64_t>::max();
  return static_cast<T>(IntFlagIn(
      flags, key, static_cast<std::int64_t>(fallback),
      static_cast<std::int64_t>(min),
      std::cmp_greater(max, kTop) ? kTop : static_cast<std::int64_t>(max)));
}

/// `key` parsed by ParseDouble and finite; `fallback` when absent.
double DoubleFlag(const Flags& flags, const std::string& key,
                  double fallback);

/// Arms fault injection from --fault-spec or $DOMD_FAULT_SPEC, announcing
/// it on stderr as `program`. Returns 0 on success (or nothing to arm), 2
/// on a malformed spec or when fault support was compiled out.
int ArmFaults(const Flags& flags, const char* program);

}  // namespace domd

#endif  // DOMD_COMMON_FLAGS_H_
