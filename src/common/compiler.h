#ifndef DOMD_COMMON_COMPILER_H_
#define DOMD_COMMON_COMPILER_H_

/// Silences one GCC warning from DOMD_GCC_IGNORE_BEGIN("-W...") to
/// DOMD_GCC_IGNORE_END, for GCC 12 libstdc++ false positives on inlined
/// std::string concatenation, one call site at a time. Other compilers
/// do not know those warning names, so it expands to nothing there.
#if defined(__GNUC__) && !defined(__clang__)
#define DOMD_PRAGMA(x) _Pragma(#x)
#define DOMD_GCC_IGNORE_BEGIN(warning) \
  _Pragma("GCC diagnostic push") DOMD_PRAGMA(GCC diagnostic ignored warning)
#define DOMD_GCC_IGNORE_END _Pragma("GCC diagnostic pop")
#else
#define DOMD_GCC_IGNORE_BEGIN(warning)
#define DOMD_GCC_IGNORE_END
#endif

#endif  // DOMD_COMMON_COMPILER_H_
