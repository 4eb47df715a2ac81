#pragma once

// Strict parsing of the numeric environment variables the library reads
// (DGFLOW_VMPI_TIMEOUT, DGFLOW_THREADS). A typo'd value silently parsed to 0
// (the atof/atoi behavior) would turn the vmpi deadline into "wait forever"
// and a pool width into a value nobody asked for. These helpers therefore
// fail fast: a set-but-malformed or out-of-range value throws EnvVarError
// with a message naming the variable, the offending value and the accepted
// range. Unset variables return the fallback as before.

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace dgflow
{
/// A set environment variable failed to parse or lies outside its accepted
/// range; the message names the variable.
class EnvVarError : public std::runtime_error
{
public:
  using std::runtime_error::runtime_error;
};

namespace internal
{
[[noreturn]] inline void env_var_failure(const char *name, const char *value,
                                         const char *expected)
{
  std::ostringstream ss;
  ss << "invalid value '" << value << "' for environment variable " << name
     << ": expected " << expected;
  throw EnvVarError(ss.str());
}
} // namespace internal

/// Parses @p name as a real number in [lo, hi]; unset returns @p fallback,
/// malformed/out-of-range throws EnvVarError naming the variable.
inline double env_real(const char *name, const double fallback,
                       const double lo, const double hi)
{
  const char *v = std::getenv(name);
  if (!v)
    return fallback;
  errno = 0;
  char *end = nullptr;
  const double parsed = std::strtod(v, &end);
  std::ostringstream expected;
  expected << "a real number in [" << lo << ", " << hi << "]";
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(parsed) ||
      parsed < lo || parsed > hi)
    internal::env_var_failure(name, v, expected.str().c_str());
  return parsed;
}

/// Parses @p name as an integer in [lo, hi]; unset returns @p fallback,
/// malformed/out-of-range throws EnvVarError naming the variable.
inline long long env_integer(const char *name, const long long fallback,
                             const long long lo, const long long hi)
{
  const char *v = std::getenv(name);
  if (!v)
    return fallback;
  errno = 0;
  char *end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  std::ostringstream expected;
  expected << "an integer in [" << lo << ", " << hi << "]";
  if (end == v || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi)
    internal::env_var_failure(name, v, expected.str().c_str());
  return parsed;
}

} // namespace dgflow
