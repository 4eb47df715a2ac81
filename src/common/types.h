#pragma once

// Fundamental index and size types used throughout dgflow.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#ifndef DGFLOW_RESTRICT
#define DGFLOW_RESTRICT __restrict__
#endif

// Forced inlining for the thin fixed-extent kernel wrappers: the whole point
// of passing extents as template arguments is constant propagation into the
// runtime kernel bodies, which requires the wrapper to actually inline.
#ifndef DGFLOW_ALWAYS_INLINE
#if defined(__GNUC__) || defined(__clang__)
#define DGFLOW_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define DGFLOW_ALWAYS_INLINE inline
#endif
#endif

namespace dgflow
{
/// Spatial dimension. The solver is specialized to 3D, matching the paper.
constexpr unsigned int dim = 3;

/// Index of a cell, face, or vertex within the local mesh.
using index_t = std::uint32_t;

/// Global degree-of-freedom index.
using gdof_t = std::uint64_t;

/// Marker for "no entity".
constexpr index_t invalid_index = std::numeric_limits<index_t>::max();
constexpr gdof_t invalid_gdof = std::numeric_limits<gdof_t>::max();

/// std::max / std::min that let a NaN operand through: equal to them on
/// ordered operands, NaN when either is NaN (std::max(m, NaN) returns m).
/// The max norms and the max/min reductions fold with these, so a NaN
/// anywhere reaches the result.
template <typename T>
inline T nan_max(const T a, const T b)
{
  return (a < b || std::isnan(b)) ? b : a;
}

template <typename T>
inline T nan_min(const T a, const T b)
{
  return (b < a || std::isnan(b)) ? b : a;
}

/// Returns v^e for small non-negative integer exponents (constexpr-friendly).
constexpr std::size_t pow_int(const std::size_t v, const unsigned int e)
{
  std::size_t r = 1;
  for (unsigned int i = 0; i < e; ++i)
    r *= v;
  return r;
}

} // namespace dgflow
