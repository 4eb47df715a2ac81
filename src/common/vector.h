#pragma once

// Solution vector with the BLAS-1 style operations needed by the Krylov and
// multigrid solvers. Templated on the scalar type: the outer conjugate
// gradient runs in double while the multigrid V-cycle runs in float
// (mixed-precision, paper Section 3.4); copy_and_convert() moves data across
// precisions.

#include <cmath>
#include <type_traits>
#include <utility>

#include "common/aligned_vector.h"
#include "common/exceptions.h"
#include "concurrency/thread_pool.h"

#ifndef DGFLOW_RESTRICT
#define DGFLOW_RESTRICT __restrict__
#endif

namespace dgflow
{
namespace internal
{
/// Deterministically blocked dot product: the vector is cut into at most 64
/// contiguous chunks of whole 4096-scalar blocks, each chunk accumulates
/// sequentially in double, and the partials are summed in ascending chunk
/// order. The blocking depends only on n — never on the thread count — so
/// the result is bitwise identical whether the chunks run serially or on the
/// pool. For n <= 4096 there is a single chunk and the result coincides with
/// the plain sequential sweep this replaces.
template <typename Number>
inline double chunked_dot(const Number *DGFLOW_RESTRICT a,
                          const Number *DGFLOW_RESTRICT b, const std::size_t n)
{
  constexpr std::size_t block = 4096;
  const std::size_t n_blocks = (n + block - 1) / block;
  if (n_blocks <= 1)
  {
    double s = 0;
    for (std::size_t i = 0; i < n; ++i)
      s += double(a[i]) * double(b[i]);
    return s;
  }
  const std::size_t n_chunks = std::min<std::size_t>(64, n_blocks);
  double partials[64];
  concurrency::ThreadPool::instance().run_chunks(
    static_cast<unsigned int>(n_chunks), [&](const unsigned int c) {
      const std::size_t begin = (n_blocks * c) / n_chunks * block;
      const std::size_t end =
        std::min(n, (n_blocks * (c + 1)) / n_chunks * block);
      double s = 0;
      for (std::size_t i = begin; i < end; ++i)
        s += double(a[i]) * double(b[i]);
      partials[c] = s;
    });
  double s = 0;
  for (std::size_t c = 0; c < n_chunks; ++c)
    s += partials[c];
  return s;
}
} // namespace internal

template <typename Number>
class Vector
{
public:
  using value_type = Number;

  Vector() = default;
  explicit Vector(const std::size_t n) { reinit(n); }
  Vector(const Vector &) = default;
  Vector(Vector &&) noexcept = default;
  Vector &operator=(Vector &&) noexcept = default;

  /// Copies @p x into this vector's storage (reallocating only when it is
  /// too small); the copy runs on the pool.
  Vector &operator=(const Vector &x)
  {
    if (this == &x)
      return *this;
    data_.resize_without_init(x.size());
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = xd[i];
      });
    return *this;
  }

  void reinit(const std::size_t n, const bool fast = false)
  {
    data_.resize_without_init(n);
    if (!fast)
      *this = Number(0);
  }

  /// Mirror another vector's layout (part of the vector-space concept the
  /// solvers are templated on: the distributed counterpart copies partition
  /// and ghost layout, a serial vector just the size).
  void reinit_like(const Vector &other, const bool fast = false)
  {
    reinit(other.size(), fast);
  }

  std::size_t size() const { return data_.size(); }

  /// Global index of local element 0 — always 0 for a serial vector; the
  /// distributed counterpart returns its owned-range offset. Lets code that
  /// needs globally reproducible index-dependent data (the Chebyshev
  /// eigenvalue seed) behave identically on both vector types.
  std::size_t first_local_index() const { return 0; }

  Number &operator()(const std::size_t i) { return data_[i]; }
  Number operator()(const std::size_t i) const { return data_[i]; }
  Number &operator[](const std::size_t i) { return data_[i]; }
  Number operator[](const std::size_t i) const { return data_[i]; }

  Number *data() { return data_.data(); }
  const Number *data() const { return data_.data(); }

  /// Sets every entry to @p s (the operators' dst = 0); runs on the pool.
  void operator=(const Number s)
  {
    Number *DGFLOW_RESTRICT d = data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = s;
      });
  }

  /// this += a * x
  void add(const Number a, const Vector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] += a * xd[i];
      });
  }

  /// this = s * this + a * x
  void sadd(const Number s, const Number a, const Vector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = s * d[i] + a * xd[i];
      });
  }

  /// this = a * x
  void equ(const Number a, const Vector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i];
      });
  }

  /// this = a * x + b * y
  void equ(const Number a, const Vector &x, const Number b, const Vector &y)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size() && y.size() == size(),
                        "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    const Number *DGFLOW_RESTRICT yd = y.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i] + b * yd[i];
      });
  }

  void scale(const Number a)
  {
    Number *DGFLOW_RESTRICT d = data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= a;
      });
  }

  /// Pointwise multiply: this[i] *= x[i] (Jacobi preconditioning).
  void scale_pointwise(const Vector &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = data_.data();
    const Number *DGFLOW_RESTRICT xd = x.data_.data();
    concurrency::ThreadPool::instance().parallel_for(
      size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= xd[i];
      });
  }

  Number dot(const Vector &x) const
  {
    DGFLOW_DEBUG_ASSERT(x.size() == size(), "size mismatch");
    // Accumulate in double regardless of storage precision (keeps the CG
    // orthogonality usable when Number = float) with the deterministically
    // blocked reduction: bitwise identical at any thread count.
    return Number(internal::chunked_dot(data_.data(), x.data_.data(), size()));
  }

  Number norm_sqr() const { return dot(*this); }

  Number l2_norm() const { return std::sqrt(dot(*this)); }

  Number linfty_norm() const
  {
    Number m = 0;
    for (std::size_t i = 0; i < size(); ++i)
      m = std::max(m, std::abs(data_[i]));
    return m;
  }

  /// Convert-copy from a vector of another precision.
  template <typename Number2>
  void copy_and_convert(const Vector<Number2> &x)
  {
    data_.resize_without_init(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      data_[i] = Number(x[i]);
  }

  void swap(Vector &other) { std::swap(data_, other.data_); }

  std::size_t memory_consumption() const
  {
    return data_.memory_consumption();
  }

private:
  AlignedVector<Number> data_;
};

/// Detects vectors with distributed-memory ghost machinery (the vmpi
/// DistributedVector) without this header knowing the type: any vector
/// exposing update_ghost_values_start() qualifies. Solvers and operators
/// branch on it with if constexpr, which keeps vmpi out of the serial
/// build's dependencies.
template <typename VectorType, typename = void>
struct is_distributed_vector : std::false_type
{
};

template <typename VectorType>
struct is_distributed_vector<
  VectorType,
  std::void_t<decltype(std::declval<VectorType &>().update_ghost_values_start())>>
  : std::true_type
{
};

template <typename VectorType>
inline constexpr bool is_distributed_vector_v =
  is_distributed_vector<VectorType>::value;

} // namespace dgflow
