#pragma once

// Solution vector with the BLAS-1 style operations needed by the Krylov and
// multigrid solvers. Templated on the scalar type: the outer conjugate
// gradient runs in double while the multigrid V-cycle runs in float
// (mixed-precision, paper Section 3.4); copy_and_convert() moves data across
// precisions.

#include <array>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/aligned_vector.h"
#include "common/exceptions.h"
#include "common/types.h"
#include "concurrency/thread_pool.h"

#ifndef DGFLOW_RESTRICT
#define DGFLOW_RESTRICT __restrict__
#endif

namespace dgflow
{
namespace internal
{
/// The deterministic blocking of every reduction over [0, n): the range is
/// cut into at most 64 contiguous chunks of whole 4096-scalar blocks,
/// chunk_sums(begin, end) returns the chunk's n_sums partial sums (each
/// accumulated sequentially in double), and the partials are summed in
/// ascending chunk order. The blocking depends only on n — never on the
/// thread count — so the sums are bitwise identical whether the chunks run
/// serially or on the pool. For n <= 4096 there is a single chunk,
/// chunk_sums(0, n). Elementwise writes made by chunk_sums ride the same
/// pass (solve_cg's fused sweeps).
template <std::size_t n_sums, typename ChunkSums>
inline std::array<double, n_sums> chunked_sums(const std::size_t n,
                                               ChunkSums &&chunk_sums)
{
  constexpr std::size_t block = 4096;
  const std::size_t n_blocks = (n + block - 1) / block;
  if (n_blocks <= 1)
    return chunk_sums(std::size_t(0), n);
  const std::size_t n_chunks = std::min<std::size_t>(64, n_blocks);
  std::array<double, n_sums> partials[64];
  concurrency::ThreadPool::instance().run_chunks(
    static_cast<unsigned int>(n_chunks), [&](const unsigned int c) {
      const std::size_t begin = (n_blocks * c) / n_chunks * block;
      const std::size_t end =
        std::min(n, (n_blocks * (c + 1)) / n_chunks * block);
      partials[c] = chunk_sums(begin, end);
    });
  std::array<double, n_sums> s{};
  for (std::size_t c = 0; c < n_chunks; ++c)
    for (std::size_t k = 0; k < n_sums; ++k)
      s[k] += partials[c][k];
  return s;
}

/// The sum of a_i b_i over [i0, i1), accumulated sequentially in double:
/// one chunk of a dot. An optimizing compiler may vectorize this in-order
/// sum — on x86 with FMA, GCC rounds the products, adds them lane by lane
/// and fuses multiply and add only in the scalar tail — so the rounding
/// depends on the loop's shape. Kept out of line with restrict parameters,
/// it compiles alike for every caller; solve_cg's fused sweeps share the
/// shape and so the bits (FusedLoops.SweepSumsMatchTheDotsAtEveryLength).
template <typename Number>
[[gnu::noinline]] std::array<double, 1>
dot_range(const Number *DGFLOW_RESTRICT a, const Number *DGFLOW_RESTRICT b,
          const std::size_t i0, const std::size_t i1)
{
  double s = 0;
  for (std::size_t i = i0; i < i1; ++i)
    s += double(a[i]) * double(b[i]);
  return {s};
}

/// Deterministically blocked dot product (chunked_sums): bitwise identical
/// at any thread count.
template <typename Number>
inline double chunked_dot(const Number *a, const Number *b, const std::size_t n)
{
  return chunked_sums<1>(n, [a, b](const std::size_t i0, const std::size_t i1) {
    return dot_range(a, b, i0, i1);
  })[0];
}

/// The elementwise BLAS-1 operations of Vector and vmpi::DistributedVector,
/// written once over the local range [0, size()) and run on the pool.
/// Derived provides data(), size() and invalidate_ghosts(), with which a
/// distributed vector marks its ghost section stale after every write.
template <typename Derived, typename Number>
class ElementwiseOps
{
public:
  /// this += a * x
  void add(const Number a, const Derived &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == self().size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = self().data();
    const Number *DGFLOW_RESTRICT xd = x.data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] += a * xd[i];
      });
    self().invalidate_ghosts();
  }

  /// this = s * this + a * x
  void sadd(const Number s, const Number a, const Derived &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == self().size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = self().data();
    const Number *DGFLOW_RESTRICT xd = x.data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = s * d[i] + a * xd[i];
      });
    self().invalidate_ghosts();
  }

  /// this = a * x
  void equ(const Number a, const Derived &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == self().size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = self().data();
    const Number *DGFLOW_RESTRICT xd = x.data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i];
      });
    self().invalidate_ghosts();
  }

  /// this = a * x + b * y
  void equ(const Number a, const Derived &x, const Number b, const Derived &y)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == self().size() && y.size() == self().size(),
                        "size mismatch");
    Number *DGFLOW_RESTRICT d = self().data();
    const Number *DGFLOW_RESTRICT xd = x.data();
    const Number *DGFLOW_RESTRICT yd = y.data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] = a * xd[i] + b * yd[i];
      });
    self().invalidate_ghosts();
  }

  void scale(const Number a)
  {
    Number *DGFLOW_RESTRICT d = self().data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= a;
      });
    self().invalidate_ghosts();
  }

  /// Pointwise multiply: this[i] *= x[i] (Jacobi preconditioning).
  void scale_pointwise(const Derived &x)
  {
    DGFLOW_DEBUG_ASSERT(x.size() == self().size(), "size mismatch");
    Number *DGFLOW_RESTRICT d = self().data();
    const Number *DGFLOW_RESTRICT xd = x.data();
    concurrency::ThreadPool::instance().parallel_for(
      self().size(), [&](const std::size_t i0, const std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i)
          d[i] *= xd[i];
      });
    self().invalidate_ghosts();
  }

private:
  Derived &self() { return static_cast<Derived &>(*this); }
};
} // namespace internal

template <typename Number>
class Vector : public internal::ElementwiseOps<Vector<Number>, Number>
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

  /// Cell-block layout shared with the distributed counterpart, so the
  /// matrix-free evaluators gather and scatter through one code path: the
  /// n_dofs scalars of @p cell start at cell * n_dofs, and every cell is
  /// owned.
  std::size_t local_dof_offset(const std::size_t cell,
                               const unsigned int n_dofs) const
  {
    return cell * n_dofs;
  }

  bool is_owned_element(const std::size_t) const { return true; }

  /// A serial vector has no ghost section (vector-space concept).
  void invalidate_ghosts() const {}

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

  /// Largest magnitude; NaN if any entry is NaN.
  Number linfty_norm() const
  {
    Number m = 0;
    for (std::size_t i = 0; i < size(); ++i)
      m = nan_max(m, std::abs(data_[i]));
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

/// dst_i = f(i, src_i) over the local range, on the pool: the vmult of a
/// pointwise preconditioner from its own map f = pointwise()
/// (PointwisePreconditionerFor).
template <typename VectorType, typename F>
void apply_pointwise(VectorType &dst, const VectorType &src, const F f)
{
  dst.reinit_like(src, true);
  auto *DGFLOW_RESTRICT d = dst.data();
  const auto *DGFLOW_RESTRICT s = src.data();
  concurrency::ThreadPool::instance().parallel_for(
    src.size(), [&](const std::size_t i0, const std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i)
        d[i] = f(i, s[i]);
    });
}

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
