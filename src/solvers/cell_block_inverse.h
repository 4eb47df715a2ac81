#pragma once

// Block-Jacobi inner preconditioner of the Chebyshev smoother on the DG
// multigrid levels: the exact inverse of every cell's diagonal block of the
// operator, the matrix-free DG smoother of Muething, Piatkowski and Bastian
// (arXiv 1711.10885). Point Jacobi sees only the diagonal of a cell's
// couplings, which on sheared cells is far from the block; the block
// inverse captures all of them.
//
// probe_cell_blocks (matrixfree/operator_diagonal.h) gives the blocks.
// invert_cell_blocks inverts them in place: Gauss-Jordan elimination in
// double precision, VectorizedArray<double>::width cells per elimination (a
// cell's lane group is fixed by its index) on the pool, stored back in the
// level precision. CellBlockInverse applies them one cell at a time. A
// cell's arithmetic is thus the same at every pool width and on every rank,
// and the smoother keeps the bitwise contracts of the V-cycle.

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_vector.h"
#include "common/exceptions.h"
#include "common/vector.h"
#include "concurrency/thread_pool.h"
#include "simd/vectorized_array.h"

namespace dgflow
{
namespace internal
{
/// In-place Gauss-Jordan inversion of the n x n matrices in the lanes of
/// @p a (row-major; the inverse of the transpose is the transpose of the
/// inverse, so column-major input gives the column-major inverse). No
/// pivoting: the blocks of an SPD operator are SPD. A lane meeting a
/// non-finite or non-positive pivot is marked in @p failed; its values are
/// then meaningless, while the other lanes are unaffected.
inline void gauss_jordan_lanes(VectorizedArray<double> *a,
                               const unsigned int n, bool *failed)
{
  using VD = VectorizedArray<double>;
  for (unsigned int k = 0; k < n; ++k)
  {
    VD *DGFLOW_RESTRICT rk = a + std::size_t(k) * n;
    const VD pivot = rk[k];
    for (unsigned int l = 0; l < VD::width; ++l)
      if (!(pivot[l] > 0.) || !std::isfinite(pivot[l]))
        failed[l] = true;
    const VD inv = VD(1.) / pivot;
    rk[k] = VD(1.);
    for (unsigned int j = 0; j < n; ++j)
      rk[j] *= inv;
    for (unsigned int i = 0; i < n; ++i)
    {
      if (i == k)
        continue;
      VD *DGFLOW_RESTRICT ri = a + std::size_t(i) * n;
      const VD f = ri[k];
      ri[k] = VD(0.);
      for (unsigned int j = 0; j < n; ++j)
        ri[j] -= f * rk[j];
    }
  }
}
} // namespace internal

/// Inverts the n x n column-major cell blocks of @p blocks in place (see
/// the header comment). A cell whose elimination meets a non-finite or
/// non-positive pivot gets the inverse of its block's diagonal instead, an
/// unusable diagonal entry inverting to 1 as in DiagonalInverse. Returns
/// the number of such cells.
template <typename Number>
std::size_t invert_cell_blocks(Vector<Number> &blocks, const unsigned int n)
{
  using VD = VectorizedArray<double>;
  constexpr unsigned int W = VD::width;
  const std::size_t nn = std::size_t(n) * n;
  DGFLOW_ASSERT(n > 0 && blocks.size() % nn == 0,
                "blocks of " << n << " x " << n << " do not tile "
                             << blocks.size() << " entries");
  const std::size_t n_cells = blocks.size() / nn;
  const std::size_t n_groups = (n_cells + W - 1) / W;
  Number *data = blocks.data();

  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int n_chunks =
    pool.n_chunks_for(n_groups * nn * n, std::size_t(1) << 16);
  std::vector<std::size_t> failed_in_chunk(n_chunks, 0);
  pool.run_ranges(n_groups, n_chunks, [&](const unsigned int c,
                                          const std::size_t g0,
                                          const std::size_t g1) {
    AlignedVector<VD> a(nn);
    for (std::size_t g = g0; g < g1; ++g)
    {
      const std::size_t c0 = g * W;
      const unsigned int filled =
        static_cast<unsigned int>(std::min<std::size_t>(W, n_cells - c0));
      // lane l holds cell c0 + l; an empty lane inverts the identity
      for (std::size_t k = 0; k < nn; ++k)
        for (unsigned int l = 0; l < W; ++l)
          a[k][l] = l < filled ? double(data[(c0 + l) * nn + k])
                               : (k % (n + 1) == 0 ? 1. : 0.);
      bool failed[W] = {};
      internal::gauss_jordan_lanes(a.data(), n, failed);

      for (unsigned int l = 0; l < filled; ++l)
      {
        Number *out = data + (c0 + l) * nn;
        if (!failed[l])
        {
          for (std::size_t k = 0; k < nn; ++k)
            out[k] = Number(a[k][l]);
          continue;
        }
        ++failed_in_chunk[c];
        for (unsigned int i = 0; i < n; ++i)
        {
          const Number d = out[std::size_t(i) * (n + 1)];
          const bool usable = std::isfinite(double(d)) && d != Number(0);
          // column i holds the one diagonal entry (i, i), read above
          std::fill_n(out + std::size_t(i) * n, n, Number(0));
          out[std::size_t(i) * (n + 1)] = usable ? Number(1) / d : Number(1);
        }
      }
    }
  });
  std::size_t n_failed = 0;
  for (const std::size_t f : failed_in_chunk)
    n_failed += f;
  return n_failed;
}

/// Block-Jacobi inner preconditioner of ChebyshevSmoother: views the n x n
/// column-major inverse blocks of @p n_cells consecutive cells, owned
/// elsewhere (the multigrid level that inverted them), and applies them to
/// whole cells.
template <typename Number>
class CellBlockInverse
{
public:
  /// largest block applied: a scalar DG(8) cell (HybridMultigrid::setup
  /// rejects a higher degree before it probes anything)
  static constexpr unsigned int max_block_size = 729;

  CellBlockInverse() = default;

  CellBlockInverse(const Number *inverse_blocks, const unsigned int n,
                   const std::size_t n_cells, const std::size_t n_fallbacks)
    : inv_(inverse_blocks), n_(n), n_cells_(n_cells),
      n_fallbacks_(n_fallbacks)
  {
    DGFLOW_ASSERT(n > 0 && n <= max_block_size,
                  "cell block size " << n << " out of range");
  }

  unsigned int block_size() const { return n_; }
  std::size_t n_fallbacks() const { return n_fallbacks_; }
  void initialize_vector(Vector<Number> &v) const { v.reinit(n_cells_ * n_); }

  /// For every cell in [i0, i1) (whole cells): its n values load(i), the
  /// cell's inverse block applied to them into r, then done(i) on them.
  /// DG(1) and DG(2) cells, the pressure levels of every lung run, take the
  /// sweep compiled for their size, which keeps the cell's result in
  /// registers; any other size takes the runtime-size sweep.
  template <typename Load, typename Done>
  void apply(Number *r, const std::size_t i0, const std::size_t i1,
             Load &&load, Done &&done) const
  {
    if (n_ == 8)
      apply_cells<8>(r, i0, i1, load, done);
    else if (n_ == 27)
      apply_cells<27>(r, i0, i1, load, done);
    else
      apply_cells<0>(r, i0, i1, load, done);
  }

private:
  /// y = B^{-1} x per cell, accumulated column by column (j ascending), so
  /// every entry is a fixed-order sum whichever lanes the compiler packs;
  /// N > 0 fixes the block size at compile time.
  template <unsigned int N, typename Load, typename Done>
  void apply_cells(Number *r, const std::size_t i0, const std::size_t i1,
                   Load &load, Done &done) const
  {
    const unsigned int n = N > 0 ? N : n_;
    const std::size_t nn = std::size_t(n) * n;
    alignas(64) Number x[N > 0 ? N : max_block_size];
    alignas(64) Number y[N > 0 ? N : max_block_size];
    for (std::size_t i = i0; i < i1; i += n)
    {
      const Number *DGFLOW_RESTRICT inv = inv_ + (i / n) * nn;
      for (unsigned int k = 0; k < n; ++k)
        x[k] = load(i + k);
      for (unsigned int k = 0; k < n; ++k)
        y[k] = inv[k] * x[0];
      for (unsigned int j = 1; j < n; ++j)
      {
        const Number xj = x[j];
        const Number *DGFLOW_RESTRICT col = inv + std::size_t(j) * n;
        for (unsigned int k = 0; k < n; ++k)
          y[k] += col[k] * xj;
      }
      for (unsigned int k = 0; k < n; ++k)
        r[i + k] = y[k];
      for (unsigned int k = 0; k < n; ++k)
        done(i + k);
    }
  }

  const Number *inv_ = nullptr;
  unsigned int n_ = 1;
  std::size_t n_cells_ = 0;
  std::size_t n_fallbacks_ = 0;
};

} // namespace dgflow
