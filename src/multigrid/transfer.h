#pragma once

// Level-transfer operators of the hybrid multigrid hierarchy (paper Fig. 5):
//  - polynomial coarsening between DG spaces on the same mesh (matrix-free,
//    tensorized 1D nodal interpolation, restriction = transpose),
//  - DG(1) <-> continuous Q1 on the same mesh ("c-transfer"),
//  - continuous Q1 between globally coarsened meshes ("h-transfer").
// The latter two are precomputed sparse operators including hanging-node
// constraint expansion; Dirichlet rows/columns are zeroed so level
// corrections never touch constrained boundary values.

#include <algorithm>

#include "amg/sparse_matrix.h"
#include "concurrency/thread_pool.h"
#include "fem/polynomial.h"
#include "matrixfree/matrix_free.h"
#include "operators/cfe_space.h"

namespace dgflow
{
/// Matrix-free polynomial transfer between two DG spaces on one mesh:
/// tensorized 1D nodal interpolation per cell, restriction = transpose. It
/// runs over a range of consecutive cells whose dense per-cell dof blocks
/// the pointers address: all cells of a serial level vector, or the owned
/// cells of a DistributedVector. The transfer is cell-local, so a range
/// needs no communication, and the worker pool sweeps it in contiguous
/// chunks of cells. Each chunk has its own pair of sweep buffers, one per
/// thread of the pool width at construction (like MatrixFree's thread
/// partition, which is fixed at reinit), so a sweep allocates nothing.
template <typename Number>
class DGPTransfer
{
public:
  DGPTransfer(const MatrixFree<Number> &mf, const unsigned int space_fine,
              const unsigned int space_coarse)
    : nf_(mf.degree(space_fine) + 1), nc_(mf.degree(space_coarse) + 1),
      n_slots_(concurrency::ThreadPool::instance().n_threads())
  {
    const unsigned int mx = std::max(nf_, nc_);
    slot_size_ = mx * mx * mx;
    scratch_.resize(2 * slot_size_ * n_slots_);
    // 1D nodal interpolation: coarse basis evaluated at fine nodes
    const std::vector<double> nodes_f = gauss_quadrature(nf_).points;
    const LagrangeBasis basis_c(gauss_quadrature(nc_).points);
    P1d_.resize(nf_ * nc_);
    for (unsigned int i = 0; i < nf_; ++i)
      for (unsigned int j = 0; j < nc_; ++j)
        P1d_[i * nc_ + j] = Number(basis_c.value(j, nodes_f[i]));
  }

  /// coarse -> fine (overwrite) on n_cells consecutive cells.
  void prolongate_cells(Number *fine, const Number *coarse,
                        const index_t n_cells) const
  {
    const std::size_t npc_f = nf_ * nf_ * nf_, npc_c = nc_ * nc_ * nc_;
    for_cell_ranges(n_cells, [&](Number *t1, Number *t2, const index_t c) {
      const Number *src = coarse + c * npc_c;
      Number *dst = fine + c * npc_f;
      apply_matrix_1d<false, false>(P1d_.data(), nf_, nc_, src, t1, 0,
                                    {{nc_, nc_, nc_}});
      apply_matrix_1d<false, false>(P1d_.data(), nf_, nc_, t1, t2, 1,
                                    {{nf_, nc_, nc_}});
      apply_matrix_1d<false, false>(P1d_.data(), nf_, nc_, t2, dst, 2,
                                    {{nf_, nf_, nc_}});
    });
  }

  /// fine -> coarse (overwrite) on n_cells consecutive cells, the
  /// transpose of prolongate_cells.
  void restrict_cells(Number *coarse, const Number *fine,
                      const index_t n_cells) const
  {
    const std::size_t npc_f = nf_ * nf_ * nf_, npc_c = nc_ * nc_ * nc_;
    for_cell_ranges(n_cells, [&](Number *t1, Number *t2, const index_t c) {
      const Number *src = fine + c * npc_f;
      Number *dst = coarse + c * npc_c;
      apply_matrix_1d<true, false>(P1d_.data(), nf_, nc_, src, t1, 2,
                                   {{nf_, nf_, nf_}});
      apply_matrix_1d<true, false>(P1d_.data(), nf_, nc_, t1, t2, 1,
                                   {{nf_, nf_, nc_}});
      apply_matrix_1d<true, false>(P1d_.data(), nf_, nc_, t2, dst, 0,
                                   {{nf_, nc_, nc_}});
    });
  }

private:
  /// Runs cell(t1, t2, c) for every c in [0, n_cells), on the pool in
  /// contiguous chunks of at least cells_per_chunk cells; t1 and t2 are
  /// the chunk's sweep buffers.
  template <typename CellFn>
  void for_cell_ranges(const index_t n_cells, CellFn &&cell) const
  {
    constexpr std::size_t cells_per_chunk = 16;
    auto &pool = concurrency::ThreadPool::instance();
    pool.run_ranges(
      n_cells,
      std::min(n_slots_, pool.n_chunks_for(n_cells, cells_per_chunk)),
      [&](const unsigned int chunk, const std::size_t begin,
          const std::size_t end) {
        Number *t1 = scratch_.data() + 2 * std::size_t(chunk) * slot_size_;
        Number *t2 = t1 + slot_size_;
        for (std::size_t c = begin; c < end; ++c)
          cell(t1, t2, static_cast<index_t>(c));
      });
  }

  unsigned int nf_, nc_;
  unsigned int n_slots_;
  std::size_t slot_size_;
  std::vector<Number> P1d_;
  mutable std::vector<Number> scratch_;
};

/// Sparse transfer in the level precision, built from a double CSR
/// prolongation matrix (rows = fine dofs, columns = coarse dofs). It runs
/// over a contiguous range [row_begin, row_end) of fine rows against the
/// full coarse vector: all rows of a serial level, or, on the DG side of
/// the distributed c-transfer, the rows of this rank's cells (DG(1) dofs
/// are cell-local, so the owned cells are one contiguous row range) with a
/// replicated coarse vector. fine_rows points at row row_begin. Both
/// directions run on the worker pool: prolongation over ranges of fine
/// rows, restriction as a gather over ranges of coarse rows of the
/// transpose, which the constructor stores.
template <typename Number>
class SparseTransfer
{
public:
  SparseTransfer() = default;

  explicit SparseTransfer(const SparseMatrix &P)
  {
    const std::size_t nr = P.n_rows(), nc = P.n_cols(), nnz = P.n_nonzeros();
    row_ptr_.assign(P.row_ptr(), P.row_ptr() + nr + 1);
    col_idx_.assign(P.col_idx(), P.col_idx() + nnz);
    values_.resize(nnz);
    for (std::size_t i = 0; i < values_.size(); ++i)
      values_[i] = Number(P.values()[i]);

    // transpose by a stable counting sort on the column: within a coarse
    // row the fine rows ascend, in the order the entries are stored
    t_row_ptr_.assign(nc + 1, 0);
    for (std::size_t k = 0; k < nnz; ++k)
      ++t_row_ptr_[col_idx_[k] + 1];
    for (std::size_t c = 0; c < nc; ++c)
      t_row_ptr_[c + 1] += t_row_ptr_[c];
    t_fine_row_.resize(nnz);
    t_values_.resize(nnz);
    std::vector<std::size_t> fill(t_row_ptr_.begin(), t_row_ptr_.end() - 1);
    for (std::size_t r = 0; r < nr; ++r)
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      {
        const std::size_t pos = fill[col_idx_[k]]++;
        t_fine_row_[pos] = r;
        t_values_[pos] = values_[k];
      }
  }

  /// coarse -> fine (overwrite) on the rows [row_begin, row_end).
  void prolongate_rows(Number *fine_rows, const Vector<Number> &coarse,
                       const std::size_t row_begin,
                       const std::size_t row_end) const
  {
    const std::size_t n = row_end - row_begin;
    auto &pool = concurrency::ThreadPool::instance();
    pool.run_ranges(
      n, pool.n_chunks_for(n, rows_per_chunk),
      [&](unsigned int, const std::size_t begin, const std::size_t end) {
        for (std::size_t r = row_begin + begin; r < row_begin + end; ++r)
        {
          Number sum = 0;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            sum += values_[k] * coarse[col_idx_[k]];
          fine_rows[r - row_begin] = sum;
        }
      });
  }

  /// fine -> coarse, the transpose: accumulates the contributions of the
  /// rows [row_begin, row_end) into the caller-zeroed coarse vector (a
  /// distributed caller then sums it over the ranks). Each coarse entry
  /// adds its products in ascending fine-row order, skipping zero fine
  /// values, so the result is the one of a row-by-row scatter.
  void restrict_rows(Vector<Number> &coarse, const Number *fine_rows,
                     const std::size_t row_begin,
                     const std::size_t row_end) const
  {
    const std::size_t n = t_row_ptr_.empty() ? 0 : t_row_ptr_.size() - 1;
    auto &pool = concurrency::ThreadPool::instance();
    pool.run_ranges(
      n, pool.n_chunks_for(n, rows_per_chunk),
      [&](unsigned int, const std::size_t begin, const std::size_t end) {
        const std::size_t *rows = t_fine_row_.data();
        for (std::size_t c = begin; c < end; ++c)
        {
          const std::size_t k_end = t_row_ptr_[c + 1];
          Number sum = coarse[c];
          for (std::size_t k = std::lower_bound(rows + t_row_ptr_[c],
                                                rows + k_end, row_begin) -
                               rows;
               k < k_end && rows[k] < row_end; ++k)
          {
            const Number v = fine_rows[rows[k] - row_begin];
            if (v != Number(0))
              sum += t_values_[k] * v;
          }
          coarse[c] = sum;
        }
      });
  }

private:
  static constexpr std::size_t rows_per_chunk = 64;

  std::vector<std::size_t> row_ptr_, col_idx_;
  std::vector<Number> values_;
  // the transpose: per coarse row, the fine rows and values in ascending
  // fine-row order
  std::vector<std::size_t> t_row_ptr_, t_fine_row_;
  std::vector<Number> t_values_;
};

/// Builds the c-transfer: prolongation from the continuous Q1 space to the
/// DG(1) space on the same mesh (rows = DG dofs, 8 per cell at Gauss nodes).
inline SparseMatrix build_c_transfer(const Mesh &mesh, const CFESpace &cfe)
{
  DGFLOW_ASSERT(cfe.degree == 1, "c-transfer targets the Q1 space");
  // Q1 basis {1-x, x} evaluated at the two Gauss nodes of the DG(1) space
  const double g0 = gauss_quadrature(2).points[0];
  const double node_x[2] = {g0, 1. - g0};
  std::vector<SparseMatrix::Triplet> t;
  const index_t n_cells = mesh.n_active_cells();
  for (index_t c = 0; c < n_cells; ++c)
    for (unsigned int node = 0; node < 8; ++node)
    {
      const std::size_t row = 8 * std::size_t(c) + node;
      const double x = node_x[node & 1], y = node_x[(node >> 1) & 1],
                   z = node_x[(node >> 2) & 1];
      for (unsigned int corner = 0; corner < 8; ++corner)
      {
        const double wx = (corner & 1) ? x : 1. - x;
        const double wy = ((corner >> 1) & 1) ? y : 1. - y;
        const double wz = ((corner >> 2) & 1) ? z : 1. - z;
        const double w = wx * wy * wz;
        if (w == 0)
          continue;
        const std::uint32_t e =
          cfe.cell_entries[8 * std::size_t(c) + corner];
        if (CFESpace::is_constrained(e))
        {
          for (const auto &ce : cfe.constraints[e & ~CFESpace::constraint_bit])
            if (!cfe.dirichlet[ce.dof])
              t.push_back({row, ce.dof, w * ce.weight});
        }
        else if (!cfe.dirichlet[e])
          t.push_back({row, e, w});
      }
    }
  return SparseMatrix::from_triplets(8 * std::size_t(n_cells), cfe.n_dofs,
                                     std::move(t));
}

/// Builds the h-transfer: prolongation from the Q1 space on the coarsened
/// mesh to the Q1 space on the fine mesh (global coarsening, one level).
inline SparseMatrix build_h_transfer(const Mesh &fine_mesh,
                                     const CFESpace &fine,
                                     const Mesh &coarse_mesh,
                                     const CFESpace &coarse)
{
  std::vector<SparseMatrix::Triplet> t;
  std::vector<char> row_done(fine.n_dofs, 0);

  auto add_coarse_entry = [&](const std::size_t row, const std::uint32_t e,
                              const double w) {
    if (w == 0.)
      return;
    if (CFESpace::is_constrained(e))
    {
      for (const auto &ce : coarse.constraints[e & ~CFESpace::constraint_bit])
        if (!coarse.dirichlet[ce.dof])
          t.push_back({row, ce.dof, w * ce.weight});
    }
    else if (!coarse.dirichlet[e])
      t.push_back({row, e, w});
  };

  for (index_t c = 0; c < fine_mesh.n_active_cells(); ++c)
  {
    const TreeCoord &tc = fine_mesh.cell(c);
    // the coarse mesh contains either the same cell or the parent
    index_t coarse_cell =
      coarse_mesh.find_cell(tc.tree, tc.level, {{tc.x, tc.y, tc.z}});
    bool is_parent = false;
    if (coarse_cell == invalid_index && tc.level > 0)
    {
      coarse_cell = coarse_mesh.find_cell(
        tc.tree, tc.level - 1, {{tc.x >> 1, tc.y >> 1, tc.z >> 1}});
      is_parent = true;
    }
    DGFLOW_ASSERT(coarse_cell != invalid_index,
                  "no coarse cell found for fine cell " << c);

    for (unsigned int v = 0; v < 8; ++v)
    {
      const std::uint32_t fe = fine.cell_entries[8 * std::size_t(c) + v];
      if (CFESpace::is_constrained(fe))
        continue; // constrained fine vertices are interpolated on the fly
      const std::size_t row = fe;
      if (row_done[row] || fine.dirichlet[row])
      {
        row_done[row] = 1;
        continue;
      }
      row_done[row] = 1;

      if (!is_parent)
      {
        add_coarse_entry(row, coarse.cell_entries[8 * std::size_t(coarse_cell) + v],
                         1.);
        continue;
      }
      // position of the fine vertex within the parent cell, in halves
      const unsigned int px = (tc.x & 1) + (v & 1);
      const unsigned int py = (tc.y & 1) + ((v >> 1) & 1);
      const unsigned int pz = (tc.z & 1) + ((v >> 2) & 1);
      for (unsigned int corner = 0; corner < 8; ++corner)
      {
        const double wx = (corner & 1) ? px / 2. : 1. - px / 2.;
        const double wy = ((corner >> 1) & 1) ? py / 2. : 1. - py / 2.;
        const double wz = ((corner >> 2) & 1) ? pz / 2. : 1. - pz / 2.;
        add_coarse_entry(
          row, coarse.cell_entries[8 * std::size_t(coarse_cell) + corner],
          wx * wy * wz);
      }
    }
  }
  return SparseMatrix::from_triplets(fine.n_dofs, coarse.n_dofs, std::move(t));
}

} // namespace dgflow
