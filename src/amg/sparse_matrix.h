#pragma once

// Compressed-sparse-row matrix with the operations the algebraic multigrid
// coarse solver needs: SpMV, transpose, sparse matrix-matrix products, and
// Gauss-Seidel sweeps. Also used to store the multigrid transfer operators
// between the continuous coarse spaces.

#include <cstddef>
#include <vector>

#include "common/vector.h"

namespace dgflow
{
class SparseMatrix
{
public:
  struct Triplet
  {
    std::size_t row, col;
    double value;
  };

  SparseMatrix() = default;

  /// Builds from (row, col, value) triplets; duplicate entries are summed.
  static SparseMatrix from_triplets(const std::size_t n_rows,
                                    const std::size_t n_cols,
                                    std::vector<Triplet> triplets);

  std::size_t n_rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t n_cols() const { return n_cols_; }
  std::size_t n_nonzeros() const { return values_.size(); }

  void vmult(Vector<double> &dst, const Vector<double> &src) const;
  void vmult_add(Vector<double> &dst, const Vector<double> &src) const;

  SparseMatrix transpose() const;

  static SparseMatrix multiply(const SparseMatrix &A, const SparseMatrix &B);

  Vector<double> diagonal() const;

  /// One forward Gauss-Seidel sweep on A x = b.
  void gauss_seidel_forward(Vector<double> &x, const Vector<double> &b) const;
  /// One backward sweep.
  void gauss_seidel_backward(Vector<double> &x, const Vector<double> &b) const;

  /// Row access for setup algorithms.
  const std::size_t *row_ptr() const { return row_ptr_.data(); }
  const std::size_t *col_idx() const { return col_idx_.data(); }
  const double *values() const { return values_.data(); }
  double *values() { return values_.data(); }

  std::size_t memory_consumption() const
  {
    return values_.size() * (sizeof(double) + sizeof(std::size_t)) +
           row_ptr_.size() * sizeof(std::size_t);
  }

private:
  std::size_t n_cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

} // namespace dgflow
