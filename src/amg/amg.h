#pragma once

// Smoothed-aggregation algebraic multigrid: the coarse-level solver below
// the geometric/polynomial hierarchy of the hybrid multigrid scheme (the
// role BoomerAMG plays in the paper, Section 3.4). One V-cycle with a single
// symmetric Gauss-Seidel sweep per level, run in double precision, matching
// the paper's configuration of the coarse solve.

#include <utility>
#include <vector>

#include "amg/sparse_matrix.h"

namespace dgflow
{
class AMG
{
public:
  struct Options
  {
    std::size_t max_coarse_size = 200;
  };

  void setup(SparseMatrix A, const Options &options);
  void setup(SparseMatrix A) { setup(std::move(A), Options()); }

  /// Applies one V-cycle (single symmetric Gauss-Seidel sweep per level)
  /// with zero initial guess: the preconditioner interface.
  void vmult(Vector<double> &dst, const Vector<double> &src) const;

  /// One V-cycle improving the passed iterate.
  void vcycle(Vector<double> &x, const Vector<double> &b) const;

  /// Stationary solve by repeated V-cycles (coarse problems only).
  unsigned int solve(Vector<double> &x, const Vector<double> &b,
                     const double rel_tol, const unsigned int max_cycles) const;

  unsigned int n_levels() const { return levels_.size(); }
  std::size_t level_size(const unsigned int l) const
  {
    return levels_[l].A.n_rows();
  }

  /// ABFT support: appends {pointer, bytes} pairs covering every setup-time
  /// value array of the hierarchy — the A/P/R values of each level and the
  /// coarse dense LU factors — so the resilience layer can checksum and
  /// scrub them. The work vectors (x, b, r) are transient and excluded.
  void collect_value_regions(
      std::vector<std::pair<const void *, std::size_t>> &regions) const
  {
    for (const Level &level : levels_)
    {
      regions.emplace_back(level.A.values(),
                           level.A.n_nonzeros() * sizeof(double));
      regions.emplace_back(level.P.values(),
                           level.P.n_nonzeros() * sizeof(double));
      regions.emplace_back(level.R.values(),
                           level.R.n_nonzeros() * sizeof(double));
    }
    regions.emplace_back(lu_.data(), lu_.size() * sizeof(double));
  }

  /// Mutable access to level l's system-matrix values: ABFT fault-injection
  /// tests flip a bit here to emulate corruption of a setup artifact.
  double *level_values(const unsigned int l) { return levels_[l].A.values(); }
  std::size_t level_nnz(const unsigned int l) const
  {
    return levels_[l].A.n_nonzeros();
  }

private:
  struct Level
  {
    SparseMatrix A;
    SparseMatrix P; ///< prolongation from the next coarser level
    SparseMatrix R; ///< restriction (P^T)
    mutable Vector<double> x, b, r;
  };

  void vcycle_level(const unsigned int l, Vector<double> &x,
                    const Vector<double> &b) const;

  /// Greedy aggregation on the strength graph; returns the aggregate id of
  /// each node and the number of aggregates.
  static std::size_t aggregate(const SparseMatrix &A, const double theta,
                               std::vector<std::size_t> &agg_of_node);

  std::vector<Level> levels_;

  // dense LU factorization of the coarsest matrix (with partial pivoting)
  std::vector<double> lu_;
  std::vector<std::size_t> lu_perm_;
  std::size_t lu_n_ = 0;
  void factorize_coarsest(const SparseMatrix &A);
  void solve_coarsest(Vector<double> &x, const Vector<double> &b) const;
};

} // namespace dgflow
