#include "amg/amg.h"

#include <cmath>
#include <random>

#include "common/exceptions.h"

namespace dgflow
{
std::size_t AMG::aggregate(const SparseMatrix &A, const double theta,
                           std::vector<std::size_t> &agg_of_node)
{
  const std::size_t n = A.n_rows();
  const Vector<double> diag = A.diagonal();
  constexpr std::size_t unassigned = static_cast<std::size_t>(-1);
  agg_of_node.assign(n, unassigned);

  auto strong_neighbors = [&](const std::size_t i, auto &&callback) {
    for (std::size_t k = A.row_ptr()[i]; k < A.row_ptr()[i + 1]; ++k)
    {
      const std::size_t j = A.col_idx()[k];
      if (j == i)
        continue;
      const double aij = A.values()[k];
      if (std::abs(aij) >= theta * std::sqrt(std::abs(diag[i] * diag[j])))
        callback(j);
    }
  };

  std::size_t n_aggregates = 0;

  // pass 1: seed aggregates from nodes whose strong neighborhood is free
  for (std::size_t i = 0; i < n; ++i)
  {
    if (agg_of_node[i] != unassigned)
      continue;
    bool free = true;
    strong_neighbors(i, [&](const std::size_t j) {
      if (agg_of_node[j] != unassigned)
        free = false;
    });
    if (!free)
      continue;
    const std::size_t a = n_aggregates++;
    agg_of_node[i] = a;
    strong_neighbors(i, [&](const std::size_t j) { agg_of_node[j] = a; });
  }

  // pass 2: attach remaining nodes to a neighboring aggregate
  for (std::size_t i = 0; i < n; ++i)
  {
    if (agg_of_node[i] != unassigned)
      continue;
    std::size_t target = unassigned;
    strong_neighbors(i, [&](const std::size_t j) {
      if (target == unassigned && agg_of_node[j] != unassigned)
        target = agg_of_node[j];
    });
    if (target != unassigned)
      agg_of_node[i] = target;
  }

  // pass 3: leftovers become singletons
  for (std::size_t i = 0; i < n; ++i)
    if (agg_of_node[i] == unassigned)
      agg_of_node[i] = n_aggregates++;

  return n_aggregates;
}

void AMG::setup(SparseMatrix A, const Options &options)
{
  constexpr double strength_threshold = 0.02; // relative strength of connection
  constexpr unsigned int max_levels = 20;
  constexpr double prolongator_omega_factor = 4. / 3.; // omega * lambda_max
  levels_.clear();

  levels_.push_back(Level{std::move(A), {}, {}, {}, {}, {}});

  while (levels_.back().A.n_rows() > options.max_coarse_size &&
         levels_.size() < max_levels)
  {
    const SparseMatrix &Af = levels_.back().A;

    std::vector<std::size_t> agg;
    const std::size_t n_agg = aggregate(Af, strength_threshold, agg);
    if (n_agg >= Af.n_rows())
      break; // no coarsening progress possible

    // tentative piecewise-constant prolongator
    std::vector<SparseMatrix::Triplet> t;
    t.reserve(Af.n_rows());
    for (std::size_t i = 0; i < Af.n_rows(); ++i)
      t.push_back({i, agg[i], 1.});
    const SparseMatrix T =
      SparseMatrix::from_triplets(Af.n_rows(), n_agg, std::move(t));

    // prolongator smoothing: P = (I - omega D^{-1} A) T
    const Vector<double> diag = Af.diagonal();
    double lambda = 1.;
    {
      // power iteration on D^{-1} A
      const std::size_t n = Af.n_rows();
      Vector<double> v(n), w(n);
      std::mt19937 rng(7);
      std::uniform_real_distribution<double> dist(-1., 1.);
      for (std::size_t i = 0; i < n; ++i)
        v[i] = dist(rng);
      v.scale(1. / double(v.l2_norm()));
      for (unsigned int it = 0; it < 15; ++it)
      {
        Af.vmult(w, v);
        for (std::size_t i = 0; i < n; ++i)
          w[i] /= diag[i];
        lambda = double(w.l2_norm());
        w.scale(1. / lambda);
        v.swap(w);
      }
    }
    const double omega = prolongator_omega_factor / lambda;

    // DinvA_T = D^{-1} A T, then P = T - omega * DinvA_T
    SparseMatrix AT = SparseMatrix::multiply(Af, T);
    {
      // scale rows by omega / diag and subtract from T via triplets
      std::vector<SparseMatrix::Triplet> pt;
      pt.reserve(AT.n_nonzeros() + Af.n_rows());
      for (std::size_t r = 0; r < AT.n_rows(); ++r)
        for (std::size_t k = AT.row_ptr()[r]; k < AT.row_ptr()[r + 1]; ++k)
          pt.push_back(
            {r, AT.col_idx()[k], -omega / diag[r] * AT.values()[k]});
      for (std::size_t i = 0; i < Af.n_rows(); ++i)
        pt.push_back({i, agg[i], 1.});
      Level next;
      next.P = SparseMatrix::from_triplets(Af.n_rows(), n_agg, std::move(pt));
      next.R = next.P.transpose();
      next.A = SparseMatrix::multiply(next.R,
                                      SparseMatrix::multiply(Af, next.P));
      levels_.push_back(std::move(next));
    }
  }

  factorize_coarsest(levels_.back().A);

  // work vectors
  for (auto &level : levels_)
  {
    level.x.reinit(level.A.n_rows());
    level.b.reinit(level.A.n_rows());
    level.r.reinit(level.A.n_rows());
  }
}

void AMG::factorize_coarsest(const SparseMatrix &A)
{
  const std::size_t n = A.n_rows();
  lu_n_ = n;
  lu_.assign(n * n, 0.);
  lu_perm_.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = A.row_ptr()[r]; k < A.row_ptr()[r + 1]; ++k)
      lu_[r * n + A.col_idx()[k]] = A.values()[k];

  for (std::size_t i = 0; i < n; ++i)
    lu_perm_[i] = i;
  for (std::size_t c = 0; c < n; ++c)
  {
    // partial pivoting
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < n; ++r)
      if (std::abs(lu_[r * n + c]) > std::abs(lu_[pivot * n + c]))
        pivot = r;
    if (pivot != c)
    {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(lu_[c * n + j], lu_[pivot * n + j]);
      std::swap(lu_perm_[c], lu_perm_[pivot]);
    }
    const double d = lu_[c * n + c];
    DGFLOW_ASSERT(std::abs(d) > 1e-300, "singular coarse matrix");
    for (std::size_t r = c + 1; r < n; ++r)
    {
      const double f = lu_[r * n + c] / d;
      lu_[r * n + c] = f;
      for (std::size_t j = c + 1; j < n; ++j)
        lu_[r * n + j] -= f * lu_[c * n + j];
    }
  }
}

void AMG::solve_coarsest(Vector<double> &x, const Vector<double> &b) const
{
  const std::size_t n = lu_n_;
  // forward substitution with permutation
  for (std::size_t r = 0; r < n; ++r)
  {
    double sum = b[lu_perm_[r]];
    for (std::size_t c = 0; c < r; ++c)
      sum -= lu_[r * n + c] * x[c];
    x[r] = sum;
  }
  // backward substitution
  for (std::size_t rr = n; rr > 0; --rr)
  {
    const std::size_t r = rr - 1;
    double sum = x[r];
    for (std::size_t c = r + 1; c < n; ++c)
      sum -= lu_[r * n + c] * x[c];
    x[r] = sum / lu_[r * n + r];
  }
}

void AMG::vcycle_level(const unsigned int l, Vector<double> &x,
                       const Vector<double> &b) const
{
  const Level &level = levels_[l];
  if (l == levels_.size() - 1)
  {
    solve_coarsest(x, b);
    return;
  }

  // pre-smooth: one symmetric Gauss-Seidel sweep
  level.A.gauss_seidel_forward(x, b);

  // residual and restriction
  level.A.vmult(level.r, x);
  level.r.sadd(-1., 1., b);
  const Level &coarse = levels_[l + 1];
  coarse.R.vmult(coarse.b, level.r);
  coarse.x = 0.;
  vcycle_level(l + 1, coarse.x, coarse.b);
  // prolongate and correct
  coarse.P.vmult(level.r, coarse.x);
  x.add(1., level.r);

  // post-smooth
  level.A.gauss_seidel_backward(x, b);
}

void AMG::vcycle(Vector<double> &x, const Vector<double> &b) const
{
  vcycle_level(0, x, b);
}

void AMG::vmult(Vector<double> &dst, const Vector<double> &src) const
{
  dst.reinit(src.size(), true);
  dst = 0.;
  vcycle_level(0, dst, src);
}

unsigned int AMG::solve(Vector<double> &x, const Vector<double> &b,
                        const double rel_tol,
                        const unsigned int max_cycles) const
{
  const Level &fine = levels_[0];
  const double b_norm = double(b.l2_norm());
  for (unsigned int cycle = 1; cycle <= max_cycles; ++cycle)
  {
    vcycle(x, b);
    fine.A.vmult(fine.r, x);
    fine.r.sadd(-1., 1., b);
    if (double(fine.r.l2_norm()) <= rel_tol * b_norm)
      return cycle;
  }
  return max_cycles;
}

} // namespace dgflow
