// Fused solver loops and end-to-end mixed precision (ctest label
// mixed_precision; also run under DGFLOW_SANITIZE=address by
// run_benchmarks.sh): solve_cg and ChebyshevSmoother, whose vector updates
// ride the operator's range hooks, must match the textbook separate-sweep
// iterations below bitwise in double precision, serially and on 4 logical
// ranks, both with a hooked operator and through the whole-range hooks an
// operator without them gets (vmult_hooked); and the single-precision
// multigrid preconditioner must not change the outer DP iteration count by
// more than one on the lung geometry.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>

#include "lung/lung_mesh.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/laplace_operator.h"
#include "solvers/cg.h"
#include "solvers/chebyshev.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

namespace
{
BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

Mesh make_mesh(const unsigned int refinements)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(refinements);
  return mesh;
}

/// Exposes only the plain vmult(dst, src) of @p Op, hiding the contract-v2
/// hooked overload: the solvers then run their hooks over the whole range
/// around this vmult (vmult_hooked).
template <typename Op>
struct UnhookedView
{
  const Op &op;
  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    op.vmult(dst, src);
  }
};

template <typename VectorType>
bool bitwise_equal(const VectorType &a, const VectorType &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(typename VectorType::value_type)) == 0;
}

struct TextbookStats
{
  unsigned int iterations = 0;
  double final_residual = 0;
};

/// Preconditioned CG as the textbook writes it: one BLAS-1 pass per vector
/// update, in the order and with the expressions solve_cg fuses.
template <typename Op, typename Preconditioner, typename VectorType>
TextbookStats textbook_cg(const Op &A, VectorType &x, const VectorType &b,
                          const Preconditioner &P, const double rel_tol,
                          const unsigned int max_iterations)
{
  using Number = typename VectorType::value_type;
  VectorType r, z, p, Ap;
  r.reinit_like(b);
  Ap.reinit_like(b);
  A.vmult(Ap, x);
  r.equ(Number(1), b, Number(-1), Ap);
  const double b_norm = double(b.l2_norm());
  const double tol = rel_tol * (b_norm > 0 ? b_norm : 1.);
  TextbookStats stats;
  stats.final_residual = double(r.l2_norm());
  if (stats.final_residual <= tol)
    return stats;
  P.vmult(z, r);
  p = z;
  Number rz = r.dot(z);
  for (unsigned int it = 1; it <= max_iterations; ++it)
  {
    A.vmult(Ap, p);
    const Number alpha = rz / p.dot(Ap);
    x.add(alpha, p);
    r.add(-alpha, Ap);
    stats.iterations = it;
    stats.final_residual = double(r.l2_norm());
    if (stats.final_residual <= tol)
      break;
    P.vmult(z, r);
    const Number rz_new = r.dot(z);
    const Number beta = rz_new / rz;
    rz = rz_new;
    p.sadd(beta, Number(1), z);
  }
  return stats;
}

/// One point-Jacobi Chebyshev sweep of the given degree as the textbook
/// writes it, on the smoothing band [lambda_max / 20, lambda_max] that
/// ChebyshevSmoother targets.
template <typename Op, typename VectorType>
void textbook_chebyshev(const Op &A, const VectorType &inv_diag,
                        const double lambda_max, const unsigned int degree,
                        VectorType &x, const VectorType &b,
                        const bool zero_initial_guess)
{
  using Number = typename VectorType::value_type;
  const double lambda_min = lambda_max / 20.;
  const double theta = 0.5 * (lambda_max + lambda_min);
  const double delta = 0.5 * (lambda_max - lambda_min);
  VectorType r, d;
  r.reinit_like(x);
  d.reinit_like(x);
  // r = D^{-1} (b - A x)
  if (zero_initial_guess)
  {
    r = b;
    x = Number(0);
  }
  else
  {
    A.vmult(r, x);
    r.sadd(Number(-1), Number(1), b);
  }
  r.scale_pointwise(inv_diag);
  // first step: d = r / theta
  d.equ(Number(1. / theta), r);
  x.add(Number(1), d);
  const double sigma1 = theta / delta;
  double rho_old = 1. / sigma1;
  for (unsigned int k = 1; k < degree; ++k)
  {
    A.vmult(r, x);
    r.sadd(Number(-1), Number(1), b);
    r.scale_pointwise(inv_diag);
    const double rho = 1. / (2. * sigma1 - rho_old);
    // d = rho*rho_old * d + 2*rho/delta * r
    d.sadd(Number(rho * rho_old), Number(2. * rho / delta), r);
    x.add(Number(1), d);
    rho_old = rho;
  }
}

template <typename VectorType>
VectorType inverse_of(const VectorType &diag)
{
  using Number = typename VectorType::value_type;
  VectorType inv;
  inv.reinit_like(diag);
  for (std::size_t i = 0; i < diag.size(); ++i)
    inv[i] = Number(1) / diag[i];
  return inv;
}

/// A zero-guess and a nonzero-guess Chebyshev sweep with @p op, through its
/// hooked vmult, through the whole-range hooks of UnhookedView and as the
/// textbook sweep: all three iterates must agree bitwise after each.
template <typename Op, typename VectorType>
void expect_chebyshev_matches_textbook(const Op &op, const VectorType &diag,
                                       const char *what)
{
  using Number = typename VectorType::value_type;
  static_assert(HookedOperatorFor<Op, VectorType>);
  ChebyshevData cheb;
  cheb.degree = 4;
  ChebyshevSmoother<Op, VectorType> fused;
  fused.reinit(op, diag, cheb);
  using View = UnhookedView<Op>;
  const View view{op};
  static_assert(!HookedOperatorFor<View, VectorType>);
  ChebyshevSmoother<View, VectorType> adapted;
  adapted.reinit(view, diag, cheb);
  ASSERT_EQ(fused.max_eigenvalue(), adapted.max_eigenvalue());
  const VectorType inv_diag = inverse_of(diag);

  const std::size_t n = diag.size();
  VectorType b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = Number(std::sin(0.37 * double(i)) + 0.2);

  // zero initial guess (the pre-smoother) and a nonzero-guess sweep on top
  VectorType x_fused(n), x_adapted(n), x_textbook(n);
  for (const bool zero_guess : {true, false})
  {
    fused.smooth(x_fused, b, zero_guess);
    adapted.smooth(x_adapted, b, zero_guess);
    textbook_chebyshev(op, inv_diag, fused.max_eigenvalue(), cheb.degree,
                       x_textbook, b, zero_guess);
    EXPECT_TRUE(bitwise_equal(x_fused, x_textbook))
      << what << ": hooked sweep deviates, zero guess " << zero_guess;
    EXPECT_TRUE(bitwise_equal(x_adapted, x_textbook))
      << what << ": whole-range sweep deviates, zero guess " << zero_guess;
  }
}
} // namespace

// ---------------------------------------------------------------------------
// fused solver loops: bitwise equivalence with the textbook iteration
// ---------------------------------------------------------------------------

TEST(FusedLoops, CGMatchesUnfusedBitwiseSerial)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {3};
  data.n_q_points_1d = {4};
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  static_assert(
    HookedOperatorFor<LaplaceOperator<double>, Vector<double>>,
    "the DG Laplacian must implement the contract-v2 hooked vmult");

  Vector<double> rhs;
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);

  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 400;

  const std::size_t n = laplace.n_dofs();
  Vector<double> x_fused(n), x_adapted(n), x_textbook(n);
  const auto stats_fused = solve_cg(laplace, x_fused, rhs, jacobi, control);
  const UnhookedView<LaplaceOperator<double>> view{laplace};
  static_assert(!HookedOperatorFor<decltype(view), Vector<double>>);
  const auto stats_adapted = solve_cg(view, x_adapted, rhs, jacobi, control);
  const TextbookStats stats_textbook = textbook_cg(
    laplace, x_textbook, rhs, jacobi, control.rel_tol, control.max_iterations);

  ASSERT_TRUE(stats_fused.converged);
  for (const SolveStats &stats : {stats_fused, stats_adapted})
  {
    EXPECT_EQ(stats.iterations, stats_textbook.iterations);
    EXPECT_EQ(stats.final_residual, stats_textbook.final_residual);
  }
  EXPECT_TRUE(bitwise_equal(x_fused, x_textbook))
    << "hooked CG iterate deviates from the textbook iteration";
  EXPECT_TRUE(bitwise_equal(x_adapted, x_textbook))
    << "whole-range-hook CG iterate deviates from the textbook iteration";
}

TEST(FusedLoops, ChebyshevMatchesUnfusedBitwiseSerial)
{
  // the DG Laplacian: the sweep rides the per-batch post hooks
  {
    const Mesh mesh = make_mesh(2);
    TrilinearGeometry geom(mesh.coarse());
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {2};
    data.n_q_points_1d = {3};
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, all_dirichlet());
    Vector<double> diag;
    laplace.compute_diagonal(diag);
    expect_chebyshev_matches_textbook(laplace, diag, "DG Laplacian");
  }

  // the float Q1 operator of the multigrid levels on a hanging-node mesh:
  // shared vertex DoFs degrade its hooks to one whole-range post after the
  // cell loop
  {
    Mesh mesh = make_mesh(2);
    std::vector<bool> flags(mesh.n_active_cells(), false);
    for (index_t i = 0; i < mesh.n_active_cells(); ++i)
    {
      const auto lo = mesh.cell_lower_corner(i);
      if (lo[0] < 0.5 && lo[1] < 0.5 && lo[2] < 0.5)
        flags[i] = true;
    }
    mesh.refine(flags);
    TrilinearGeometry geom(mesh.coarse());
    MatrixFree<float> mf;
    MatrixFree<float>::AdditionalData data;
    data.degrees = {1};
    data.basis_types = {BasisType::lagrange_gauss_lobatto};
    data.n_q_points_1d = {2};
    mf.reinit(mesh, geom, data);
    CFEDofHandler dofs;
    dofs.reinit(mesh);
    ASSERT_GT(dofs.n_constraints(), 0u);
    const CFESpace q1 =
      make_q1_space(dofs, [](unsigned int) { return true; });
    CFELaplaceOperator<float> op;
    op.reinit(mf, 0, 0, q1);
    Vector<float> diag;
    op.compute_diagonal(diag);
    expect_chebyshev_matches_textbook(op, diag, "Q1 Laplacian");
  }
}

TEST(FusedLoops, CGAndChebyshevMatchUnfusedBitwiseOn4Ranks)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int block = mf.dofs_per_cell(0);
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  using DVec = vmpi::DistributedVector<double>;
  static_assert(HookedOperatorFor<LaplaceOperator<double>, DVec>,
                "hooked vmult must cover the distributed path");

  std::atomic<int> mismatches{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    DVec b(part, comm, block), ddiag(part, comm, block);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = std::sin(0.37 * double(b.first_local_index() + i)) + 0.2;
    ddiag.copy_owned_from(diag);

    PreconditionJacobi<double> jacobi;
    jacobi.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 400;

    DVec x_fused(part, comm, block), x_adapted(part, comm, block),
      x_textbook(part, comm, block);
    using View = UnhookedView<LaplaceOperator<double>>;
    const View view{laplace};
    const auto sf = solve_cg(laplace, x_fused, b, jacobi, control);
    const auto sa = solve_cg(view, x_adapted, b, jacobi, control);
    const TextbookStats st = textbook_cg(laplace, x_textbook, b, jacobi,
                                         control.rel_tol,
                                         control.max_iterations);
    if (sf.iterations != st.iterations || sa.iterations != st.iterations ||
        !bitwise_equal(x_fused, x_textbook) ||
        !bitwise_equal(x_adapted, x_textbook))
      ++mismatches;

    ChebyshevSmoother<LaplaceOperator<double>, DVec> fused;
    fused.reinit(laplace, ddiag);
    ChebyshevSmoother<View, DVec> adapted;
    adapted.reinit(view, ddiag);
    const DVec inv_diag = inverse_of(ddiag);
    x_fused = 0.;
    x_adapted = 0.;
    x_textbook = 0.;
    for (const bool zero_guess : {true, false})
    {
      fused.smooth(x_fused, b, zero_guess);
      adapted.smooth(x_adapted, b, zero_guess);
      textbook_chebyshev(laplace, inv_diag, fused.max_eigenvalue(),
                         ChebyshevData().degree, x_textbook, b, zero_guess);
      if (!bitwise_equal(x_fused, x_textbook) ||
          !bitwise_equal(x_adapted, x_textbook))
        ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// mixed-precision multigrid: SP levels must not cost iterations
// ---------------------------------------------------------------------------

namespace
{
template <typename LevelNumber>
unsigned int lung_poisson_iterations(const Mesh &mesh, const Geometry &geom,
                                     const BoundaryMap &bc)
{
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  data.geometry_degree = 1;
  data.penalty_safety = 4.;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, bc);

  HybridMultigrid<LevelNumber> mg;
  typename HybridMultigrid<LevelNumber>::Options opts;
  opts.geometry_degree = 1;
  opts.penalty_safety = 4.;
  mg.setup(mesh, geom, 2, bc, opts);

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  SolverControl control;
  control.rel_tol = 1e-8;
  control.max_iterations = 2000;
  const auto stats = solve_cg(laplace, x, rhs, mg, control);
  EXPECT_TRUE(stats.converged);
  return stats.iterations;
}
} // namespace

TEST(MixedPrecisionMG, LungIterationCountsWithinOneOfDouble)
{
  AirwayTreeParameters prm;
  prm.n_generations = 2;
  const LungMesh lung = build_lung_mesh(AirwayTree::generate(prm));
  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);
  Mesh mesh(lung.coarse);
  TrilinearGeometry geom(mesh.coarse());

  const unsigned int its_dp = lung_poisson_iterations<double>(mesh, geom, bc);
  const unsigned int its_sp = lung_poisson_iterations<float>(mesh, geom, bc);

  EXPECT_LE(std::abs(int(its_sp) - int(its_dp)), 1)
    << "SP V-cycle costs iterations: dp=" << its_dp << " sp=" << its_sp;
}
