// Fused solver loops and end-to-end mixed precision (ctest label
// mixed_precision; also run under DGFLOW_SANITIZE=address and thread by
// run_benchmarks.sh): solve_cg and ChebyshevSmoother, whose vector updates
// ride the operator's range hooks and solve_cg's one sweep per iteration,
// must match the textbook separate-sweep iterations below bitwise in double
// precision, serially and on 4 logical ranks, both with a hooked operator
// and through the whole-range hooks an operator without them gets
// (vmult_hooked), with the point-Jacobi preconditioner and with the penalty
// step's inverse mass; a Jacobi-CG iteration on 4 ranks makes two
// collectives; and the single-precision multigrid preconditioner must not
// change the outer DP iteration count by more than one on the lung
// geometry.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>

#include "lung/lung_mesh.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "matrixfree/field_tools.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/laplace_operator.h"
#include "operators/mass_operator.h"
#include "operators/penalty_operator.h"
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

namespace
{
/// The flow solver's velocity space, DG(3) in the collocated Gauss basis, on
/// a deformed twice-refined cube (so the mass varies from point to point),
/// with its mass operator and the penalty step's inverse mass.
struct DeformedVelocitySpace
{
  Mesh mesh = make_mesh(2);
  AnalyticGeometry geom{[](index_t, const Point &p) {
    return Point(p[0] + 0.04 * p[1] * p[2], p[1] - 0.03 * p[0] * p[2],
                 p[2] + 0.02 * p[0] * p[1]);
  }};
  MatrixFree<double> mf;
  MassOperator<double, 3> mass;
  InverseMassPreconditioner<double> inverse_mass;

  DeformedVelocitySpace()
  {
    MatrixFree<double>::AdditionalData data;
    data.degrees = {3};
    data.basis_types = {BasisType::lagrange_gauss};
    data.n_q_points_1d = {4};
    mf.reinit(mesh, geom, data);
    mass.reinit(mf, 0, 0);
    inverse_mass.reinit(mass);
  }
};
} // namespace

TEST(FusedLoops, SweepSumsMatchTheDotsAtEveryLength)
{
  // The fused sweeps of solve_cg against the textbook passes they replace,
  // at every length up to 300 (every tail of the vectorized loops) and
  // across several 4096-scalar blocks: the vector entries and each sum must
  // agree bitwise, with the point-Jacobi map, the inverse-mass map and no
  // map. Shorter lengths use a prefix of the inverse mass's diagonal.
  const DeformedVelocitySpace space;
  const InverseMassPreconditioner<double> &inverse_mass = space.inverse_mass;
  const std::size_t n_max = inverse_mass.mass_diagonal().size();

  std::mt19937 gen(7);
  std::uniform_real_distribution<double> u(-1., 1.);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n)
    lengths.push_back(n);
  for (const std::size_t n : {4095ul, 4096ul, 4097ul, 8195ul, n_max - 5})
    lengths.push_back(n);
  const auto random_vector = [&](const std::size_t n, const double shift) {
    Vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = shift + u(gen);
    return v;
  };
  for (const std::size_t n : lengths)
  {
    SCOPED_TRACE(n);
    ASSERT_LE(n, n_max);
    const Vector<double> x = random_vector(n, 0.), r = random_vector(n, 0.),
                         p = random_vector(n, 0.), ap = random_vector(n, 0.),
                         b = random_vector(n, 0.);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(random_vector(n, 2.));
    const auto mass_map = inverse_mass.pointwise();
    const double alpha = 0.37, beta = -0.61;

    // x += alpha p, r -= alpha Ap, r.r and r.z
    Vector<double> x_text = x, r_text = r, z, z_mass(n);
    x_text.add(alpha, p);
    r_text.add(-alpha, ap);
    jacobi.vmult(z, r_text);
    for (std::size_t i = 0; i < n; ++i)
      z_mass[i] = r_text[i] / inverse_mass.mass_diagonal()[i];
    const double rr = r_text.dot(r_text);
    const auto update = [&](const auto f, const auto expected) {
      Vector<double> x_sweep = x, r_sweep = r;
      constexpr std::size_t n_sums = std::tuple_size_v<decltype(expected)>;
      const auto sums =
        internal::chunked_sums<n_sums>(n, [&](std::size_t i0, std::size_t i1) {
          return internal::cg_update_sweep(x_sweep.data(), r_sweep.data(),
                                           p.data(), ap.data(), alpha, f, i0,
                                           i1);
        });
      EXPECT_TRUE(bitwise_equal(x_sweep, x_text));
      EXPECT_TRUE(bitwise_equal(r_sweep, r_text));
      EXPECT_TRUE(sums == expected);
    };
    update(nullptr, std::array<double, 1>{rr});
    update(jacobi.pointwise(), std::array<double, 2>{rr, r_text.dot(z)});
    update(mass_map, std::array<double, 2>{rr, r_text.dot(z_mass)});

    // r = b - Ap with r.r, and p = z = f(r) with r.z
    Vector<double> r0_text(n), z0, z0_mass(n);
    r0_text.equ(1., b, -1., ap);
    jacobi.vmult(z0, r0_text);
    for (std::size_t i = 0; i < n; ++i)
      z0_mass[i] = r0_text[i] / inverse_mass.mass_diagonal()[i];
    const double rr0 = r0_text.dot(r0_text);
    const auto residual = [&](const auto f, const Vector<double> *z_text,
                              const auto expected) {
      Vector<double> r_sweep(n), p_sweep(n);
      constexpr std::size_t n_sums = std::tuple_size_v<decltype(expected)>;
      const auto sums =
        internal::chunked_sums<n_sums>(n, [&](std::size_t i0, std::size_t i1) {
          return internal::cg_residual_sweep(r_sweep.data(), p_sweep.data(),
                                             b.data(), ap.data(), f, i0, i1);
        });
      EXPECT_TRUE(bitwise_equal(r_sweep, r0_text));
      if (z_text)
      {
        EXPECT_TRUE(bitwise_equal(p_sweep, *z_text));
      }
      EXPECT_TRUE(sums == expected);
    };
    residual(nullptr, nullptr, std::array<double, 1>{rr0});
    residual(jacobi.pointwise(), &z0,
             std::array<double, 2>{rr0, r0_text.dot(z0)});
    residual(mass_map, &z0_mass,
             std::array<double, 2>{rr0, r0_text.dot(z0_mass)});

    // p = beta p + z, with z formed in place
    for (const Vector<double> *z_text : {&z, &z_mass})
    {
      Vector<double> p_text = p, p_hook = p;
      p_text.sadd(beta, 1., *z_text);
      if (z_text == &z)
        internal::cg_direction_update(p_hook.data(), r_text.data(), beta,
                                      jacobi.pointwise(), 0, n);
      else
        internal::cg_direction_update(p_hook.data(), r_text.data(), beta,
                                      mass_map, 0, n);
      EXPECT_TRUE(bitwise_equal(p_hook, p_text));
    }
  }
}

namespace
{
/// Point Jacobi that counts its vmult calls: solve_cg must form a pointwise
/// preconditioner's z inside its sweeps and never apply it.
struct CountingJacobi : PreconditionJacobi<double>
{
  mutable unsigned int vmults = 0;
  template <typename VectorType>
  void vmult(VectorType &dst, const VectorType &src) const
  {
    ++vmults;
    PreconditionJacobi<double>::vmult(dst, src);
  }
};
} // namespace

TEST(FusedLoops, PenaltySolveWithTheInverseMassMatchesTextbookBitwise)
{
  // the penalty step's configuration: the divergence/continuity penalty
  // operator updated on a nonzero velocity, the inverse mass of the flow
  // solver and a nonzero initial guess
  const DeformedVelocitySpace space;
  const MatrixFree<double> &mf = space.mf;
  const MassOperator<double, 3> &mass = space.mass;
  const InverseMassPreconditioner<double> &inverse_mass = space.inverse_mass;

  Vector<double> velocity;
  interpolate_vector(mf, 0, 0,
                     [](const Point &p) {
                       return Tensor1<double>(std::sin(2. * p[0]) + p[1],
                                              p[0] * p[2],
                                              1. - p[1] * p[1] + p[2]);
                     },
                     velocity);
  PenaltyOperator<double> penalty;
  penalty.reinit(mf, 0, 0);
  penalty.update(velocity, 0.05);
  static_assert(PointwisePreconditionerFor<InverseMassPreconditioner<double>,
                                           Vector<double>>);
  static_assert(
    HookedOperatorFor<PenaltyOperator<double>, Vector<double>>,
    "the penalty operator must implement the contract-v2 hooked vmult");

  // the preconditioner is bitwise the mass operator's exact inverse
  Vector<double> z_mass, z_precond;
  mass.apply_inverse(z_mass, velocity);
  inverse_mass.vmult(z_precond, velocity);
  EXPECT_TRUE(bitwise_equal(z_precond, z_mass));

  Vector<double> rhs, x0 = velocity;
  mass.vmult(rhs, velocity);
  for (std::size_t i = 0; i < x0.size(); ++i)
    x0[i] += 0.1 * std::sin(0.37 * double(i));

  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 400;
  const unsigned int saved_width =
    concurrency::ThreadPool::instance().n_threads();
  for (const unsigned int width : {1u, 4u})
  {
    SCOPED_TRACE(width);
    concurrency::ThreadPool::instance().set_n_threads(width);
    Vector<double> x_fused = x0, x_textbook = x0;
    const SolveStats stats =
      solve_cg(penalty, x_fused, rhs, inverse_mass, control);
    const TextbookStats stats_textbook =
      textbook_cg(penalty, x_textbook, rhs, inverse_mass, control.rel_tol,
                  control.max_iterations);
    ASSERT_TRUE(stats.converged);
    EXPECT_GT(stats.iterations, 5u);
    EXPECT_EQ(stats.iterations, stats_textbook.iterations);
    EXPECT_EQ(stats.final_residual, stats_textbook.final_residual);
    EXPECT_TRUE(bitwise_equal(x_fused, x_textbook))
      << "penalty CG iterate deviates from the textbook iteration";
  }
  concurrency::ThreadPool::instance().set_n_threads(saved_width);

  // a pointwise preconditioner is never applied through its vmult
  CountingJacobi jacobi;
  jacobi.reinit(inverse_mass.mass_diagonal());
  Vector<double> x = x0;
  ASSERT_TRUE(solve_cg(penalty, x, rhs, jacobi, control).converged);
  EXPECT_EQ(jacobi.vmults, 0u);
}

TEST(FusedLoops, JacobiCGIterationMakesTwoCollectivesOn4Ranks)
{
  // one allreduce for the set-up sweep's sums, then per iteration one for
  // p.Ap and one for the sweep's r.r and r.z together
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
  std::atomic<int> mismatches{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    DVec b(part, comm, block), ddiag(part, comm, block), x(part, comm, block);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = std::sin(0.37 * double(b.first_local_index() + i)) + 0.2;
    ddiag.copy_owned_from(diag);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 400;
    const unsigned long long before = comm.traffic().allreduces;
    const SolveStats stats = solve_cg(laplace, x, b, jacobi, control);
    const unsigned long long allreduces = comm.traffic().allreduces - before;
    if (!stats.converged || stats.iterations < 10 ||
        allreduces != 1 + 2ull * stats.iterations)
      ++mismatches;
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
