#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "incns/analytic_flows.h"
#include "incns/solver.h"
#include "mesh/generators.h"
#include "resilience/recovering_solver.h"
#include "solvers/cg.h"
#include "solvers/chebyshev.h"
#include "timeint/bdf.h"

using namespace dgflow;

namespace
{
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

/// A = s * I.
struct ScaledIdentity
{
  double s = 1.;
  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    dst.reinit(src.size(), true);
    dst.equ(s, src);
  }
};

/// Always produces NaN (models an operator fed a poisoned state).
struct NaNOperator
{
  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    dst.reinit(src.size(), true);
    dst = NaN;
  }
};

/// A = 0 (degenerate operator; breaks eigenvalue estimation immediately).
struct ZeroOperator
{
  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    dst.reinit(src.size(), true);
    dst = 0.;
  }
};

/// 2x2 blocks [[c, 1], [-1, c]]: positive definite (x^T A x = c|x|^2) but
/// strongly nonsymmetric, so CG's residual recurrence grows monotonically —
/// a deterministic stagnation/divergence case with pAp > 0 throughout.
struct RotationDominantOperator
{
  double c = 0.1;
  void vmult(Vector<double> &dst, const Vector<double> &src) const
  {
    dst.reinit(src.size(), true);
    for (std::size_t i = 0; i + 1 < src.size(); i += 2)
    {
      dst[i] = c * src[i] + src[i + 1];
      dst[i + 1] = -src[i] + c * src[i + 1];
    }
  }
};

FlowBoundaryMap ethier_steinman_bc(const EthierSteinman &es)
{
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [es](const Point &p, double t) { return es.pressure(p, t); };
      b.backflow_stabilization = false;
    }
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [es](const Point &p, double t) { return es.velocity(p, t); };
    }
    bc[id] = b;
  }
  return bc;
}

INSSolver<double>::Parameters es_parameters(const EthierSteinman &es,
                                            const double dt)
{
  INSSolver<double>::Parameters prm;
  prm.degree = 3;
  prm.viscosity = es.nu;
  prm.fixed_dt = dt;
  prm.rel_tol_pressure = 1e-8;
  prm.rel_tol_viscous = 1e-8;
  prm.rel_tol_projection = 1e-8;
  return prm;
}
} // namespace

TEST(CGResilienceTest, BreakdownReturnsFailedStatsInsteadOfAborting)
{
  const ScaledIdentity A{-1.}; // negative definite: pAp < 0 in step one
  Vector<double> x(10), b(10);
  b = 1.;
  PreconditionIdentity P;
  SolverControl control;
  control.rel_tol = 1e-10;
  const SolveStats stats = solve_cg(A, x, b, P, control);
  EXPECT_FALSE(stats.converged);
  EXPECT_TRUE(stats.failed());
  EXPECT_TRUE(stats.breakdown);
  EXPECT_EQ(stats.failure, SolveFailure::breakdown);
}

TEST(CGResilienceTest, NonFiniteResidualIsDetectedImmediately)
{
  const NaNOperator A;
  Vector<double> x(8), b(8);
  b = 1.;
  PreconditionIdentity P;
  SolverControl control;
  const SolveStats stats = solve_cg(A, x, b, P, control);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.failure, SolveFailure::non_finite);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(CGResilienceTest, StagnationIsDetectedAfterTheConfiguredWindow)
{
  const RotationDominantOperator A;
  Vector<double> x(20), b(20);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 1. + 0.1 * double(i);
  PreconditionIdentity P;
  SolverControl control;
  control.rel_tol = 1e-12;
  control.max_iterations = 10000;
  control.stagnation_window = 10;
  const SolveStats stats = solve_cg(A, x, b, P, control);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.failure, SolveFailure::stagnation);
  // fired at the window, not after max_iterations
  EXPECT_LE(stats.iterations, 20u);
}

TEST(CGResilienceTest, ZeroStagnationWindowDisablesTheCheck)
{
  const RotationDominantOperator A;
  Vector<double> x(8), b(8);
  b = 1.;
  PreconditionIdentity P;
  SolverControl control;
  control.rel_tol = 1e-12;
  control.max_iterations = 50;
  control.stagnation_window = 0;
  const SolveStats stats = solve_cg(A, x, b, P, control);
  EXPECT_FALSE(stats.converged);
  // runs to the iteration cap (or a non-finite overflow), never "stagnation"
  EXPECT_NE(stats.failure, SolveFailure::stagnation);
}

TEST(ChebyshevResilienceTest, EstimationBreakdownFallsBackToSafeBounds)
{
  const ZeroOperator op;
  Vector<double> diag(16);
  diag = 1.;
  ChebyshevSmoother<ZeroOperator, Vector<double>> cheb;
  cheb.reinit(op, diag);
  EXPECT_FALSE(cheb.setup_stats().converged);
  EXPECT_EQ(cheb.setup_stats().failure, SolveFailure::breakdown);
  EXPECT_DOUBLE_EQ(cheb.max_eigenvalue(), 1.2); // the conservative fallback

  // the smoother stays usable: a sweep on the degenerate operator is finite
  Vector<double> x(16), b(16);
  b = 1.;
  const SolveStats sweep = cheb.smooth_checked(x, b, true);
  EXPECT_TRUE(sweep.converged);
}

TEST(ChebyshevResilienceTest, NonFiniteDiagonalAndSweepAreDetected)
{
  const NaNOperator op;
  Vector<double> diag(8);
  diag = 1.;
  diag[3] = NaN;
  ChebyshevSmoother<NaNOperator, Vector<double>> cheb;
  cheb.reinit(op, diag);
  EXPECT_FALSE(cheb.setup_stats().converged);
  EXPECT_EQ(cheb.setup_stats().failure, SolveFailure::non_finite);

  Vector<double> x(8), b(8);
  b = 1.;
  const SolveStats sweep = cheb.smooth_checked(x, b, true);
  EXPECT_FALSE(sweep.converged);
  EXPECT_EQ(sweep.failure, SolveFailure::non_finite);
}

TEST(RecoveringSolverTest, FallsBackRestoresGuessAndDemotes)
{
  resilience::RecoveringSolver<double> ladder;
  int bad_calls = 0, good_calls = 0;
  ladder.add_rung(
    "bad",
    [&](Vector<double> &x, const Vector<double> &) {
      ++bad_calls;
      x = NaN; // poison the iterate; the ladder must restore it
      SolveStats s;
      s.failure = SolveFailure::non_finite;
      return s;
    },
    /*demote_on_failure=*/true);
  ladder.add_rung("good", [&](Vector<double> &x, const Vector<double> &b) {
    ++good_calls;
    EXPECT_TRUE(std::isfinite(double(x.l2_norm())))
      << "failed rung's poisoned iterate leaked into the next rung";
    x = b;
    SolveStats s;
    s.converged = true;
    return s;
  });

  Vector<double> x(4), b(4);
  b = 2.;
  const SolveStats first = ladder.solve(x, b);
  EXPECT_TRUE(first.converged);
  EXPECT_EQ(ladder.last_rung(), "good");
  EXPECT_EQ(ladder.recoveries(), 1ull);
  EXPECT_TRUE(ladder.rung_disabled(0));
  EXPECT_EQ(ladder.rung_failures(0), 1ull);
  EXPECT_DOUBLE_EQ(x[0], 2.);

  const SolveStats second = ladder.solve(x, b);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(bad_calls, 1) << "demoted rung must not be retried";
  EXPECT_EQ(good_calls, 2);
  EXPECT_EQ(ladder.recoveries(), 1ull) << "direct hit is not a recovery";
}

TEST(RecoveringSolverTest, ThrowingRungPropagatesItsError)
{
  // rungs report failure in their SolveStats; an exception is an error
  // (a failed assertion, an allocation failure) and must reach the caller
  // instead of silently demoting the rung
  resilience::RecoveringSolver<double> ladder;
  ladder.add_rung(
    "throws",
    [](Vector<double> &, const Vector<double> &) -> SolveStats {
      throw std::runtime_error("named error inside the rung");
    },
    /*demote_on_failure=*/true);
  bool later_rung_ran = false;
  ladder.add_rung("good", [&](Vector<double> &x, const Vector<double> &b) {
    later_rung_ran = true;
    x = b;
    SolveStats s;
    s.converged = true;
    return s;
  });
  Vector<double> x(4), b(4);
  b = 1.;
  try
  {
    ladder.solve(x, b);
    ADD_FAILURE() << "the rung's exception was swallowed";
  }
  catch (const std::runtime_error &e)
  {
    EXPECT_STREQ(e.what(), "named error inside the rung");
  }
  EXPECT_FALSE(later_rung_ran);
  EXPECT_FALSE(ladder.rung_disabled(0));
  EXPECT_EQ(ladder.rung_failures(0), 0ull);
}

TEST(RecoveringSolverTest, ExhaustedLadderReturnsFailedStats)
{
  resilience::RecoveringSolver<double> ladder;
  ladder.add_rung("fail1", [](Vector<double> &, const Vector<double> &) {
    SolveStats s;
    s.failure = SolveFailure::max_iterations;
    return s;
  });
  ladder.add_rung("fail2", [](Vector<double> &, const Vector<double> &) {
    SolveStats s;
    s.failure = SolveFailure::stagnation;
    return s;
  });
  Vector<double> x(4), b(4);
  b = 1.;
  const SolveStats stats = ladder.solve(x, b);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.failure, SolveFailure::stagnation); // the last rung's reason
  EXPECT_EQ(ladder.last_rung(), "exhausted");
}

TEST(ResilienceGuardsTest, JacobiReinitRejectsNonFiniteDiagonal)
{
  Vector<double> diag(4);
  diag = 1.;
  diag[2] = NaN;
  PreconditionJacobi<double> jacobi;
  EXPECT_THROW(jacobi.reinit(diag), std::runtime_error);
}

TEST(ResilienceGuardsTest, TimeStepControlRejectsNonFiniteInput)
{
  const TimeStepControl control(0.4, 3);
  EXPECT_GT(control.next(0.1, 0.), 0.);
  EXPECT_THROW(control.next(NaN, 0.01), std::runtime_error);
  EXPECT_THROW(control.next(-1., 0.01), std::runtime_error);
  EXPECT_THROW(control.next(0.1, NaN), std::runtime_error);
}

TEST(INSSolverResilienceTest, InjectedFaultTriggersRejectionAndRecovery)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  auto prm = es_parameters(es, 5e-3);
  // inject a NaN into the intermediate velocity of step 1, first attempt
  prm.inject_substep_fault = [](const unsigned long step,
                                const unsigned int attempt) {
    return step == 1 && attempt == 0;
  };
  solver.setup(mesh, geom, ethier_steinman_bc(es), prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });

  const auto info0 = solver.advance();
  EXPECT_EQ(info0.rejections, 0u);
  EXPECT_TRUE(info0.success);
  EXPECT_DOUBLE_EQ(info0.dt, 5e-3);

  const auto info1 = solver.advance();
  EXPECT_TRUE(info1.success);
  EXPECT_EQ(info1.rejections, 1u);
  EXPECT_DOUBLE_EQ(info1.dt, 2.5e-3) << "rejected step must halve dt";
  EXPECT_TRUE(std::isfinite(double(solver.velocity().l2_norm())));
  EXPECT_TRUE(std::isfinite(double(solver.pressure().l2_norm())));
  // the bad right-hand side must not have demoted the multigrid rung
  EXPECT_FALSE(solver.pressure_solver().rung_disabled(0));

  const auto info2 = solver.advance();
  EXPECT_EQ(info2.rejections, 0u);
  EXPECT_TRUE(info2.success);
  EXPECT_NEAR(solver.time(), 5e-3 + 2.5e-3 + 5e-3, 1e-12);
}

TEST(INSSolverResilienceTest, ExhaustedRejectionBudgetThrowsRecoverably)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  auto prm = es_parameters(es, 5e-3);
  prm.max_step_rejections = 2;
  prm.inject_substep_fault = [](unsigned long, unsigned int) { return true; };
  solver.setup(mesh, geom, ethier_steinman_bc(es), prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
  // a recoverable exception, not an abort
  EXPECT_THROW(solver.advance(), std::runtime_error);
}

TEST(INSSolverResilienceTest, RejectedAttemptLeavesTheStateUntouched)
{
  // a retry starts from the state the rejected attempt started from: the
  // attempt solves into scratch vectors and commits only on success, so
  // even the attempt whose rejection exhausts the budget changes nothing
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  auto prm = es_parameters(es, 5e-3);
  prm.max_step_rejections = 0;
  prm.inject_substep_fault = [](const unsigned long step, unsigned int) {
    return step == 1;
  };
  solver.setup(mesh, geom, ethier_steinman_bc(es), prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
  ASSERT_TRUE(solver.advance().success);

  const Vector<double> u = solver.velocity(), p = solver.pressure();
  const double t = solver.time();
  EXPECT_THROW(solver.advance(), std::runtime_error);
  EXPECT_EQ(solver.time(), t);
  ASSERT_EQ(solver.velocity().size(), u.size());
  ASSERT_EQ(solver.pressure().size(), p.size());
  EXPECT_EQ(std::memcmp(solver.velocity().data(), u.data(),
                        u.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(solver.pressure().data(), p.data(),
                        p.size() * sizeof(double)),
            0);
}
