#include <gtest/gtest.h>

#include <cmath>

#include "incns/analytic_flows.h"
#include "incns/solver.h"
#include "mesh/generators.h"

using namespace dgflow;

namespace
{
/// Boundary conditions for the Ethier-Steinman flow: analytic velocity
/// Dirichlet on five faces, analytic pressure on x=1.
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
      // the analytic flow passes in and out of the open face
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
                                            const double dt,
                                            const unsigned int degree = 3)
{
  INSSolver<double>::Parameters prm;
  prm.degree = degree;
  prm.viscosity = es.nu;
  prm.fixed_dt = dt;
  prm.rel_tol = 1e-8;
  prm.velocity_neumann_data = [es](const Point &p, double t) {
    // du/dn on the x=1 face (normal = +x)
    const auto g = es.velocity_gradient(p, t);
    return Tensor1<double>(g[0][0], g[1][0], g[2][0]);
  };
  return prm;
}

void run_es(INSSolver<double> &solver, const Mesh &mesh, const Geometry &geom,
            const EthierSteinman &es, const double dt, const double T,
            const unsigned int degree = 3)
{
  solver.setup(mesh, geom, ethier_steinman_bc(es),
               es_parameters(es, dt, degree));
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
  while (solver.time() < T - 1e-12)
    solver.advance();
}
} // namespace

TEST(INSSolverES, VelocityStaysCloseToAnalytic)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  const double T = 0.05;
  run_es(solver, mesh, geom, es, 0.0125, T);

  const double err = l2_error_vector(
    solver.matrix_free(), INSSolver<double>::u_space, INSSolver<double>::quad_u,
    solver.velocity(),
    [&](const Point &p) { return es.velocity(p, T); });
  // reference velocity magnitude is O(1); both spatial (k=3, h=1/2) and
  // temporal errors are small
  EXPECT_LT(err, 2e-3) << "ES velocity error: " << err;
}

TEST(INSSolverES, SecondOrderInTime)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  const double T = 0.04;

  // degree 5 keeps the dt-coupled spatial divergence error below the
  // temporal errors being measured
  INSSolver<double> ref, s1, s2;
  run_es(ref, mesh, geom, es, T / 32., T, 5);
  run_es(s1, mesh, geom, es, T / 4., T, 5);
  run_es(s2, mesh, geom, es, T / 8., T, 5);

  Vector<double> d1(ref.velocity().size()), d2(ref.velocity().size());
  d1.equ(1., s1.velocity(), -1., ref.velocity());
  d2.equ(1., s2.velocity(), -1., ref.velocity());
  const double rate = std::log2(double(d1.l2_norm()) / double(d2.l2_norm()));
  EXPECT_GT(rate, 1.5) << "temporal rate: " << rate << " (errors "
                       << double(d1.l2_norm()) << " -> "
                       << double(d2.l2_norm()) << ")";
  EXPECT_LT(rate, 3.0);
}

TEST(INSSolverES, DivergenceIsSmall)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  run_es(solver, mesh, geom, es, 0.01, 0.03);
  // the penalty step keeps the broken divergence small relative to the
  // velocity scale (||u|| ~ 1, ||grad u|| ~ 1)
  EXPECT_LT(solver.divergence_l2(), 5e-3);
}

// Parameters::rel_tol is the tolerance of every implicit substep: from the
// same state, a tighter one takes more iterations in each of the three
// solves.
TEST(INSSolverES, OneToleranceDrivesEverySubstep)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  const auto first_step = [&](const double rel_tol) {
    INSSolver<double>::Parameters prm = es_parameters(es, 0.01);
    prm.rel_tol = rel_tol;
    INSSolver<double> solver;
    solver.setup(mesh, geom, ethier_steinman_bc(es), prm);
    solver.set_initial_condition(
      [&es](const Point &p) { return es.velocity(p, 0.); },
      [&es](const Point &p) { return es.pressure(p, 0.); });
    return solver.advance();
  };
  const auto loose = first_step(1e-4);
  const auto tight = first_step(1e-10);
  ASSERT_TRUE(loose.success && tight.success);
  EXPECT_GT(tight.pressure.iterations, loose.pressure.iterations);
  EXPECT_GT(tight.viscous.iterations, loose.viscous.iterations);
  EXPECT_GT(tight.penalty.iterations, loose.penalty.iterations);
}

TEST(INSSolverPoiseuille, ReachesAnalyticSteadyState)
{
  PoiseuilleChannel channel;
  channel.G = 1.;
  channel.nu = 1.;

  Mesh mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1), {{1, 1, 1}}));
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());

  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 0 || id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [channel, id](const Point &, double) {
        return id == 0 ? channel.G : 0.;
      };
    }
    else if (id == 2 || id == 3)
      b.kind = FlowBoundary::Kind::velocity_dirichlet; // no-slip: no data
    else
    {
      // z-faces carry the analytic profile (flow is z-independent)
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [channel](const Point &p, double) {
        return channel.velocity(p);
      };
    }
    bc[id] = b;
  }

  INSSolver<double>::Parameters prm;
  prm.degree = 2;
  prm.viscosity = channel.nu;
  prm.cfl = 0.3;
  prm.max_dt = 0.02;
  prm.rel_tol = 1e-8;

  INSSolver<double> solver;
  solver.setup(mesh, geom, bc, prm);
  // start from rest; the flow develops over the diffusive time scale
  solver.set_initial_condition(
    [](const Point &) { return Tensor1<double>(); });
  while (solver.time() < 1.5)
    solver.advance();

  const double flux_out = solver.boundary_flux(1);
  EXPECT_NEAR(flux_out, channel.flux(), 0.02 * channel.flux())
    << "flux " << flux_out << " vs analytic " << channel.flux();

  const double err = l2_error_vector(
    solver.matrix_free(), INSSolver<double>::u_space, INSSolver<double>::quad_u,
    solver.velocity(),
    [&](const Point &p) { return channel.velocity(p); });
  EXPECT_LT(err, 5e-3);
}

TEST(INSSolverMisc, AdaptiveTimeStepRespondsToVelocity)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  auto prm = es_parameters(es, 0.);
  prm.fixed_dt = 0.;
  prm.cfl = 0.2;
  solver.setup(mesh, geom, ethier_steinman_bc(es), prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
  const auto info1 = solver.advance();
  EXPECT_GT(info1.dt, 0.);
  // the ES field decays; the CFL step should not shrink
  double last_dt = info1.dt;
  for (int i = 0; i < 5; ++i)
  {
    const auto info = solver.advance();
    EXPECT_GE(info.dt, 0.9 * last_dt);
    last_dt = info.dt;
  }
}

TEST(INSSolverMisc, ProfilerAndStepInfoAreRecorded)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  solver.setup(mesh, geom, ethier_steinman_bc(es), es_parameters(es, 5e-3));
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); });

  auto &profiler = prof::Profiler::instance();
  profiler.enable(true);
  profiler.reset();
  const auto info = solver.advance();
  const prof::ProfileReport report = profiler.report();
  profiler.enable(false);

  EXPECT_GT(info.wall_time, 0.);
  EXPECT_TRUE(info.pressure.converged);
  EXPECT_TRUE(info.viscous.converged);
  EXPECT_TRUE(info.penalty.converged);
  EXPECT_GT(info.pressure.iterations, 0u);
  EXPECT_GT(info.viscous.iterations, 0u);
  EXPECT_GT(info.penalty.iterations, 0u);
  EXPECT_GT(info.pressure.seconds, 0.);

  // every substep shows up once under the step scope
  for (const char *section :
       {"ins_step/convective_step", "ins_step/pressure", "ins_step/projection",
        "ins_step/viscous", "ins_step/penalty"})
  {
    const auto *entry = report.find(section);
    ASSERT_NE(entry, nullptr) << section;
    EXPECT_EQ(entry->count, 1ul) << section;
    EXPECT_GT(entry->total, 0.) << section;
  }
  // the recorded iteration counters match the SolveStats the solver returned
  EXPECT_EQ(report.counters.at("ins_pressure_iterations"),
            static_cast<long long>(info.pressure.iterations));
  EXPECT_EQ(report.counters.at("ins_viscous_iterations"),
            static_cast<long long>(info.viscous.iterations));
  EXPECT_EQ(report.counters.at("ins_penalty_iterations"),
            static_cast<long long>(info.penalty.iterations));
  EXPECT_EQ(report.counters.at("ins_steps"), 1ll);
  // ins_step / pressure / cg / mg_vcycle / levelN / smoother: the hierarchy
  // resolves the full solver stack
  EXPECT_GE(report.depth(), 4u);
  EXPECT_NE(report.find("ins_step/pressure/cg"), nullptr);
}

TEST(INSSolverMisc, KineticEnergyDecaysForViscousFlow)
{
  EthierSteinman es;
  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());
  INSSolver<double> solver;
  run_es(solver, mesh, geom, es, 5e-3, 0.);
  const double e0 = kinetic_energy(solver.matrix_free(), 0, 0,
                                   solver.velocity());
  for (int i = 0; i < 10; ++i)
    solver.advance();
  const double e1 = kinetic_energy(solver.matrix_free(), 0, 0,
                                   solver.velocity());
  // ES decays like exp(-2 nu d^2 t): after t = 0.05, factor ~0.78
  EXPECT_LT(e1, e0);
  EXPECT_NEAR(e1 / e0, std::exp(-2. * es.nu * es.d * es.d * 0.05), 0.05);
}
