// Unsteady Navier-Stokes accuracy demonstration on the Ethier-Steinman
// (Beltrami) flow: an exact three-dimensional solution of the incompressible
// equations. The run reports the velocity and pressure errors against the
// analytic solution over time and demonstrates the second-order dual
// splitting scheme with the consistent (rotational) pressure boundary
// condition.
//
// Run: ./examples/beltrami_flow [degree] [dt]

#include <cstdio>

#include "incns/analytic_flows.h"
#include "incns/solver.h"
#include "instrumentation/profiler.h"
#include "mesh/generators.h"

using namespace dgflow;

int main(int argc, char **argv)
{
  prof::EnvSession profile_session;
  const unsigned int degree = argc > 1 ? std::atoi(argv[1]) : 4;
  const double dt = argc > 2 ? std::atof(argv[2]) : 2e-3;
  const double end_time = 0.1;

  EthierSteinman es;

  Mesh mesh(unit_cube());
  mesh.refine_uniform(1);
  TrilinearGeometry geometry(mesh.coarse());

  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [es](const Point &p, double t) { return es.pressure(p, t); };
      b.backflow_stabilization = false; // analytic in/outflow
    }
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [es](const Point &p, double t) { return es.velocity(p, t); };
    }
    bc[id] = b;
  }

  INSSolver<double>::Parameters prm;
  prm.degree = degree;
  prm.viscosity = es.nu;
  prm.fixed_dt = dt;
  prm.rel_tol = 1e-9;
  prm.velocity_neumann_data = [es](const Point &p, double t) {
    const auto g = es.velocity_gradient(p, t);
    return Tensor1<double>(g[0][0], g[1][0], g[2][0]);
  };

  INSSolver<double> solver;
  solver.setup(mesh, geometry, bc, prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });

  std::printf("Ethier-Steinman flow: degree %u, dt = %g, nu = %g\n", degree,
              dt, es.nu);
  std::printf("%10s %14s %14s %12s\n", "time", "u error", "p error",
              "div(u)");
  unsigned int step = 0;
  const unsigned int report_every =
    std::max(1u, static_cast<unsigned int>(end_time / dt / 10));
  while (solver.time() < end_time - 1e-12)
  {
    solver.advance();
    if (++step % report_every == 0)
    {
      const double t = solver.time();
      const double eu = l2_error_vector(
        solver.matrix_free(), 0, 0, solver.velocity(),
        [&](const Point &p) { return es.velocity(p, t); });
      const double ep =
        l2_error(solver.matrix_free(), 1, 1, solver.pressure(),
                 [&](const Point &p) { return es.pressure(p, t); });
      std::printf("%10.4f %14.4e %14.4e %12.3e\n", t, eu, ep,
                  solver.divergence_l2());
    }
  }
  return 0;
}
