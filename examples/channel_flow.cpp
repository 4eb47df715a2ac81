// Pressure-driven channel flow (plane Poiseuille): the incompressible
// Navier-Stokes solver with pressure in/outflow boundaries develops the
// analytic parabolic profile from rest; the volume flux converges to the
// closed-form value G/(12 nu) - the same laminar-resistance physics that
// calibrates the lung outlet models.
//
// Run: ./examples/channel_flow [end_time]

#include <cstdio>

#include "incns/analytic_flows.h"
#include "incns/solver.h"
#include "instrumentation/profiler.h"
#include "mesh/generators.h"

using namespace dgflow;

int main(int argc, char **argv)
{
  prof::EnvSession profile_session;
  const double end_time = argc > 1 ? std::atof(argv[1]) : 1.5;

  PoiseuilleChannel channel;
  channel.G = 1.;
  channel.nu = 1.;

  Mesh mesh(subdivided_box(Point(0, 0, 0), Point(1, 1, 1), {{1, 1, 1}}));
  mesh.refine_uniform(2);
  TrilinearGeometry geometry(mesh.coarse());

  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 0 || id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [&channel, id](const Point &, double) {
        return id == 0 ? channel.G : 0.;
      };
    }
    else if (id == 2 || id == 3)
      b.kind = FlowBoundary::Kind::velocity_dirichlet; // no-slip: no data
    else
    {
      b.kind = FlowBoundary::Kind::velocity_dirichlet;
      b.velocity = [&channel](const Point &p, double) {
        return channel.velocity(p); // z-faces carry the analytic profile
      };
    }
    bc[id] = b;
  }

  INSSolver<double>::Parameters prm;
  prm.degree = 3;
  prm.viscosity = channel.nu;
  prm.cfl = 0.3;
  prm.max_dt = 0.01;

  INSSolver<double> solver;
  solver.setup(mesh, geometry, bc, prm);
  solver.set_initial_condition([](const Point &) { return Tensor1<double>(); });

  std::printf("channel flow: %u cells, %zu velocity dofs, analytic flux %.6f\n",
              mesh.n_active_cells(), solver.matrix_free().n_dofs(0, 3),
              channel.flux());
  std::printf("%10s %12s %12s %10s\n", "time", "flux out", "flux error",
              "p iters");
  double next_report = 0.;
  while (solver.time() < end_time)
  {
    const auto info = solver.advance();
    if (info.time >= next_report)
    {
      const double flux = solver.boundary_flux(1);
      std::printf("%10.3f %12.6f %11.2f%% %10u\n", info.time, flux,
                  100. * (flux - channel.flux()) / channel.flux(),
                  info.pressure.iterations);
      next_report += end_time / 10.;
    }
  }
  const double err = l2_error_vector(
    solver.matrix_free(), 0, 0, solver.velocity(),
    [&](const Point &p) { return channel.velocity(p); });
  std::printf("final velocity L2 error vs analytic: %.3e\n", err);
  return 0;
}
