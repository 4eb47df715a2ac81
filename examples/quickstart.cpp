// Quickstart: solve a Poisson problem with the matrix-free high-order DG
// discretization and the hybrid multigrid preconditioner - the minimal tour
// of the dgflow public API:
//
//   mesh       -> forest-of-octrees over a coarse hex mesh
//   geometry   -> smooth map per coarse cell (here: a deformed cube)
//   MatrixFree -> SIMD cell/face batches + metric terms
//   LaplaceOperator / HybridMultigrid / solve_cg
//
// Build and run:  ./examples/quickstart [refinements] [degree]
// with degree 1 to 8: the multigrid smoother stores (degree+1)^6 floats per
// cell on the finest level (187 KB per cell at degree 5, 2.1 MB at degree 8)

#include <cstdio>

#include "common/timer.h"
#include "instrumentation/profiler.h"
#include "mesh/generators.h"
#include "multigrid/hybrid_multigrid.h"
#include "solvers/cg.h"

using namespace dgflow;

int main(int argc, char **argv)
{
  // DGFLOW_PROFILE=1 prints the hierarchical profile at exit and
  // DGFLOW_PROFILE_JSON=<path> archives it as JSON
  prof::EnvSession profile_session;
  const unsigned int refinements = argc > 1 ? std::atoi(argv[1]) : 3;
  const unsigned int degree = argc > 2 ? std::atoi(argv[2]) : 3;

  // a cube, uniformly refined, with a smooth deformation
  Mesh mesh(unit_cube());
  mesh.refine_uniform(refinements);
  AnalyticGeometry geometry([](index_t, const Point &p) {
    return Point(p[0] + 0.08 * std::sin(M_PI * p[0]) * p[1],
                 p[1] - 0.05 * p[0] * p[2], p[2] + 0.04 * p[1]);
  });

  // matrix-free data: one DG space of the chosen degree, collocated Gauss
  // quadrature
  MatrixFree<double> matrix_free;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  matrix_free.reinit(mesh, geometry, data);

  // -laplace(u) = f with Dirichlet boundaries, manufactured solution
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  LaplaceOperator<double> laplace;
  laplace.reinit(matrix_free, 0, 0, bc);

  const auto exact = [](const Point &p) {
    return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
           std::sin(M_PI * p[2]);
  };
  Vector<double> rhs, solution(laplace.n_dofs());
  laplace.assemble_rhs(
    rhs, [&](const Point &p) { return 3 * M_PI * M_PI * exact(p); }, exact);

  // hybrid multigrid preconditioner: DG p-coarsening -> continuous Q1 ->
  // global h-coarsening -> algebraic coarse solve, V-cycle in single
  // precision
  HybridMultigrid<float> multigrid;
  Timer setup_timer;
  multigrid.setup(mesh, geometry, degree, bc);
  const double t_setup = setup_timer.seconds();

  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 100;
  Timer solve_timer;
  const SolveStats result = solve_cg(laplace, solution, rhs, multigrid,
                                     control);
  const double t_solve = solve_timer.seconds();

  const double error = l2_error(matrix_free, 0, 0, solution, exact);

  std::printf("dgflow quickstart\n");
  std::printf("  cells               %u\n", mesh.n_active_cells());
  std::printf("  degree              %u\n", degree);
  std::printf("  dofs                %zu\n", laplace.n_dofs());
  std::printf("  multigrid levels    %u\n", multigrid.n_levels());
  std::printf("  setup time          %.3f s\n", t_setup);
  std::printf("  CG iterations       %u (tol 1e-10)\n", result.iterations);
  std::printf("  solve time          %.3f s  (%.3g MDoF/s per iteration)\n",
              t_solve,
              laplace.n_dofs() * result.iterations / t_solve / 1e6);
  std::printf("  L2 error            %.3e\n", error);
  return 0;
}
