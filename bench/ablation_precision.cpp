// Ablation of the end-to-end mixed-precision solver stack (paper Section
// 3.4): the outer CG stays double while the preconditioner drops precision
// in stages -
//   dp:        double V-cycle, double AMG coarse solve
//   sp_levels: float V-cycle, double AMG (the paper's configuration)
// Iteration counts must not degrade (the paper cites [44]) while each stage
// removes memory traffic. Run on the unit cube and on the lung geometry
// (the acceptance case: SP-preconditioned DP CG within +-1 iteration of
// full DP).
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-precision-v2); run_benchmarks.sh
// stores it as bench_results/BENCH_precision.json. A fast smoke variant
// (--smoke, also run under `ctest -L perf`) shrinks the cases to verify the
// harness end to end.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "multigrid/hybrid_multigrid.h"
#include "solvers/cg.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct Result
{
  std::string case_name;
  std::string config;
  std::size_t n_dofs;
  unsigned int iterations;
  double seconds;
};

struct Case
{
  std::string name;
  const Mesh *mesh;
  const Geometry *geom;
  const BoundaryMap *bc;
  unsigned int degree;
  double penalty_safety;
  unsigned int repetitions;
};

template <typename LevelNumber>
Result run_mg_config(const Case &c, const char *config)
{
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {c.degree};
  data.n_q_points_1d = {c.degree + 1};
  data.geometry_degree = 1;
  data.penalty_safety = c.penalty_safety;
  mf.reinit(*c.mesh, *c.geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, *c.bc);

  HybridMultigrid<LevelNumber> mg;
  typename HybridMultigrid<LevelNumber>::Options opts;
  opts.geometry_degree = 1;
  opts.penalty_safety = c.penalty_safety;
  mg.setup(*c.mesh, *c.geom, c.degree, *c.bc, opts);

  Vector<double> rhs, x(laplace.n_dofs());
  laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                       [](const Point &) { return 0.; });
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 4000;

  Result r;
  r.case_name = c.name;
  r.config = config;
  r.n_dofs = laplace.n_dofs();

  solve_cg(laplace, x, rhs, mg, control); // warm-up
  r.seconds = best_of(c.repetitions, [&]() {
    x = 0.;
    r.iterations = solve_cg(laplace, x, rhs, mg, control).iterations;
  });
  return r;
}

void write_json(const char *path, const std::vector<Result> &results,
                const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  int lung_dp = -1, lung_sp = -1;
  for (const Result &r : results)
  {
    if (r.case_name == "lung_g3_k3" && r.config == "dp")
      lung_dp = int(r.iterations);
    if (r.case_name == "lung_g3_k3" && r.config == "sp_levels")
      lung_sp = int(r.iterations);
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-precision-v2\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"lung_cg_iterations_dp\": %d,\n", lung_dp);
  std::fprintf(f, "  \"lung_cg_iterations_sp_levels\": %d,\n", lung_sp);
  std::fprintf(f, "  \"lung_iteration_delta_sp_vs_dp\": %d,\n",
               (lung_dp >= 0 && lung_sp >= 0) ? lung_sp - lung_dp : 9999);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i)
  {
    const Result &r = results[i];
    std::fprintf(f,
                 "    {\"case\": \"%s\", \"config\": \"%s\", \"n_dofs\": "
                 "%zu, \"iterations\": %u, \"seconds\": %.6e}%s\n",
                 r.case_name.c_str(), r.config.c_str(), r.n_dofs,
                 r.iterations, r.seconds, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("benchmark JSON archived to %s\n", path);
}
} // namespace

int main(int argc, char **argv)
{
  dgflow::prof::EnvSession profile_session;
  const bool smoke = (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) ||
                     std::getenv("DGFLOW_BENCH_SMOKE") != nullptr;

  print_header("Ablation: mixed-precision multigrid",
               "paper Section 3.4: dropping the V-cycle to single precision "
               "must not affect CG convergence");

  std::vector<Result> results;

  // case 1: unit cube, all-Dirichlet
  Mesh cube_mesh(unit_cube());
  cube_mesh.refine_uniform(smoke ? 2 : 3);
  TrilinearGeometry cube_geom(cube_mesh.coarse());
  BoundaryMap cube_bc;
  for (unsigned int id = 0; id < 6; ++id)
    cube_bc.set(id, BoundaryType::dirichlet);
  Case cube{"cube_k2", &cube_mesh, &cube_geom, &cube_bc, 2, 2.,
            smoke ? 1u : 3u};

  // case 2: lung airway tree (fig10's g=3 configuration), the acceptance
  // case for the +-1-iteration criterion
  const LungMesh lung = lung_mesh_for_generations(smoke ? 2 : 3);
  BoundaryMap lung_bc;
  lung_bc.set(LungMesh::wall_id, BoundaryType::neumann);
  lung_bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    lung_bc.set(id, BoundaryType::dirichlet);
  Mesh lung_mesh(lung.coarse);
  TrilinearGeometry lung_geom(lung_mesh.coarse());
  Case lung_case{"lung_g3_k3", &lung_mesh,          &lung_geom, &lung_bc, 3,
                 4.,           smoke ? 1u : 2u};

  for (const Case &c : {cube, lung_case})
  {
    Table table({"preconditioner precision", "CG its", "solve [s]",
                 "DoF/s per iteration"});
    results.push_back(run_mg_config<double>(c, "dp"));
    results.push_back(run_mg_config<float>(c, "sp_levels"));
    for (std::size_t i = results.size() - 2; i < results.size(); ++i)
    {
      const Result &r = results[i];
      table.add_row(r.config.c_str(), r.iterations,
                    Table::format(r.seconds, 3),
                    Table::sci(double(r.n_dofs) * r.iterations / r.seconds,
                               3));
    }
    std::printf("\ncase %s (%zu DoF):\n", c.name.c_str(),
                results.back().n_dofs);
    table.print();
  }

  std::printf("\nexpected: iteration counts within +-1 across both "
              "configurations.\n");

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, results, smoke);
  return 0;
}
