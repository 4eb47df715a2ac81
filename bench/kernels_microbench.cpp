// Micro-kernel and fast-path benchmark behind the roofline analysis
// (Figs. 6-7): times the SIP Laplace vmult per polynomial degree on a
// structured Cartesian mesh in three configurations -
//   generic:    runtime-extent kernels, full per-q metric
//   specialized: compile-time kernel dispatch, full per-q metric
//   spec+compr: compile-time kernels + per-batch compressed metric
// and reports DoF/s, bytes/DoF, and the speedup over the generic path. The
// kernel flavor is the per-MatrixFree AdditionalData::backend (generic vs
// batch, fem/kernel_backend.h).
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-kernels-v2) for cross-PR diffing;
// run_benchmarks.sh stores it as bench_results/BENCH_kernels.json.
// A fast smoke variant (--smoke, also run under `ctest -L perf`) shrinks
// meshes and repetitions to verify the harness end to end.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "fem/kernel_backend.h"
#include "operators/laplace_operator.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct Result
{
  std::string name = "laplace_vmult";
  unsigned int degree, n_q_1d;
  std::string config;
  std::size_t n_dofs;
  double seconds;      ///< best time of one vmult
  double dofs_per_s;
  double bytes_per_dof; ///< model estimate from the stored metric
};

BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

/// Times the three configurations for one degree with the rounds
/// interleaved (generic / specialized / spec+compr, generic / ... ) and the
/// per-config minimum taken across rounds: on a shared machine the load
/// drifts over seconds, so timing each config en bloc would compare
/// different machine states and make the speedup ratio unstable.
std::vector<Result> time_laplace_configs(const Mesh &mesh,
                                         const unsigned int degree,
                                         const unsigned int rounds)
{
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.geometry_degree = 1;

  struct Config
  {
    const char *name;
    KernelBackendType backend;
    bool compress;
  };
  const Config configs[3] = {
    {"generic", KernelBackendType::generic, false},
    {"specialized", KernelBackendType::batch, false},
    {"specialized_compressed", KernelBackendType::batch, true},
  };
  MatrixFree<double> mf[3];
  LaplaceOperator<double> ops[3];
  for (unsigned int c = 0; c < 3; ++c)
  {
    data.backend = configs[c].backend;
    data.compress_geometry = configs[c].compress;
    mf[c].reinit(mesh, geom, data);
    ops[c].reinit(mf[c], 0, 0, all_dirichlet());
  }
  Vector<double> src(ops[0].n_dofs()), dst(ops[0].n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = 0.3 + 1e-6 * (i % 1001);

  const std::size_t n_dofs = ops[0].n_dofs();
  const unsigned int n_mv = std::max<std::size_t>(2, 4e6 / n_dofs);
  double best[3] = {1e300, 1e300, 1e300};
  for (unsigned int round = 0; round < rounds; ++round)
    for (unsigned int c = 0; c < 3; ++c)
    {
      const double t = best_of(1, [&]() {
                         for (unsigned int i = 0; i < n_mv; ++i)
                           ops[c].vmult(dst, src);
                       }) /
                       n_mv;
      if (t < best[c])
        best[c] = t;
    }

  std::vector<Result> results;
  for (unsigned int c = 0; c < 3; ++c)
  {
    Result r;
    r.degree = degree;
    r.n_q_1d = degree + 1;
    r.config = configs[c].name;
    r.n_dofs = n_dofs;
    r.seconds = best[c];
    r.dofs_per_s = double(n_dofs) / best[c];
    r.bytes_per_dof = mf[c].estimated_vmult_bytes_per_dof(0, 0);
    results.push_back(r);
  }
  return results;
}

void write_json(const char *path, const std::vector<Result> &results,
                const double speedup_k5, const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-kernels-v2\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"speedup_degree5_specialized_compressed_vs_generic\": "
                  "%.6g,\n",
               speedup_k5);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i)
  {
    const Result &r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"degree\": %u, "
                 "\"n_q_1d\": %u, \"config\": \"%s\", \"n_dofs\": %zu, "
                 "\"seconds\": %.6e, \"dofs_per_s\": %.6e, "
                 "\"bytes_per_dof\": %.6g}%s\n",
                 r.name.c_str(), r.degree, r.n_q_1d, r.config.c_str(),
                 r.n_dofs, r.seconds, r.dofs_per_s, r.bytes_per_dof,
                 i + 1 < results.size() ? "," : "");
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

  print_header(
    "Kernel fast paths: SIP Laplace vmult, Cartesian mesh, per degree",
    "paper Sec. 3.1/3.2: fixed-size kernels + compressed metric keep the "
    "mat-vec near the memory roofline; expect the largest gain at high k");

  const std::vector<unsigned int> degrees =
    smoke ? std::vector<unsigned int>{2, 5}
          : std::vector<unsigned int>{2, 3, 4, 5};
  const unsigned int rounds = smoke ? 2 : 7;

  Table table({"k", "MDoF", "generic [DoF/s]", "specialized [DoF/s]",
               "spec+compr [DoF/s]", "speedup", "B/DoF full", "B/DoF compr"});

  std::vector<Result> results;
  double speedup_k5 = 0;
  for (const unsigned int degree : degrees)
  {
    // size the mesh so the full per-q metric exceeds the last-level cache:
    // the compressed metric stays resident while the generic path streams,
    // which is the regime the roofline analysis (Fig. 7) argues about
    Mesh mesh(unit_cube());
    const unsigned int refines = smoke ? 2u : (degree <= 3 ? 5u : 4u);
    mesh.refine_uniform(refines);

    const auto degree_results = time_laplace_configs(mesh, degree, rounds);
    const Result &generic = degree_results[0];
    const Result &spec = degree_results[1];
    const Result &spec_compr = degree_results[2];
    results.insert(results.end(), degree_results.begin(),
                   degree_results.end());

    const double speedup = spec_compr.dofs_per_s / generic.dofs_per_s;
    if (degree == 5)
      speedup_k5 = speedup;
    table.add_row(degree, Table::format(generic.n_dofs / 1e6, 3),
                  Table::sci(generic.dofs_per_s, 3),
                  Table::sci(spec.dofs_per_s, 3),
                  Table::sci(spec_compr.dofs_per_s, 3),
                  Table::format(speedup, 2),
                  Table::format(generic.bytes_per_dof, 1),
                  Table::format(spec_compr.bytes_per_dof, 1));
  }
  table.print();

  std::printf("\nacceptance target: k=5 specialized+compressed >= 1.5x "
              "generic (measured: %.2fx)\n",
              speedup_k5);

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, results, speedup_k5, smoke);

  // the smoke run is a harness check, not a performance gate
  if (smoke)
    return 0;
  return 0;
}
