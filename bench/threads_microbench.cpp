// Shared-memory thread scaling of the matrix-free solver stack on the lung
// geometry: times the SIP Laplace vmult and a fused Jacobi-CG solve
// (degree 3, the paper's production configuration) at 1/2/4 pool threads
// and cross-checks that every threaded result is BITWISE identical to the
// single-threaded sweep — the determinism contract of the thread-parallel
// cell loops (docs/DEVELOPING.md, "Shared-memory parallel loops"). A
// region-latency section times back-to-back run_chunks(4) regions at width
// 4 whose chunks carry 5/20/50 us of arithmetic each, and reports the
// median region time against the chunk time: the pool's fork/join cost
// with work in the chunks, which an empty region does not show.
//
// The speedup columns report honest wall-clock measurements of THIS
// machine; on a single-core container the threaded sweeps time-slice one
// core and the speedup saturates at ~1x — the bitwise check is the
// correctness gate, the scaling numbers document the hardware.
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-threads-v2); run_benchmarks.sh
// stores it as bench_results/BENCH_threads.json. The fast --smoke variant
// (also run under `ctest -L perf`) shrinks the mesh and repetitions to
// verify harness and bitwise gate end to end.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "concurrency/thread_pool.h"
#include "operators/laplace_operator.h"
#include "solvers/cg.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct Result
{
  std::string name;
  unsigned int n_threads;
  std::size_t n_dofs;
  double seconds;
  double dofs_per_s;
  double speedup; ///< vs the 1-thread row of the same kernel
  bool bitwise;   ///< memcmp-equal to the 1-thread result
};

/// Median region time of back-to-back run_chunks(4) regions at width 4
/// whose chunks each run chunk_target_us of arithmetic.
struct RegionLatency
{
  double chunk_target_us;
  double chunk_s;  ///< median time of one chunk run inline
  double region_s; ///< median time of one region of four such chunks
};

bool bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double seconds_now()
{
  return std::chrono::duration<double>(
           std::chrono::steady_clock::now().time_since_epoch())
    .count();
}

double median_of(std::vector<double> v)
{
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Dependent arithmetic the compiler cannot fold: @p n steps of a
/// logistic-map recurrence.
double arithmetic(const unsigned long n, double x)
{
  for (unsigned long i = 0; i < n; ++i)
    x = 3.9 * x * (1. - x);
  return x;
}

std::vector<RegionLatency> measure_region_latency(const bool smoke)
{
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  const unsigned int n_regions = smoke ? 200 : 4000;
  // calibrate the arithmetic's rate on the calling thread (the first pass
  // warms the core up)
  const unsigned long calib = 1ul << 20;
  volatile double sink = 0.;
  double t0 = 0., per_step = 0.;
  for (unsigned int pass = 0; pass < 2; ++pass)
  {
    t0 = seconds_now();
    sink = arithmetic(calib, 0.3);
    per_step = (seconds_now() - t0) / double(calib);
  }

  std::vector<RegionLatency> rows;
  for (const double target_us : {5., 20., 50.})
  {
    const unsigned long steps =
      static_cast<unsigned long>(target_us * 1e-6 / per_step);
    std::vector<double> chunk_t(n_regions / 4), region_t(n_regions);
    for (double &t : chunk_t)
    {
      t0 = seconds_now();
      sink = arithmetic(steps, 0.3);
      t = seconds_now() - t0;
    }
    double out[4] = {0., 0., 0., 0.};
    for (double &t : region_t)
    {
      t0 = seconds_now();
      pool.run_chunks(4, [&](const unsigned int c) {
        out[c] = arithmetic(steps, 0.3 + 0.01 * c);
      });
      t = seconds_now() - t0;
    }
    sink = out[0] + out[1] + out[2] + out[3];
    rows.push_back({target_us, median_of(chunk_t), median_of(region_t)});
  }
  (void)sink;
  return rows;
}

void write_json(const char *path, const std::vector<Result> &results,
                const std::vector<RegionLatency> &latency,
                const double vmult_speedup4, const double cg_speedup4,
                const bool all_bitwise, const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-threads-v2\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"vmult_speedup_4_threads\": %.6g,\n", vmult_speedup4);
  std::fprintf(f, "  \"cg_speedup_4_threads\": %.6g,\n", cg_speedup4);
  std::fprintf(f, "  \"bitwise_identical\": %s,\n",
               all_bitwise ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i)
  {
    const Result &r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"n_threads\": %u, "
                 "\"n_dofs\": %zu, \"seconds\": %.6e, "
                 "\"dofs_per_s\": %.6e, \"speedup\": %.6g, "
                 "\"bitwise\": %s}%s\n",
                 r.name.c_str(), r.n_threads, r.n_dofs, r.seconds,
                 r.dofs_per_s, r.speedup, r.bitwise ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"region_latency\": [\n");
  for (std::size_t i = 0; i < latency.size(); ++i)
    std::fprintf(f,
                 "    {\"n_threads\": 4, \"n_chunks\": 4, "
                 "\"chunk_target_us\": %.0f, \"chunk_s\": %.6e, "
                 "\"region_median_s\": %.6e}%s\n",
                 latency[i].chunk_target_us, latency[i].chunk_s,
                 latency[i].region_s, i + 1 < latency.size() ? "," : "");
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
    "Thread scaling: SIP Laplace vmult + fused Jacobi-CG, lung g=3, k=3",
    "shared-memory parallel cell loops: bitwise-deterministic speedup "
    "at 1/2/4 threads");
  std::printf("hardware concurrency: %u\n",
              std::thread::hardware_concurrency());

  const unsigned int degree = 3;
  const LungMesh lung = lung_mesh_for_generations(smoke ? 1 : 3);
  Mesh mesh(lung.coarse);
  if (!smoke)
    while (mesh.n_active_cells() * pow_int(degree + 1, 3) < 2e5)
      mesh.refine_uniform(1);
  TrilinearGeometry geom(mesh.coarse());

  BoundaryMap bc;
  bc.set(LungMesh::wall_id, BoundaryType::neumann);
  bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
  for (const auto id : lung.outlet_ids)
    bc.set(id, BoundaryType::dirichlet);

  const unsigned int rounds = smoke ? 2 : 5;
  const std::vector<unsigned int> thread_counts = {1, 2, 4};
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int pool_width0 = pool.n_threads();

  std::vector<Result> results;
  Table table({"threads", "MDoF", "vmult [DoF/s]", "vmult speedup",
               "CG [it/s]", "CG speedup", "bitwise"});

  Vector<double> dst_ref, x_ref;
  double vmult_t1 = 0., cg_t1 = 0.;
  double vmult_speedup4 = 0., cg_speedup4 = 0.;
  bool all_bitwise = true;

  for (const unsigned int nt : thread_counts)
  {
    pool.set_n_threads(nt);
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.geometry_degree = 1;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);

    Vector<double> src(laplace.n_dofs()), dst(laplace.n_dofs());
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = std::sin(0.37 * double(i)) + 0.1;
    const std::size_t n_dofs = laplace.n_dofs();

    const unsigned int n_mv =
      std::max<std::size_t>(smoke ? 1 : 3, 4e6 / n_dofs);
    const double t_vmult = best_of(rounds, [&]() {
                             for (unsigned int i = 0; i < n_mv; ++i)
                               laplace.vmult(dst, src);
                           }) /
                           n_mv;

    // fused CG: Jacobi-preconditioned, hooks folded into the cell loop
    Vector<double> diag;
    laplace.compute_diagonal(diag);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(diag);
    SolverControl control;
    control.max_iterations = smoke ? 5 : 25;
    control.rel_tol = 1e-12;
    Vector<double> x(n_dofs);
    SolveStats stats;
    const double t_cg = best_of(rounds, [&]() {
      x = 0.;
      stats = solve_cg(laplace, x, src, jacobi, control);
    });
    const double it_per_s = double(std::max(1u, stats.iterations)) / t_cg;

    Result rv{"laplace_vmult", nt, n_dofs, t_vmult, double(n_dofs) / t_vmult,
              1., true};
    Result rc{"fused_cg", nt, n_dofs, t_cg, it_per_s, 1., true};
    if (nt == 1)
    {
      dst_ref.reinit(n_dofs, true);
      dst_ref.equ(1., dst);
      x_ref.reinit(n_dofs, true);
      x_ref.equ(1., x);
      vmult_t1 = t_vmult;
      cg_t1 = t_cg;
    }
    else
    {
      rv.bitwise = bitwise_equal(dst, dst_ref);
      rc.bitwise = bitwise_equal(x, x_ref);
      rv.speedup = vmult_t1 / t_vmult;
      rc.speedup = cg_t1 / t_cg;
      all_bitwise = all_bitwise && rv.bitwise && rc.bitwise;
      if (nt == 4)
      {
        vmult_speedup4 = rv.speedup;
        cg_speedup4 = rc.speedup;
      }
    }
    results.push_back(rv);
    results.push_back(rc);

    table.add_row(nt, Table::format(n_dofs / 1e6, 3),
                  Table::sci(rv.dofs_per_s, 3), Table::format(rv.speedup, 2),
                  Table::format(it_per_s, 2), Table::format(rc.speedup, 2),
                  rv.bitwise && rc.bitwise ? "yes" : "NO");
  }
  table.print();

  const std::vector<RegionLatency> latency = measure_region_latency(smoke);
  pool.set_n_threads(pool_width0);
  std::printf("\nregion latency: back-to-back run_chunks(4) at 4 threads "
              "(medians)\n");
  Table latency_table({"chunk target [us]", "chunk [us]", "region [us]",
                       "region - chunk [us]"});
  for (const RegionLatency &r : latency)
    latency_table.add_row(Table::format(r.chunk_target_us, 3),
                          Table::format(1e6 * r.chunk_s, 3),
                          Table::format(1e6 * r.region_s, 3),
                          Table::format(1e6 * (r.region_s - r.chunk_s), 3));
  latency_table.print();

  std::printf("\nbitwise determinism gate: %s\n",
              all_bitwise ? "PASS (all threaded results memcmp-equal to "
                            "1 thread)"
                          : "FAIL");
  std::printf("4-thread speedup (this machine, %u hardware threads): "
              "vmult %.2fx, fused CG %.2fx\n",
              std::thread::hardware_concurrency(), vmult_speedup4,
              cg_speedup4);

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, results, latency, vmult_speedup4, cg_speedup4,
               all_bitwise, smoke);

  return all_bitwise ? 0 : 1;
}
