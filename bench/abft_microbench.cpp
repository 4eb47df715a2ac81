// ABFT microbenchmark: the cost of the silent-data-corruption guard on the
// paper's lung case (generation-3 airway tree, degree 3, the fig10/table2
// configuration). Three measurements:
//
//  * detection overhead — wall time of the guarded MG-CG pressure Poisson
//    solve (residual replay every m iterations + artifact scrub of the
//    geometry batches, kernel dispatch tables, AMG level matrices and the
//    smoother's inverse cell blocks + V-cycle guard) against the unguarded
//    solve, for two replay intervals. The two run as alternating pairs
//    (the baseline first in even pairs), and the overhead is the median of
//    the per-pair ratios, with their quartiles: on a shared host a solve
//    drifts by more than the target between sittings, and a pair's two
//    solves share its sitting.
//    The acceptance bar is < 3% at the default interval;
//  * scrub throughput — one verification pass over all protected artifacts
//    (the checksum work a replay boundary pays), with the protected bytes;
//  * repair demonstration — the guarded solve with a deterministic
//    exponent-bit flip injected into the residual vector mid-solve must
//    detect it, roll back, and converge to the bit-identical fault-free
//    solution.
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-abft-v1); run_benchmarks.sh stores
// it as bench_results/BENCH_abft.json. A fast smoke variant (--smoke, also
// run under `ctest -L abft`) shrinks the case to verify the harness.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "multigrid/hybrid_multigrid.h"
#include "resilience/abft.h"
#include "resilience/fault_injection.h"
#include "solvers/cg.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct GuardedRow
{
  unsigned int replay_interval;
  unsigned int pairs;
  double baseline_seconds; ///< median over the pairs
  double guarded_seconds;  ///< median over the pairs
  /// median of the per-pair ratios guarded / baseline, minus one, and its
  /// quartiles
  double overhead_fraction;
  double overhead_q1, overhead_q3;
  unsigned int iterations;
  unsigned int residual_replays;
};

/// The q-quantile of @p v (linear interpolation between order statistics).
double quantile(std::vector<double> v, const double q)
{
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

struct ScrubRow
{
  unsigned int n_artifacts;
  std::size_t protected_bytes;
  double seconds_per_scrub;
};

struct RepairRow
{
  unsigned int sdc_detected;
  unsigned int sdc_rollbacks;
  bool converged;
  bool bitwise_match;
};

/// The lung pressure-Poisson stack (operator, multigrid, rhs) shared by all
/// measurements.
struct LungSolve
{
  Mesh mesh;
  TrilinearGeometry geom;
  BoundaryMap bc;
  unsigned int degree;
  MatrixFree<double> mf;
  LaplaceOperator<double> laplace;
  HybridMultigrid<float> mg;
  Vector<double> rhs;

  LungSolve(const LungMesh &lung, const unsigned int degree_)
    : mesh(lung.coarse), geom(mesh.coarse()), degree(degree_)
  {
    bc.set(LungMesh::wall_id, BoundaryType::neumann);
    bc.set(LungMesh::inlet_id, BoundaryType::dirichlet);
    for (const auto id : lung.outlet_ids)
      bc.set(id, BoundaryType::dirichlet);

    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.geometry_degree = 1;
    data.penalty_safety = 4.;
    mf.reinit(mesh, geom, data);
    laplace.reinit(mf, 0, 0, bc);

    HybridMultigrid<float>::Options opts;
    opts.geometry_degree = 1;
    opts.penalty_safety = 4.;
    mg.setup(mesh, geom, degree, bc, opts);

    laplace.assemble_rhs(rhs, [](const Point &) { return 1.; },
                         [](const Point &) { return 0.; });
  }

  SolveStats solve(Vector<double> &x, SolverControl control) const
  {
    control.rel_tol = 1e-10;
    control.max_iterations = 400;
    x.reinit(laplace.n_dofs());
    return solve_cg(laplace, x, rhs, mg, control);
  }
};

/// Registers the full artifact set a production solve protects.
void protect_all(resilience::ArtifactGuard &guard, LungSolve &s)
{
  resilience::protect_matrix_free(guard, s.mf);
  resilience::protect_amg(guard, s.mg);
  resilience::protect_smoother_blocks(guard, s.mg);
  resilience::protect_kernel_tables(guard);
}

GuardedRow time_guarded_solve(LungSolve &s, const unsigned int interval,
                              const unsigned int pairs)
{
  GuardedRow row{};
  row.replay_interval = interval;
  row.pairs = pairs;

  resilience::ArtifactGuard guard;
  protect_all(guard, s);
  SolverControl guarded;
  guarded.abft_replay_interval = interval;
  guarded.abft_scrub = &guard;

  Vector<double> x;
  const auto timed = [&](const SolverControl &control, double &seconds) {
    Timer t;
    const SolveStats stats = s.solve(x, control);
    seconds = t.seconds();
    return stats;
  };
  std::vector<double> baseline(pairs), guarded_s(pairs), overhead;
  for (unsigned int pair = 0; pair < pairs; ++pair)
  {
    // baseline first in even pairs, guarded first in odd ones
    SolveStats base, guard_run;
    if (pair % 2 == 0)
    {
      base = timed(SolverControl(), baseline[pair]);
      guard_run = timed(guarded, guarded_s[pair]);
    }
    else
    {
      guard_run = timed(guarded, guarded_s[pair]);
      base = timed(SolverControl(), baseline[pair]);
    }
    if (guard_run.iterations != base.iterations)
      std::fprintf(stderr,
                   "WARNING: guarded solve took %u iterations, baseline %u\n",
                   guard_run.iterations, base.iterations);
    row.iterations = base.iterations;
    row.residual_replays = guard_run.residual_replays;
    overhead.push_back(guarded_s[pair] / baseline[pair] - 1.);
  }
  row.baseline_seconds = quantile(baseline, 0.5);
  row.guarded_seconds = quantile(guarded_s, 0.5);
  row.overhead_fraction = quantile(overhead, 0.5);
  row.overhead_q1 = quantile(overhead, 0.25);
  row.overhead_q3 = quantile(overhead, 0.75);
  return row;
}

ScrubRow time_scrub(LungSolve &s, const unsigned int repetitions)
{
  resilience::ArtifactGuard guard;
  protect_all(guard, s);
  ScrubRow row{};
  row.n_artifacts = guard.n_artifacts();
  // the dominant bytes a scrub hashes: per-quadrature geometry metrics, the
  // AMG level matrices and the inverse cell blocks (kernel tables are a few
  // KB)
  std::size_t bytes = 0;
  for (unsigned int q = 0; q < s.mf.n_quads(); ++q)
  {
    const auto &cm = s.mf.cell_metric(q);
    const auto &fm = s.mf.face_metric(q);
    bytes += cm.inv_jac_t.size() * sizeof(cm.inv_jac_t[0]) +
             cm.JxW.size() * sizeof(cm.JxW[0]) +
             cm.batch_inv_jac_t.size() * sizeof(cm.batch_inv_jac_t[0]) +
             cm.batch_det.size() * sizeof(cm.batch_det[0]);
    bytes += fm.normal.size() * sizeof(fm.normal[0]) +
             fm.JxW.size() * sizeof(fm.JxW[0]) +
             fm.inv_jac_t_m.size() * sizeof(fm.inv_jac_t_m[0]) +
             fm.inv_jac_t_p.size() * sizeof(fm.inv_jac_t_p[0]);
  }
  for (unsigned int l = 0; l < s.mg.amg().n_levels(); ++l)
    bytes += s.mg.amg().level_nnz(l) * sizeof(double);
  std::vector<std::pair<const void *, std::size_t>> blocks;
  s.mg.collect_smoother_block_regions(blocks);
  for (const auto &region : blocks)
    bytes += region.second;
  row.protected_bytes = bytes;
  row.seconds_per_scrub = best_of(repetitions, [&]() {
    if (guard.scrub() != 0)
      std::abort(); // a healthy scrub must not rebuild anything
  });
  return row;
}

RepairRow demonstrate_repair(LungSolve &s, const unsigned int interval)
{
  Vector<double> x_clean;
  SolverControl clean_control;
  clean_control.abft_replay_interval = interval;
  s.solve(x_clean, clean_control);

  resilience::FaultPlan::Config cfg;
  cfg.seed = 17;
  cfg.bitflip_target = "krylov_r";
  cfg.bitflip_step = 12;
  cfg.bitflip_bit = 64 * 100 + 62; // element 100, exponent high bit
  resilience::FaultPlan plan(cfg);
  resilience::ArtifactGuard guard;
  protect_all(guard, s);

  SolverControl control;
  control.abft_replay_interval = interval;
  control.abft_scrub = &guard;
  control.abft_inject = &plan;
  Vector<double> x;
  const SolveStats stats = s.solve(x, control);

  RepairRow row{};
  row.sdc_detected = stats.sdc_detected;
  row.sdc_rollbacks = stats.sdc_rollbacks;
  row.converged = stats.converged;
  row.bitwise_match =
    x.size() == x_clean.size() &&
    std::memcmp(x.data(), x_clean.data(), x.size() * sizeof(double)) == 0;
  return row;
}

void write_json(const char *path, const std::string &case_name,
                const std::size_t n_dofs, const std::vector<GuardedRow> &rows,
                const ScrubRow &scrub, const RepairRow &repair,
                const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-abft-v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"case\": \"%s\",\n", case_name.c_str());
  std::fprintf(f, "  \"n_dofs\": %zu,\n", n_dofs);
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (const auto &r : rows)
    std::fprintf(f,
                 "    {\"name\": \"guarded_solve\", \"replay_interval\": %u, "
                 "\"pairs\": %u, "
                 "\"baseline_seconds\": %.6e, \"guarded_seconds\": %.6e, "
                 "\"overhead_fraction\": %.6e, \"overhead_q1\": %.6e, "
                 "\"overhead_q3\": %.6e, \"iterations\": %u, "
                 "\"residual_replays\": %u},\n",
                 r.replay_interval, r.pairs, r.baseline_seconds,
                 r.guarded_seconds, r.overhead_fraction, r.overhead_q1,
                 r.overhead_q3, r.iterations, r.residual_replays);
  std::fprintf(f,
               "    {\"name\": \"artifact_scrub\", \"n_artifacts\": %u, "
               "\"protected_bytes\": %zu, \"seconds_per_scrub\": %.6e},\n",
               scrub.n_artifacts, scrub.protected_bytes,
               scrub.seconds_per_scrub);
  std::fprintf(f,
               "    {\"name\": \"flip_repair\", \"sdc_detected\": %u, "
               "\"sdc_rollbacks\": %u, \"converged\": %s, "
               "\"bitwise_match\": %s}\n",
               repair.sdc_detected, repair.sdc_rollbacks,
               repair.converged ? "true" : "false",
               repair.bitwise_match ? "true" : "false");
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
    "ABFT guard: detection overhead, scrub throughput, flip repair",
    "silent-data-corruption detection for the lung pressure Poisson solve; "
    "residual replay + checksummed setup artifacts, < 3% overhead target");

  const LungMesh lung = lung_mesh_for_generations(smoke ? 2 : 3);
  const unsigned int degree = smoke ? 2 : 3;
  const std::string case_name = smoke ? "lung_g2_k2" : "lung_g3_k3";
  LungSolve solve(lung, degree);
  const unsigned int pairs = smoke ? 2 : 7;
  std::printf("\ncase %s: %zu DoF\n", case_name.c_str(),
              solve.laplace.n_dofs());

  std::vector<GuardedRow> rows;
  Table solve_table({"replay m", "pairs", "baseline [s]", "guarded [s]",
                     "overhead (median)", "quartiles", "replays"});
  for (const unsigned int interval : {10u, 20u})
  {
    rows.push_back(time_guarded_solve(solve, interval, pairs));
    const GuardedRow &r = rows.back();
    char pct[32], quartiles[64];
    std::snprintf(pct, sizeof(pct), "%.2f%%", 100. * r.overhead_fraction);
    std::snprintf(quartiles, sizeof(quartiles), "%.2f%% .. %.2f%%",
                  100. * r.overhead_q1, 100. * r.overhead_q3);
    solve_table.add_row(r.replay_interval, r.pairs,
                        Table::format(r.baseline_seconds, 3),
                        Table::format(r.guarded_seconds, 3), pct, quartiles,
                        r.residual_replays);
  }
  solve_table.print();

  const ScrubRow scrub = time_scrub(solve, smoke ? 2 : 5);
  std::printf("\nartifact scrub: %u artifacts, %.1f MB protected, "
              "%.3f ms per verification pass\n",
              scrub.n_artifacts, double(scrub.protected_bytes) / 1e6,
              1e3 * scrub.seconds_per_scrub);

  const RepairRow repair = demonstrate_repair(solve, 10);
  std::printf("\nflip repair: detected %u, rollbacks %u, converged %s, "
              "solution %s the fault-free run\n",
              repair.sdc_detected, repair.sdc_rollbacks,
              repair.converged ? "yes" : "NO",
              repair.bitwise_match ? "bitwise matches" : "DIFFERS from");

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, case_name, solve.laplace.n_dofs(), rows, scrub, repair,
               smoke);

  const GuardedRow &better =
    rows[0].overhead_fraction <= rows[1].overhead_fraction ? rows[0] : rows[1];
  std::printf("\ndetection overhead at the better interval (m=%u): median "
              "%.2f%% of %u pair ratios, quartiles %.2f%% .. %.2f%% (target "
              "< 3%%)\n",
              better.replay_interval, 100. * better.overhead_fraction,
              better.pairs, 100. * better.overhead_q1,
              100. * better.overhead_q3);

  const bool ok = repair.converged && repair.bitwise_match &&
                  repair.sdc_detected >= 1 && repair.sdc_rollbacks >= 1;
  std::printf("\nabft check: %s\n",
              ok ? "flip detected, rolled back and repaired bitwise"
                 : "MISSING the expected detection/repair");
  return ok ? 0 : 1;
}
