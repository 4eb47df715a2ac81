// Recovery-path microbenchmark: the cost of the rank-failure tolerance
// machinery added for distributed solves. Three measurements:
//
//  * agree-round latency on 2/4/8 logical ranks — one
//    Communicator::agree() is the unit cost a solver pays at every probed
//    iteration boundary (SolverControl::recovery with the default stride),
//    so this latency bounds the steady-state overhead of failure detection;
//  * shard-checkpoint write and read throughput — rankN.ckpt shards plus
//    manifest for a distributed field, the state a shrinking recovery
//    restores from;
//  * end-to-end recovery overhead — wall time of a 4-rank Jacobi-CG Poisson
//    solve that loses a rank mid-solve and completes by shrinking to 3,
//    against the fault-free 4-rank solve;
//  * sync-vs-async checkpoint stall — the solver-visible cost of one
//    checkpoint through the AsyncCheckpointer when the caller waits for
//    the write (sync: submit() then drain()) vs when it only hands the
//    image over (async: submit() alone), both bare and under an injected
//    5 ms slow-disk stall (tmpfs makes fsync nearly free, so the injected
//    row is the one that represents a real disk and the one the exit code
//    gates on: async must cut the stall by at least 5x);
//  * restore latency by fall-back depth — newest_valid_generation() scan
//    plus state read when the top d generations of the ring are corrupted
//    and recovery falls back d steps.
//
// Machine-readable output: when DGFLOW_BENCH_JSON is set, the results are
// archived as JSON (schema dgflow-bench-recovery-v1); run_benchmarks.sh
// stores it as bench_results/BENCH_recovery.json. A fast smoke variant
// (--smoke, also run under `ctest -L distributed_resilience`) shrinks the
// problem and repetitions to verify the harness end to end.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "operators/laplace_operator.h"
#include "resilience/checkpoint.h"
#include "resilience/ckpt_io.h"
#include "resilience/ckpt_store.h"
#include "resilience/distributed_recovery.h"
#include "resilience/fault_injection.h"
#include "resilience/shard_checkpoint.h"
#include "solvers/cg.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;
using namespace dgflow::bench;

namespace
{
struct AgreeResultRow
{
  int n_ranks;
  unsigned int rounds;
  double seconds_per_round;
};

struct CheckpointRow
{
  std::size_t n_dofs;
  int n_shards;
  double write_bytes_per_s;
  double read_bytes_per_s;
};

struct RecoveryRow
{
  double faultfree_seconds;
  double recovered_seconds;
  int attempts;
  int shrinks;
};

struct StallRow
{
  const char *mode;        ///< "sync" or "async"
  double injected_stall_ms; ///< 0: bare local disk
  unsigned int n_ckpts;
  double stall_per_ckpt; ///< solver-visible seconds per submit()
};

struct RestoreRow
{
  int fallback_depth; ///< corrupted newest generations skipped by the scan
  double seconds;     ///< newest_valid_generation() + state read
};

/// Solver-visible checkpoint stall: mean time one checkpoint blocks the
/// calling thread, publishing @p n_ckpts generations of @p n_doubles
/// payload — submit() alone when @p async, submit() followed by drain()
/// (a synchronous checkpoint) otherwise. @p stall_ms > 0 injects a
/// per-write slow-disk latency through the CkptIo shim (tmpfs fsyncs are
/// nearly free, so the bare numbers flatter sync mode; the injected row
/// models a real disk).
StallRow time_ckpt_stall(const std::string &root, const std::size_t n_doubles,
                         const unsigned int n_ckpts, const bool async,
                         const double stall_ms)
{
  std::filesystem::remove_all(root);
  resilience::FaultPlan::Config cfg;
  cfg.io_stall_rate = stall_ms > 0. ? 1. : 0.;
  cfg.io_stall_seconds = stall_ms * 1e-3;
  resilience::FaultPlan plan(cfg);
  if (stall_ms > 0.)
    resilience::CkptIo::instance().install_fault_handler(&plan);

  Vector<double> payload(n_doubles);
  for (std::size_t i = 0; i < n_doubles; ++i)
    payload[i] = std::sin(0.37 * double(i));

  double stall_seconds = 0.;
  {
    resilience::AsyncCheckpointer::Options opts;
    // a window as deep as the run never back-pressures: the measured async
    // stall is pure submit() cost, which is what the solver thread sees when
    // checkpoint cadence exceeds the disk's write latency
    opts.max_in_flight = n_ckpts;
    resilience::AsyncCheckpointer ckpt(root, opts);
    for (unsigned int c = 0; c < n_ckpts; ++c)
    {
      // encode on the "solver" thread (both modes pay it identically);
      // timed is only what handing the image over costs the caller
      resilience::CheckpointWriter writer("state.ckpt");
      writer.write_u64(c);
      writer.write_vector(payload);
      std::vector<resilience::AsyncCheckpointer::NamedImage> images;
      images.push_back({"state.ckpt", writer.encode()});
      Timer t;
      ckpt.submit(std::move(images));
      if (!async)
        ckpt.drain();
      stall_seconds += t.seconds();
    }
    ckpt.drain();
    if (ckpt.status().published != n_ckpts)
      std::abort();
  }
  if (stall_ms > 0.)
    resilience::CkptIo::instance().install_fault_handler(nullptr);
  std::filesystem::remove_all(root);
  return {async ? "async" : "sync", stall_ms, n_ckpts,
          stall_seconds / n_ckpts};
}

/// Restore latency when recovery must fall back @p depth generations: the
/// top @p depth members of the ring are corrupted in place (one flipped
/// byte — the lying-disk aftermath) and the scan walks past them.
std::vector<RestoreRow> time_restore_by_generation(const std::string &root,
                                                   const std::size_t n_doubles,
                                                   const int n_generations)
{
  std::filesystem::remove_all(root);
  resilience::GenerationStore::Options opts;
  opts.keep_generations = std::uint64_t(n_generations);
  resilience::GenerationStore store(root, opts);
  Vector<double> payload(n_doubles);
  for (std::size_t i = 0; i < n_doubles; ++i)
    payload[i] = std::sin(0.37 * double(i));
  for (int g = 0; g < n_generations; ++g)
  {
    const std::uint64_t id = store.allocate_generation();
    const std::string staging = store.create_staging(id);
    resilience::CheckpointWriter writer("state.ckpt");
    writer.write_u64(std::uint64_t(g));
    writer.write_vector(payload);
    const std::vector<char> image = writer.encode();
    resilience::CkptIo::instance().write_file_atomic(
      staging + "/state.ckpt", image.data(), image.size());
    store.commit_generation(id);
  }

  std::vector<RestoreRow> rows;
  for (int depth = 0; depth < n_generations; ++depth)
  {
    if (depth > 0)
    {
      // corrupt the currently-newest valid generation: one more fall-back
      const std::string path =
        store.generation_directory(std::uint64_t(n_generations - depth)) +
        "/state.ckpt";
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(-1, std::ios::end);
      char x;
      f.read(&x, 1);
      x = char(x ^ 0x55);
      f.seekp(-1, std::ios::end);
      f.write(&x, 1);
    }
    Timer t;
    const auto newest = store.newest_valid_generation();
    if (!newest || *newest != std::uint64_t(n_generations - 1 - depth))
      std::abort();
    resilience::CheckpointReader reader(store.generation_directory(*newest) +
                                        "/state.ckpt");
    reader.read_u64();
    Vector<double> restored;
    reader.read_vector(restored);
    rows.push_back({depth, t.seconds()});
  }
  std::filesystem::remove_all(root);
  return rows;
}

BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

double forcing(const Point &p)
{
  return 3 * M_PI * M_PI * std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
         std::sin(M_PI * p[2]);
}

double zero(const Point &) { return 0.; }

AgreeResultRow time_agree_rounds(const int n_ranks, const unsigned int rounds)
{
  double seconds = 0;
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.agree(true); // warm-up
    comm.barrier();
    Timer t;
    for (unsigned int i = 0; i < rounds; ++i)
      comm.agree(true);
    if (comm.rank() == 0)
      seconds = t.seconds();
  });
  return {n_ranks, rounds, seconds / rounds};
}

CheckpointRow time_shard_checkpoint(const std::string &dir,
                                    const std::size_t n_dofs,
                                    const int n_shards,
                                    const unsigned int repetitions)
{
  Vector<double> global(n_dofs);
  for (std::size_t i = 0; i < n_dofs; ++i)
    global[i] = std::sin(0.37 * double(i));
  const double payload_bytes = double(n_dofs) * sizeof(double);

  const double write_seconds = best_of(repetitions, [&]() {
    std::vector<std::uint64_t> checksums(n_shards);
    for (int r = 0; r < n_shards; ++r)
    {
      const std::size_t begin = (n_dofs * r) / n_shards;
      const std::size_t end = (n_dofs * (r + 1)) / n_shards;
      Vector<double> owned(end - begin);
      for (std::size_t i = begin; i < end; ++i)
        owned[i - begin] = global[i];
      resilience::ShardCheckpointWriter writer(dir, r, n_shards);
      writer.write_owned_slice(n_dofs, begin, owned);
      checksums[r] = writer.close().checksum;
    }
    resilience::write_shard_manifest(dir, checksums);
  });

  const double read_seconds = best_of(repetitions, [&]() {
    resilience::ShardCheckpointReader reader(dir);
    Vector<double> restored;
    reader.read_global(restored);
    if (restored.size() != n_dofs)
      std::abort();
  });

  return {n_dofs, n_shards, payload_bytes / write_seconds,
          payload_bytes / read_seconds};
}

RecoveryRow time_recovered_solve(const Mesh &mesh, const unsigned int degree,
                                 const std::string &dir)
{
  TrilinearGeometry geom(mesh.coarse());
  const BoundaryMap bc = all_dirichlet();
  const int n_ranks = 4;

  // serial assembly shared by all attempts (rhs + reference diag)
  MatrixFree<double>::AdditionalData ref_data;
  ref_data.degrees = {degree};
  ref_data.n_q_points_1d = {degree + 1};
  MatrixFree<double> ref_mf;
  ref_mf.reinit(mesh, geom, ref_data);
  LaplaceOperator<double> ref_laplace;
  ref_laplace.reinit(ref_mf, 0, 0, bc);
  Vector<double> rhs;
  ref_laplace.assemble_rhs(rhs, forcing, zero);
  const std::size_t n_dofs = ref_laplace.n_dofs();

  const auto solve_on = [&](vmpi::Communicator &comm,
                            resilience::RecoveryContext *ctx,
                            const bool restore) {
    const int width = comm.size();
    const std::vector<int> rank_of_cell = partition_cells(mesh, width);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), width);

    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.rank_of_cell = rank_of_cell;
    data.n_ranks = width;
    MatrixFree<double> mf;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);
    const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

    Vector<double> diag;
    laplace.compute_diagonal(diag);

    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), bd, dd;
    bd.reinit(part, comm, dofs_per_cell);
    bd.copy_owned_from(rhs);
    dd.reinit(part, comm, dofs_per_cell);
    dd.copy_owned_from(diag);
    PreconditionJacobi<double> jacobi;
    jacobi.reinit(dd);

    if (restore)
    {
      resilience::ShardCheckpointReader reader(dir);
      Vector<double> xg;
      reader.read_global(xg);
      xd.copy_owned_from(xg);
    }
    else
    {
      resilience::ShardCheckpointWriter writer(dir, comm.rank(), width);
      Vector<double> owned(xd.size());
      for (std::size_t i = 0; i < xd.size(); ++i)
        owned[i] = xd.data()[i];
      writer.write_owned_slice(n_dofs, xd.first_local_index(), owned);
      const auto shard = writer.close();
      constexpr int tag_checksum = 941;
      if (comm.rank() == 0)
      {
        std::vector<std::uint64_t> checksums(width);
        checksums[0] = shard.checksum;
        for (int r = 1; r < width; ++r)
          checksums[r] = comm.recv_vector<std::uint64_t>(r, tag_checksum, 1)
                           .at(0);
        resilience::write_shard_manifest(dir, checksums);
      }
      else
        comm.send_vector(0, tag_checksum,
                         std::vector<std::uint64_t>{shard.checksum});
      comm.barrier();
    }

    SolverControl control;
    control.rel_tol = 1e-8;
    control.max_iterations = 2000;
    control.recovery = ctx;
    try
    {
      solve_cg(laplace, xd, bd, jacobi, control);
    }
    catch (const vmpi::TimeoutError &)
    {
      if (ctx)
        ctx->resolve_failure();
      throw;
    }
  };

  RecoveryRow row{};

  const int victim = 2;
  unsigned long long victim_collectives = 0;
  { // fault-free 4-rank baseline
    Timer t;
    vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
      solve_on(comm, nullptr, false);
      if (comm.rank() == victim)
        victim_collectives =
          comm.traffic().barriers + comm.traffic().allreduces;
    });
    row.faultfree_seconds = t.seconds();
  }

  { // kill the victim mid-solve, at the middle collective of its fault-free
    // run (a fixed index would fall past the end of a solve that makes
    // fewer collectives); recover by shrinking to 3 ranks
    resilience::FaultPlan::Config cfg;
    cfg.kill_rank = victim;
    cfg.kill_step = victim_collectives / 2;
    resilience::FaultPlan plan(cfg);
    resilience::DistributedRecoveryOptions opts;
    Timer t;
    const auto report = resilience::run_resilient(
      n_ranks, opts,
      [&](vmpi::Communicator &comm, resilience::RecoveryContext &ctx,
          const resilience::RecoveryAttempt &attempt) {
        if (attempt.attempt == 0)
          comm.install_fault_handler(&plan);
        comm.set_timeout(1.0);
        solve_on(comm, &ctx, attempt.restore);
      });
    row.recovered_seconds = t.seconds();
    row.attempts = report.attempts;
    row.shrinks = report.shrinks;
  }
  return row;
}

void write_json(const char *path, const std::vector<AgreeResultRow> &agree,
                const std::vector<CheckpointRow> &ckpt,
                const std::vector<StallRow> &stalls,
                const std::vector<RestoreRow> &restores,
                const RecoveryRow &rec, const bool smoke)
{
  std::FILE *f = std::fopen(path, "w");
  if (!f)
  {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"dgflow-bench-recovery-v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (const auto &r : agree)
    std::fprintf(f,
                 "    {\"name\": \"agree_round\", \"n_ranks\": %d, "
                 "\"seconds\": %.6e},\n",
                 r.n_ranks, r.seconds_per_round);
  for (const auto &r : ckpt)
    std::fprintf(f,
                 "    {\"name\": \"shard_checkpoint\", \"n_dofs\": %zu, "
                 "\"n_shards\": %d, \"write_bytes_per_s\": %.6e, "
                 "\"read_bytes_per_s\": %.6e},\n",
                 r.n_dofs, r.n_shards, r.write_bytes_per_s,
                 r.read_bytes_per_s);
  for (const auto &r : stalls)
    std::fprintf(f,
                 "    {\"name\": \"ckpt_stall\", \"mode\": \"%s\", "
                 "\"injected_stall_ms\": %.3f, \"n_ckpts\": %u, "
                 "\"stall_seconds_per_ckpt\": %.6e},\n",
                 r.mode, r.injected_stall_ms, r.n_ckpts, r.stall_per_ckpt);
  for (const auto &r : restores)
    std::fprintf(f,
                 "    {\"name\": \"restore_by_generation\", "
                 "\"fallback_depth\": %d, \"seconds\": %.6e},\n",
                 r.fallback_depth, r.seconds);
  std::fprintf(f,
               "    {\"name\": \"shrinking_recovery\", "
               "\"faultfree_seconds\": %.6e, \"recovered_seconds\": %.6e, "
               "\"attempts\": %d, \"shrinks\": %d}\n",
               rec.faultfree_seconds, rec.recovered_seconds, rec.attempts,
               rec.shrinks);
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
    "Recovery path: agreement latency, shard checkpoints, shrinking restart",
    "failure detection and N->M restart for the distributed pressure "
    "Poisson solve; agreement latency bounds the per-iteration overhead");

  const std::string dir =
    (std::filesystem::temp_directory_path() / "dgflow_recovery_bench")
      .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const unsigned int rounds = smoke ? 20 : 500;
  std::vector<AgreeResultRow> agree;
  Table agree_table({"ranks", "rounds", "t/agree [s]"});
  for (const int n_ranks : {2, 4, 8})
  {
    agree.push_back(time_agree_rounds(n_ranks, rounds));
    agree_table.add_row(agree.back().n_ranks, agree.back().rounds,
                        Table::sci(agree.back().seconds_per_round, 3));
  }
  agree_table.print();

  const std::size_t n_dofs = smoke ? (std::size_t)1 << 16
                                   : (std::size_t)1 << 22;
  const unsigned int repetitions = smoke ? 2 : 5;
  std::vector<CheckpointRow> ckpt;
  Table ckpt_table({"MDoF", "shards", "write GB/s", "read GB/s"});
  for (const int n_shards : {4, 8})
  {
    ckpt.push_back(
      time_shard_checkpoint(dir + "/ckpt", n_dofs, n_shards, repetitions));
    ckpt_table.add_row(Table::format(double(n_dofs) / 1e6, 3), n_shards,
                       Table::format(ckpt.back().write_bytes_per_s / 1e9, 3),
                       Table::format(ckpt.back().read_bytes_per_s / 1e9, 3));
  }
  ckpt_table.print();

  // checkpoint stall: under the current working directory, not the system
  // temp dir — /tmp is usually tmpfs, where fsync costs nothing and the
  // sync-vs-async comparison would be meaningless
  const std::string stall_dir = "dgflow_ckpt_stall_bench";
  const std::size_t stall_doubles = smoke ? (std::size_t)1 << 14
                                          : (std::size_t)1 << 19;
  const unsigned int n_ckpts = smoke ? 3 : 8;
  const double injected_ms = 5.;
  std::vector<StallRow> stalls;
  Table stall_table({"mode", "disk", "ckpts", "stall/ckpt [s]"});
  for (const double stall_ms : {0., injected_ms})
    for (const bool async : {false, true})
    {
      stalls.push_back(time_ckpt_stall(stall_dir, stall_doubles, n_ckpts,
                                       async, stall_ms));
      stall_table.add_row(stalls.back().mode,
                          stall_ms > 0. ? "slow (+5 ms/op)" : "bare",
                          stalls.back().n_ckpts,
                          Table::sci(stalls.back().stall_per_ckpt, 3));
    }
  stall_table.print();
  const double sync_stall = stalls[2].stall_per_ckpt;  // injected, sync
  const double async_stall = stalls[3].stall_per_ckpt; // injected, async
  const bool stall_ok = async_stall * 5. <= sync_stall;
  std::printf("async stall reduction on the slow disk: %.1fx %s\n",
              sync_stall / async_stall,
              stall_ok ? "(>= 5x, ok)" : "(< 5x: REGRESSION)");

  const std::vector<RestoreRow> restores = time_restore_by_generation(
    dir + "/restore", stall_doubles, smoke ? 3 : 4);
  Table restore_table({"fallback depth", "restore [s]"});
  for (const auto &r : restores)
    restore_table.add_row(r.fallback_depth, Table::sci(r.seconds, 3));
  restore_table.print();

  Mesh mesh(unit_cube());
  mesh.refine_uniform(smoke ? 1 : 2);
  const unsigned int degree = smoke ? 1 : 2;
  const RecoveryRow rec = time_recovered_solve(mesh, degree, dir + "/solve");
  std::printf("\nshrinking recovery: fault-free %.3fs, recovered %.3fs "
              "(%d attempts, %d shrink)\n",
              rec.faultfree_seconds, rec.recovered_seconds, rec.attempts,
              rec.shrinks);

  if (const char *path = std::getenv("DGFLOW_BENCH_JSON"))
    write_json(path, agree, ckpt, stalls, restores, rec, smoke);

  const bool ok = rec.shrinks == 1 && stall_ok;
  std::printf("\nrecovery check: %s\n",
              ok ? "solve completed after one shrink; async stall ok"
                 : "FAILED (missing shrink rung or async stall regression)");
  return ok ? 0 : 1;
}
