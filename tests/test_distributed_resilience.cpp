// Rank-failure tolerance of the distributed solve (ctest label
// distributed_resilience; also run under DGFLOW_SANITIZE=thread by
// run_benchmarks.sh): bounded waits everywhere, the agree() failure
// agreement protocol, epoch/drain semantics, deterministic rank-death and
// collective-corruption injection, sharded N->M checkpoints with buddy
// replication, and the end-to-end shrinking recovery of a killed-rank
// multigrid Poisson solve.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "mesh/generators.h"
#include "mesh/partition.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/laplace_operator.h"
#include "resilience/distributed_recovery.h"
#include "resilience/fault_injection.h"
#include "resilience/shard_checkpoint.h"
#include "solvers/cg.h"
#include "vmpi/distributed_vector.h"
#include "vmpi/partitioner.h"

using namespace dgflow;

namespace
{
BoundaryMap all_dirichlet()
{
  BoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
    bc.set(id, BoundaryType::dirichlet);
  return bc;
}

Mesh make_mesh(const unsigned int refinements)
{
  Mesh mesh(unit_cube());
  mesh.refine_uniform(refinements);
  return mesh;
}

double exact_solution(const Point &p)
{
  return std::sin(M_PI * p[0]) * std::sin(M_PI * p[1]) *
         std::sin(M_PI * p[2]);
}

double forcing(const Point &p) { return 3 * M_PI * M_PI * exact_solution(p); }

double seconds_since(const std::chrono::steady_clock::time_point start)
{
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
    .count();
}

/// Unique scratch directory for a test case (removed and recreated).
std::string scratch_dir(const std::string &name)
{
  const std::string dir =
    (std::filesystem::temp_directory_path() / ("dgflow_" + name)).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}
} // namespace

// ---------------------------------------------------------------------------
// satellite: bounded waits everywhere (the latent-deadlock regression)
// ---------------------------------------------------------------------------

// Regression: a rank stalled by fault injection *past* the vmpi timeout used
// to sleep its full (potentially unbounded) stall inside the collective,
// blocking vmpi::run's join long after every peer had already timed out —
// with a long enough stall, a hung test. The stall is now capped at the
// rank's own deadline, so the whole run unwinds within the timeout scale.
TEST(BoundedWaits, StalledRankPastTimeoutDoesNotHangTheRun)
{
  resilience::FaultPlan::Config cfg;
  cfg.stall_rank = 1;
  cfg.stall_seconds = 30.; // without the fix, run() blocks all 30 s
  resilience::FaultPlan plan(cfg);

  std::atomic<int> timeouts{0};
  const auto start = std::chrono::steady_clock::now();
  vmpi::run(4, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    comm.set_timeout(0.2);
    try
    {
      comm.barrier();
    }
    catch (const vmpi::TimeoutError &e)
    {
      EXPECT_EQ(e.source, -1);
      EXPECT_EQ(e.tag, -1);
      ++timeouts;
    }
  });
  // every rank unwinds: the three peers at the rendezvous deadline, the
  // stalled rank at its own capped deadline
  EXPECT_EQ(timeouts.load(), 4);
  EXPECT_LT(seconds_since(start), 10.);
}

// Peers blocked in a DistributedVector exchange towards a dead rank must
// throw TimeoutError too (bounded wait in compress_add/update_ghost_values).
TEST(BoundedWaits, PeerBlockedInGhostExchangeTimesOutWhenNeighborDies)
{
  const Mesh mesh = make_mesh(1);
  const int n_ranks = 2;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  resilience::FaultPlan::Config cfg;
  cfg.kill_rank = 1;
  cfg.kill_step = 0; // rank 1 dies at its first collective
  resilience::FaultPlan plan(cfg);

  std::atomic<int> timeouts{0}, kills{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    comm.set_timeout(0.2);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> v(part, comm, 1);
    try
    {
      // the victim dies before entering its first collective, i.e. before
      // it has sent any ghost data; the survivor walks straight into the
      // exchange and must time out there instead of hanging
      if (comm.rank() == 1)
        comm.barrier();
      v = 1.;
      v.update_ghost_values(); // rank 0: recv from the dead rank
      v.compress_add();
    }
    catch (const vmpi::TimeoutError &)
    {
      v.abandon_exchange();
      EXPECT_EQ(v.ghost_state(),
                vmpi::DistributedVector<double>::GhostState::owned_only);
      ++timeouts;
    }
    catch (const vmpi::RankFailure &)
    {
      ++kills;
    }
  });
  EXPECT_EQ(timeouts.load(), 1) << "the surviving rank must not hang";
  EXPECT_EQ(kills.load(), 1);
}

// ---------------------------------------------------------------------------
// the agreement protocol
// ---------------------------------------------------------------------------

TEST(Agreement, AllHealthyRoundIsUnanimousOnEveryRank)
{
  const int n_ranks = 4;
  std::vector<vmpi::AgreeResult> results(n_ranks);
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    results[comm.rank()] = comm.agree(true);
    EXPECT_EQ(comm.traffic().agreements, 1ull);
  });
  for (const auto &r : results)
  {
    EXPECT_TRUE(r.all_ok);
    EXPECT_TRUE(r.self_ok);
    EXPECT_EQ(r.ok, results[0].ok);
    EXPECT_TRUE(r.failed().empty());
    EXPECT_TRUE(r.absent().empty());
  }
}

TEST(Agreement, NotOkVoteReachesEveryRankIdentically)
{
  const int n_ranks = 4;
  std::vector<vmpi::AgreeResult> results(n_ranks);
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    results[comm.rank()] = comm.agree(comm.rank() != 2);
  });
  for (int r = 0; r < n_ranks; ++r)
  {
    EXPECT_FALSE(results[r].all_ok);
    EXPECT_EQ(results[r].ok, results[0].ok) << "rank " << r;
    EXPECT_EQ(results[r].failed(), std::vector<int>{2});
    EXPECT_TRUE(results[r].absent().empty()) << "rank 2 is alive, only unsound";
    EXPECT_EQ(results[r].self_ok, r != 2);
  }
}

TEST(Agreement, AbsentRankIsVotedDeadByAllSurvivorsInBoundedTime)
{
  const int n_ranks = 4;
  std::vector<vmpi::AgreeResult> results(n_ranks);
  const auto start = std::chrono::steady_clock::now();
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    if (comm.rank() == 3)
      return; // never shows up
    results[comm.rank()] = comm.agree(true, 0.2);
  });
  EXPECT_LT(seconds_since(start), 5.);
  for (int r = 0; r < 3; ++r)
  {
    EXPECT_FALSE(results[r].all_ok) << "rank " << r;
    EXPECT_EQ(results[r].ok, results[0].ok) << "rank " << r;
    EXPECT_EQ(results[r].failed(), std::vector<int>{3});
    EXPECT_EQ(results[r].absent(), std::vector<int>{3});
    EXPECT_TRUE(results[r].self_ok);
  }
}

// A rank arriving after the round closed must adopt the closed verdict — in
// which it is recorded dead — not reopen the round (every reader sees the
// same verdict, the property the whole recovery protocol rests on).
TEST(Agreement, StragglerAdoptsTheClosedVerdict)
{
  const int n_ranks = 3;
  std::vector<vmpi::AgreeResult> results(n_ranks);
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    if (comm.rank() == 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    results[comm.rank()] = comm.agree(true, 0.15);
  });
  for (int r = 0; r < n_ranks; ++r)
  {
    EXPECT_EQ(results[r].ok, results[0].ok) << "rank " << r;
    EXPECT_EQ(results[r].failed(), std::vector<int>{2});
  }
  EXPECT_FALSE(results[2].self_ok) << "the straggler learns it was voted dead";
  EXPECT_TRUE(results[0].self_ok);
}

// ---------------------------------------------------------------------------
// epoch namespacing and the drain protocol
// ---------------------------------------------------------------------------

TEST(Epochs, StaleEpochMessagesAreDrainedAndCannotMatchARetry)
{
  std::atomic<unsigned long long> drained{0};
  vmpi::run(2, [&](vmpi::Communicator &comm) {
    if (comm.rank() == 0)
    {
      const double stale = 1.0, fresh = 2.0;
      comm.send(1, 7, &stale, sizeof(stale)); // epoch 0
      comm.barrier();
      comm.advance_epoch(1);
      comm.send(1, 7, &fresh, sizeof(fresh)); // epoch 1
      comm.barrier();
    }
    else
    {
      comm.barrier(); // the stale message is now queued in our mailbox
      EXPECT_EQ(comm.advance_epoch(1), 1u)
        << "advancing the epoch drains the stale message";
      comm.barrier();
      double value = 0;
      comm.recv(0, 7, &value, sizeof(value));
      EXPECT_EQ(value, 2.0) << "only the current-epoch message matches";
      drained = comm.traffic().drained;
    }
  });
  EXPECT_EQ(drained.load(), 1ull);
}

TEST(Epochs, CancelPendingAbandonsEveryQueuedMessage)
{
  vmpi::run(2, [&](vmpi::Communicator &comm) {
    if (comm.rank() == 0)
    {
      for (int k = 0; k < 3; ++k)
        comm.send(1, 20 + k, &k, sizeof(k));
      comm.barrier();
    }
    else
    {
      comm.barrier();
      EXPECT_EQ(comm.cancel_pending(), 3u);
      EXPECT_EQ(comm.traffic().drained, 3ull);
      // the mailbox really is empty: a recv now times out
      comm.set_timeout(0.1);
      int dummy = 0;
      EXPECT_THROW(comm.recv(0, 20, &dummy, sizeof(dummy)),
                   vmpi::TimeoutError);
    }
  });
}

TEST(Epochs, EpochMustNotGoBackwards)
{
  vmpi::run(1, [&](vmpi::Communicator &comm) {
    comm.advance_epoch(2);
    EXPECT_EQ(comm.epoch(), 2);
    EXPECT_THROW(comm.advance_epoch(1), std::runtime_error);
  });
}

// ---------------------------------------------------------------------------
// rank-death injection
// ---------------------------------------------------------------------------

TEST(KillInjection, VictimDiesAtTheConfiguredCollectiveDeterministically)
{
  for (int repeat = 0; repeat < 2; ++repeat)
  {
    resilience::FaultPlan::Config cfg;
    cfg.kill_rank = 1;
    cfg.kill_step = 2; // dies entering its third collective
    resilience::FaultPlan plan(cfg);

    std::atomic<int> completed_by_victim{-1};
    std::atomic<int> rank_failures{0};
    vmpi::run(2, [&](vmpi::Communicator &comm) {
      comm.install_fault_handler(&plan);
      comm.set_timeout(0.2);
      int completed = 0;
      try
      {
        for (int k = 0; k < 5; ++k)
        {
          comm.barrier();
          ++completed;
        }
      }
      catch (const vmpi::RankFailure &e)
      {
        EXPECT_EQ(e.rank, 1);
        EXPECT_EQ(e.failed_ranks, std::vector<int>{1});
        ++rank_failures;
      }
      catch (const vmpi::TimeoutError &)
      {
        // the survivor times out waiting for the dead rank
      }
      if (comm.rank() == 1)
        completed_by_victim = completed;
    });
    EXPECT_EQ(completed_by_victim.load(), 2) << "repeat " << repeat;
    EXPECT_EQ(rank_failures.load(), 1);
    EXPECT_EQ(plan.counts().kills, 1ull);
  }
}

// Survivors that catch the dead rank's absence as a TimeoutError route it
// through RecoveryContext::resolve_failure and all reach the identical
// RankFailure verdict.
TEST(KillInjection, SurvivorsAgreeOnTheVictimThroughResolveFailure)
{
  const int n_ranks = 4;
  resilience::FaultPlan::Config cfg;
  cfg.kill_rank = 2;
  cfg.kill_step = 0;
  resilience::FaultPlan plan(cfg);

  std::mutex mutex;
  std::vector<std::vector<int>> verdicts;
  std::atomic<int> victim_failures{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    comm.set_timeout(0.25);
    resilience::RecoveryContext ctx(comm);
    try
    {
      comm.barrier(); // the victim dies here; survivors time out
      ctx.at_iteration_boundary(true);
    }
    catch (const vmpi::TimeoutError &)
    {
      try
      {
        ctx.resolve_failure();
        ADD_FAILURE() << "resolve_failure must convict the dead rank";
      }
      catch (const vmpi::RankFailure &e)
      {
        std::lock_guard<std::mutex> lock(mutex);
        verdicts.push_back(e.failed_ranks);
      }
    }
    catch (const vmpi::RankFailure &)
    {
      ++victim_failures; // the victim's own death
    }
  });
  EXPECT_EQ(victim_failures.load(), 1);
  ASSERT_EQ(verdicts.size(), 3u) << "every survivor reaches a verdict";
  for (const auto &v : verdicts)
    EXPECT_EQ(v, std::vector<int>{2});
}

// ---------------------------------------------------------------------------
// collective-payload corruption hardening
// ---------------------------------------------------------------------------

TEST(CollectiveCorruption, BitFlippedContributionIsDetectedByEveryRank)
{
  const int n_ranks = 4;
  resilience::FaultPlan::Config cfg;
  cfg.seed = 5;
  cfg.corrupt_collective_rate = 1.; // flip every contribution
  cfg.corrupt_bytes = 2;
  resilience::FaultPlan plan(cfg);

  std::atomic<int> detections{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    try
    {
      comm.allreduce(1.0, vmpi::Communicator::Op::sum);
      ADD_FAILURE() << "corrupted allreduce returned normally on rank "
                    << comm.rank();
    }
    catch (const vmpi::CollectiveCorruptionError &e)
    {
      EXPECT_GE(e.corrupt_source, 0);
      ++detections;
    }
  });
  EXPECT_EQ(detections.load(), n_ranks);
  EXPECT_GT(plan.counts().corrupted_collectives, 0ull);
}

// The satellite requirement on the 4-rank Poisson solve: an injected
// bit-flip in an allreduce payload must surface as a structured error —
// never as silent convergence to a wrong answer.
TEST(CollectiveCorruption, CorruptedPoissonSolveNeverConvergesSilently)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const int n_ranks = 4;
  const unsigned int degree = 1;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);

  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

  Vector<double> rhs, diag;
  laplace.assemble_rhs(rhs, forcing, exact_solution);
  laplace.compute_diagonal(diag);

  resilience::FaultPlan::Config cfg;
  cfg.seed = 23;
  cfg.corrupt_collective_rate = 0.02; // rare, in-flight bit flips
  resilience::FaultPlan plan(cfg);

  std::atomic<int> detections{0}, silent_convergences{0};
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    comm.install_fault_handler(&plan);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), bd;
    bd.reinit(part, comm, dofs_per_cell);
    bd.copy_owned_from(rhs);
    vmpi::DistributedVector<double> ddiag(part, comm, dofs_per_cell);
    ddiag.copy_owned_from(diag);
    PreconditionJacobi<double> jd;
    jd.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 2000;
    try
    {
      const auto stats = solve_cg(laplace, xd, bd, jd, control);
      if (stats.converged)
        ++silent_convergences;
    }
    catch (const vmpi::CollectiveCorruptionError &)
    {
      ++detections;
    }
  });
  ASSERT_GT(plan.counts().corrupted_collectives, 0ull)
    << "the configured rate must actually inject at this seed";
  EXPECT_EQ(detections.load(), n_ranks)
    << "every rank unwinds with the structured corruption error";
  EXPECT_EQ(silent_convergences.load(), 0);
}

// ---------------------------------------------------------------------------
// shard checkpoints
// ---------------------------------------------------------------------------

namespace
{
/// Deterministic test field: bit-exact reproducible values.
Vector<double> test_field(const std::size_t n)
{
  Vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.37 * double(i)) * 1e3 + double(i % 17);
  return v;
}

/// Writes @p global as an @p n_ranks -shard checkpoint (contiguous slices of
/// the Morton partition arithmetic) plus a manifest; returns the per-shard
/// in-memory images (buddy copies).
std::vector<std::vector<char>>
write_sharded(const std::string &dir, const Vector<double> &global,
              const int n_ranks, const std::uint64_t step = 42,
              const double time = 1.5)
{
  std::vector<std::uint64_t> checksums(n_ranks);
  std::vector<std::vector<char>> images(n_ranks);
  for (int r = 0; r < n_ranks; ++r)
  {
    const std::size_t begin = (global.size() * r) / n_ranks;
    const std::size_t end = (global.size() * (r + 1)) / n_ranks;
    Vector<double> owned(end - begin);
    for (std::size_t i = begin; i < end; ++i)
      owned[i - begin] = global[i];
    resilience::ShardCheckpointWriter writer(dir, r, n_ranks);
    writer.write_u64(step);
    writer.write_double(time);
    writer.write_owned_slice(global.size(), begin, owned);
    auto shard = writer.close();
    checksums[r] = shard.checksum;
    images[r] = std::move(shard.image);
  }
  resilience::write_shard_manifest(dir, checksums);
  return images;
}
} // namespace

TEST(ShardCheckpoint, RestoreIsBitIdenticalAcrossRankCounts)
{
  const std::string dir = scratch_dir("shards_n_to_m");
  const Vector<double> global = test_field(997); // odd size: uneven slices
  write_sharded(dir, global, 4);

  // restoring runs re-slice the reassembled global state for their own rank
  // count; N-1 and 2N rank layouts must see bit-identical data
  for (const int restore_ranks : {3, 4, 8})
  {
    resilience::ShardCheckpointReader reader(dir);
    EXPECT_EQ(reader.n_shards(), 4);
    EXPECT_EQ(reader.read_u64(), 42ull);
    EXPECT_EQ(reader.read_double(), 1.5);
    Vector<double> restored;
    reader.read_global(restored);
    ASSERT_EQ(restored.size(), global.size());
    for (int r = 0; r < restore_ranks; ++r)
    {
      const std::size_t begin = (global.size() * r) / restore_ranks;
      const std::size_t end = (global.size() * (r + 1)) / restore_ranks;
      for (std::size_t i = begin; i < end; ++i)
      {
        const double got = restored[i], want = global[i];
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "restore on " << restore_ranks << " ranks, dof " << i;
      }
    }
  }
}

TEST(ShardCheckpoint, ManifestMismatchNamesTheShard)
{
  const std::string dir = scratch_dir("shards_manifest");
  write_sharded(dir, test_field(100), 4);

  // replace rank1.ckpt with an internally valid shard that was never part
  // of this checkpoint: only the manifest cross-check can catch it
  {
    resilience::CheckpointWriter impostor(dir + "/" +
                                          resilience::shard_file_name(1));
    impostor.write_u64(999);
    impostor.close();
  }
  try
  {
    resilience::ShardCheckpointReader reader(dir);
    FAIL() << "stale shard must be rejected";
  }
  catch (const resilience::CheckpointError &e)
  {
    EXPECT_NE(std::string(e.what()).find("rank1.ckpt"), std::string::npos)
      << "the error must name the offending shard: " << e.what();
  }
}

TEST(ShardCheckpoint, CorruptedShardFileIsRejectedNamingTheFile)
{
  const std::string dir = scratch_dir("shards_corrupt");
  write_sharded(dir, test_field(100), 4);

  // flip one payload byte of rank2.ckpt on disk
  const std::string path = dir + "/" + resilience::shard_file_name(2);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  const char flip = 0x5A;
  f.write(&flip, 1);
  f.close();

  try
  {
    resilience::ShardCheckpointReader reader(dir);
    FAIL() << "corrupted shard must be rejected";
  }
  catch (const resilience::CheckpointError &e)
  {
    EXPECT_NE(std::string(e.what()).find("rank2.ckpt"), std::string::npos)
      << e.what();
  }
}

TEST(ShardCheckpoint, BuddyImageSubstitutesForALostShard)
{
  const std::string dir = scratch_dir("shards_buddy");
  const Vector<double> global = test_field(500);
  const auto images = write_sharded(dir, global, 4);

  // rank 2's shard dies with its rank; its buddy still holds the image
  std::filesystem::remove(dir + "/" + resilience::shard_file_name(2));
  EXPECT_THROW(resilience::ShardCheckpointReader missing(dir),
               resilience::CheckpointError);

  resilience::ShardCheckpointReader reader(dir, {{2, images[2]}});
  EXPECT_EQ(reader.read_u64(), 42ull);
  EXPECT_EQ(reader.read_double(), 1.5);
  Vector<double> restored;
  reader.read_global(restored);
  ASSERT_EQ(restored.size(), global.size());
  for (std::size_t i = 0; i < global.size(); ++i)
    ASSERT_EQ(restored[i], global[i]);
}

// Buddy replication over vmpi: every rank ships its shard image to its
// Morton neighbour; afterwards each rank holds a bit-identical copy of its
// buddy's shard.
TEST(ShardCheckpoint, BuddyReplicationOverVmpiIsBitIdentical)
{
  const std::string dir = scratch_dir("shards_vmpi");
  const Vector<double> global = test_field(256);
  const int n_ranks = 4;
  constexpr int tag_buddy = 940;

  std::vector<std::vector<char>> primary(n_ranks), received(n_ranks);
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const int rank = comm.rank();
    const std::size_t begin = (global.size() * rank) / n_ranks;
    const std::size_t end = (global.size() * (rank + 1)) / n_ranks;
    Vector<double> owned(end - begin);
    for (std::size_t i = begin; i < end; ++i)
      owned[i - begin] = global[i];
    resilience::ShardCheckpointWriter writer(dir, rank, n_ranks);
    writer.write_owned_slice(global.size(), begin, owned);
    auto shard = writer.close();
    primary[rank] = shard.image;

    const int buddy = morton_buddy_rank(rank, n_ranks);
    comm.send_vector(buddy, tag_buddy, shard.image);
    // by symmetry we hold the copy of the rank whose buddy we are
    const int ward = (rank + n_ranks - 1) % n_ranks;
    received[rank] =
      comm.recv_vector<char>(ward, tag_buddy, 1 << 20);
  });
  for (int r = 0; r < n_ranks; ++r)
  {
    const int ward = (r + n_ranks - 1) % n_ranks;
    EXPECT_EQ(received[r], primary[ward]) << "buddy copy held by rank " << r;
    EXPECT_EQ(morton_buddy_rank(ward, n_ranks), r);
  }
}

// ---------------------------------------------------------------------------
// end to end: shrinking recovery of a killed-rank multigrid Poisson solve
// ---------------------------------------------------------------------------

// The PR's acceptance test. A 4-rank hybrid-multigrid-preconditioned CG
// Poisson solve loses rank 2 mid-solve to deterministic fault injection.
// The survivors agree on the death (RecoveryContext at the iteration
// boundaries of CG, the Chebyshev sweeps and the V-cycle), unwind, and the
// shrinking-recovery driver reruns on 3 ranks with a fresh Morton partition,
// restoring the iterate from the shard checkpoint. The final solution must
// match the fault-free serial solve to solver tolerance.
TEST(ShrinkingRecovery, KilledRankPoissonSolveCompletesOnThreeRanks)
{
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const int n_ranks = 4;
  const unsigned int degree = 3;
  const BoundaryMap bc = all_dirichlet();
  const std::string dir = scratch_dir("shrink_recovery");

  // fault-free serial reference
  MatrixFree<double>::AdditionalData ref_data;
  ref_data.degrees = {degree};
  ref_data.n_q_points_1d = {degree + 1};
  MatrixFree<double> ref_mf;
  ref_mf.reinit(mesh, geom, ref_data);
  LaplaceOperator<double> ref_laplace;
  ref_laplace.reinit(ref_mf, 0, 0, bc);
  Vector<double> rhs;
  ref_laplace.assemble_rhs(rhs, forcing, exact_solution);

  HybridMultigrid<float>::Options ref_mg_opts;
  HybridMultigrid<float> ref_mg;
  ref_mg.setup(mesh, geom, degree, bc, ref_mg_opts);
  SolverControl ref_control;
  ref_control.rel_tol = 1e-11;
  ref_control.max_iterations = 100;
  Vector<double> x_serial(ref_laplace.n_dofs());
  const auto serial = solve_cg(ref_laplace, x_serial, rhs, ref_mg, ref_control);
  ASSERT_TRUE(serial.converged);
  const std::size_t n_dofs = ref_laplace.n_dofs();

  // rank 2 dies mid-solve (a few CG iterations in) on the first attempt
  resilience::FaultPlan::Config cfg;
  cfg.kill_rank = 2;
  cfg.kill_step = 12;
  resilience::FaultPlan plan(cfg);

  Vector<double> x_final(n_dofs);
  std::atomic<int> solves_completed{0};

  resilience::DistributedRecoveryOptions opts;
  opts.min_ranks = 2;
  const auto report = resilience::run_resilient(
    n_ranks, opts,
    [&](vmpi::Communicator &comm, resilience::RecoveryContext &ctx,
        const resilience::RecoveryAttempt &attempt) {
      // the dead node does not come back: faults only on the first attempt
      if (attempt.attempt == 0)
        comm.install_fault_handler(&plan);
      comm.set_timeout(1.0);

      const int width = comm.size();
      const std::vector<int> rank_of_cell = partition_cells(mesh, width);
      const auto part = vmpi::Partitioner::cell_partitioner(
        mesh, rank_of_cell, comm.rank(), width);

      // rebuild the full distributed stack for this attempt's rank count
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

      HybridMultigrid<float>::Options mg_opts;
      mg_opts.rank_of_cell = rank_of_cell;
      mg_opts.n_ranks = width;
      HybridMultigrid<float> mg;
      mg.setup(mesh, geom, degree, bc, mg_opts);
      mg.set_recovery(&ctx);
      mg.setup_distributed(comm, part);

      vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), bd;
      bd.reinit(part, comm, dofs_per_cell);
      bd.copy_owned_from(rhs);

      if (attempt.restore)
      {
        // N->M restart: reassemble the iterate of the 4-shard checkpoint
        // and re-slice it for this attempt's width
        resilience::ShardCheckpointReader reader(dir);
        EXPECT_EQ(reader.read_u64(), 0ull);
        Vector<double> xg;
        reader.read_global(xg);
        xd.copy_owned_from(xg);
      }
      else
      {
        // shard checkpoint of the pre-solve state, with the manifest
        // written by rank 0 after gathering every shard checksum
        resilience::ShardCheckpointWriter writer(dir, comm.rank(), width);
        writer.write_u64(0); // iteration the checkpoint represents
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
          {
            const auto c = comm.recv_vector<std::uint64_t>(r, tag_checksum, 1);
            checksums[r] = c.at(0);
          }
          resilience::write_shard_manifest(dir, checksums);
        }
        else
          comm.send_vector(0, tag_checksum,
                           std::vector<std::uint64_t>{shard.checksum});
        comm.barrier();
      }

      SolverControl control;
      control.rel_tol = 1e-11;
      control.max_iterations = 100;
      control.recovery = &ctx;
      try
      {
        const auto stats = solve_cg(laplace, xd, bd, mg, control);
        EXPECT_TRUE(stats.converged);
      }
      catch (const vmpi::TimeoutError &)
      {
        // a peer vanished mid-exchange: convert to the collective verdict
        ctx.resolve_failure();
        throw; // transient per the verdict: let the driver retry
      }

      for (std::size_t i = 0; i < xd.size(); ++i)
        x_final[xd.first_local_index() + i] = xd.data()[i];
      ++solves_completed;
    });

  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.shrinks, 1);
  EXPECT_EQ(report.final_n_ranks, 3);
  EXPECT_EQ(report.attempts, 2);
  ASSERT_EQ(report.failure_history.size(), 1u);
  EXPECT_EQ(report.failure_history[0], std::vector<int>{2});
  EXPECT_EQ(solves_completed.load(), 3) << "all three survivors completed";
  EXPECT_EQ(plan.counts().kills, 1ull);

  double diff2 = 0, ref2 = 0;
  for (std::size_t i = 0; i < n_dofs; ++i)
  {
    diff2 += (x_final[i] - x_serial[i]) * (x_final[i] - x_serial[i]);
    ref2 += x_serial[i] * x_serial[i];
  }
  EXPECT_LE(std::sqrt(diff2 / ref2), 1e-8)
    << "the recovered solution matches the fault-free one to solver "
       "tolerance";
}

// The non-death rungs of the ladder: a transient failure retries in a fresh
// epoch first, then restores from the checkpoint, without shrinking.
TEST(ShrinkingRecovery, TransientFailureClimbsRetryThenRestoreRungs)
{
  std::atomic<int> bodies{0};
  std::vector<resilience::RecoveryAttempt> attempts;
  std::mutex mutex;
  resilience::DistributedRecoveryOptions opts;
  const auto report = resilience::run_resilient(
    2, opts,
    [&](vmpi::Communicator &comm, resilience::RecoveryContext &,
        const resilience::RecoveryAttempt &attempt) {
      if (comm.rank() == 0)
      {
        std::lock_guard<std::mutex> lock(mutex);
        attempts.push_back(attempt);
      }
      ++bodies;
      if (attempt.attempt < 2)
        throw resilience::SolveAbandoned("injected transient failure", {});
    });
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.restores, 1);
  EXPECT_EQ(report.shrinks, 0);
  EXPECT_EQ(report.final_n_ranks, 2);
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_FALSE(attempts[0].restore);
  EXPECT_FALSE(attempts[1].restore) << "first rung: plain retry, fresh epoch";
  EXPECT_TRUE(attempts[2].restore) << "second rung: restore";
  EXPECT_EQ(attempts[1].epoch, 1);
  EXPECT_EQ(attempts[2].epoch, 2);
}

TEST(ShrinkingRecovery, LadderExhaustionRethrowsTheLastError)
{
  resilience::DistributedRecoveryOptions opts;
  opts.max_retries_per_width = 1;
  EXPECT_THROW(
    resilience::run_resilient(
      2, opts,
      [&](vmpi::Communicator &, resilience::RecoveryContext &,
          const resilience::RecoveryAttempt &) {
        throw resilience::SolveAbandoned("always failing", {});
      }),
    resilience::SolveAbandoned);
}
