// The I/O-fault-tolerant checkpoint pipeline (ctest label io_resilience;
// also run under DGFLOW_SANITIZE=thread and =undefined by
// run_benchmarks.sh): the CkptIo filesystem shim with deterministic fault
// injection (short write, torn write, ENOSPC, EIO, slow disk), the durable
// rename-publish protocol, the multi-generation ring with its newest-first
// verified recovery scan, the asynchronous background writer with
// back-pressure and drain, the Young/Daly checkpoint scheduler, shard
// reassembly under every corruption class, the lung application's
// checkpoint path through the ring, and the end-to-end torn-write +
// rank-kill restart.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "concurrency/thread_pool.h"
#include "lung/lung_application.h"
#include "resilience/ckpt_io.h"
#include "resilience/ckpt_scheduler.h"
#include "resilience/ckpt_store.h"
#include "resilience/distributed_recovery.h"
#include "resilience/fault_injection.h"
#include "resilience/shard_checkpoint.h"

using namespace dgflow;
using resilience::CkptIo;

namespace
{
/// Unique scratch directory for a test case (removed and recreated).
std::string scratch_dir(const std::string &name)
{
  const std::string dir =
    (std::filesystem::temp_directory_path() / ("dgflow_io_" + name)).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<char> slurp(const std::string &path)
{
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string &path, const std::vector<char> &bytes)
{
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Installs a fault plan on the CkptIo shim for the scope of a test and
/// guarantees removal (a leaked handler would inject faults into every
/// later test in the process).
class ScopedIoFaults
{
public:
  explicit ScopedIoFaults(resilience::FaultPlan &plan)
  {
    CkptIo::instance().install_fault_handler(&plan);
  }
  ~ScopedIoFaults() { CkptIo::instance().install_fault_handler(nullptr); }
};

/// A scripted fault oracle for shim unit tests (the seeded FaultPlan is
/// exercised separately): returns the configured fault on every operation.
class ScriptedFaults : public resilience::IoFaultHandler
{
public:
  resilience::IoWriteFault write_fault;
  resilience::IoReadFault read_fault;

  resilience::IoWriteFault on_ckpt_write(const std::string &,
                                         const std::size_t,
                                         unsigned long long) override
  {
    return write_fault;
  }
  resilience::IoReadFault on_ckpt_read(const std::string &,
                                       unsigned long long) override
  {
    return read_fault;
  }
};

class ScopedScriptedFaults
{
public:
  explicit ScopedScriptedFaults(ScriptedFaults &handler)
  {
    CkptIo::instance().install_fault_handler(&handler);
  }
  ~ScopedScriptedFaults() { CkptIo::instance().install_fault_handler(nullptr); }
};

/// One committed single-file generation containing the given payload value.
void write_generation(resilience::GenerationStore &store, const double value)
{
  const std::uint64_t id = store.allocate_generation();
  const std::string staging = store.create_staging(id);
  resilience::CheckpointWriter writer("state.ckpt");
  writer.write_double(value);
  const std::vector<char> image = writer.encode();
  CkptIo::instance().write_file_atomic(staging + "/state.ckpt", image.data(),
                                       image.size());
  store.commit_generation(id);
}

double read_generation_value(const resilience::GenerationStore &store,
                             const std::uint64_t id)
{
  resilience::CheckpointReader reader(store.generation_directory(id) +
                                      "/state.ckpt");
  return reader.read_double();
}
} // namespace

// ---------------------------------------------------------------------------
// the CkptIo shim: durability protocol and injected fault classes
// ---------------------------------------------------------------------------

// Satellite regression: CheckpointWriter used to publish via bare rename —
// no fsync of the data file, none of the parent directory — so a power loss
// after the rename could surface an empty/torn "published" checkpoint.
// Every close() must now perform the full durable protocol through the shim.
TEST(CkptIoShim, CheckpointClosePerformsTheFullDurabilityProtocol)
{
  const std::string dir = scratch_dir("durability");
  const auto before = CkptIo::instance().stats();
  {
    resilience::CheckpointWriter writer(dir + "/a.ckpt");
    writer.write_u64(7);
    writer.close();
  }
  const auto after = CkptIo::instance().stats();
  EXPECT_EQ(after.writes, before.writes + 1);
  EXPECT_EQ(after.file_fsyncs, before.file_fsyncs + 1)
    << "the data file must be fsynced before the rename";
  EXPECT_EQ(after.dir_fsyncs, before.dir_fsyncs + 1)
    << "the parent directory must be fsynced after the rename";
  EXPECT_EQ(after.renames, before.renames + 1);
  EXPECT_FALSE(CkptIo::instance().exists(dir + "/a.ckpt.tmp"))
    << "the staging name must not survive a successful publish";
  resilience::CheckpointReader reader(dir + "/a.ckpt");
  EXPECT_EQ(reader.read_u64(), 7ull);
}

TEST(CkptIoShim, ShortWriteFailsStructuredAndNeverTouchesThePublishedName)
{
  const std::string dir = scratch_dir("short_write");
  ScriptedFaults faults;
  faults.write_fault.short_write_at = 10;
  ScopedScriptedFaults scope(faults);

  resilience::CheckpointWriter writer(dir + "/a.ckpt");
  writer.write_u64(42);
  try
  {
    writer.close();
    FAIL() << "a short write must surface as a structured error";
  }
  catch (const resilience::CkptIoError &e)
  {
    EXPECT_NE(std::string(e.what()).find("short write"), std::string::npos)
      << e.what();
  }
  EXPECT_FALSE(CkptIo::instance().exists(dir + "/a.ckpt"))
    << "a failed write must never publish";
  EXPECT_TRUE(CkptIo::instance().exists(dir + "/a.ckpt.tmp"))
    << "the truncated tmp file stays behind for startup GC";
  EXPECT_EQ(slurp(dir + "/a.ckpt.tmp").size(), 10u);
}

TEST(CkptIoShim, EnospcFailsBeforeAnyByteReachesDisk)
{
  const std::string dir = scratch_dir("enospc");
  ScriptedFaults faults;
  faults.write_fault.enospc = true;
  ScopedScriptedFaults scope(faults);

  resilience::CheckpointWriter writer(dir + "/a.ckpt");
  writer.write_u64(42);
  try
  {
    writer.close();
    FAIL() << "ENOSPC must surface as a structured error";
  }
  catch (const resilience::CkptIoError &e)
  {
    EXPECT_NE(std::string(e.what()).find("ENOSPC"), std::string::npos)
      << e.what();
  }
  EXPECT_FALSE(CkptIo::instance().exists(dir + "/a.ckpt"));
  EXPECT_FALSE(CkptIo::instance().exists(dir + "/a.ckpt.tmp"));
}

// The lying-disk model: the write reports success but only a prefix reached
// the platter. Nothing in the write path can see this — exactly why
// recovery verifies checksums before trusting any generation.
TEST(CkptIoShim, TornWriteReportsSuccessButVerificationCatchesTheTear)
{
  const std::string dir = scratch_dir("torn_write");
  {
    ScriptedFaults faults;
    faults.write_fault.torn_write_at = 12;
    ScopedScriptedFaults scope(faults);
    resilience::CheckpointWriter writer(dir + "/a.ckpt");
    writer.write_u64(42);
    EXPECT_NO_THROW(writer.close()) << "the torn write lies about success";
  }
  EXPECT_TRUE(CkptIo::instance().exists(dir + "/a.ckpt"))
    << "the torn file publishes under the final name";
  EXPECT_EQ(slurp(dir + "/a.ckpt").size(), 12u);
  EXPECT_THROW(resilience::CheckpointReader reader(dir + "/a.ckpt"),
               resilience::CheckpointError);
}

TEST(CkptIoShim, InjectedReadErrorIsStructured)
{
  const std::string dir = scratch_dir("read_eio");
  {
    resilience::CheckpointWriter writer(dir + "/a.ckpt");
    writer.write_u64(1);
    writer.close();
  }
  ScriptedFaults faults;
  faults.read_fault.eio = true;
  ScopedScriptedFaults scope(faults);
  try
  {
    resilience::CheckpointReader reader(dir + "/a.ckpt");
    FAIL() << "an injected EIO must surface as a structured error";
  }
  catch (const resilience::CkptIoError &e)
  {
    EXPECT_NE(std::string(e.what()).find("EIO"), std::string::npos)
      << e.what();
  }
}

TEST(CkptIoShim, SlowDiskStallInjectsLatency)
{
  const std::string dir = scratch_dir("stall");
  ScriptedFaults faults;
  faults.write_fault.stall_seconds = 0.05;
  ScopedScriptedFaults scope(faults);
  Timer t;
  resilience::CheckpointWriter writer(dir + "/a.ckpt");
  writer.write_u64(1);
  writer.close();
  EXPECT_GE(t.seconds(), 0.04);
}

// ---------------------------------------------------------------------------
// the seeded FaultPlan as I/O fault oracle
// ---------------------------------------------------------------------------

TEST(IoFaultPlan, DecisionsAreDeterministicAndScopedByThePathFilter)
{
  resilience::FaultPlan::Config cfg;
  cfg.seed = 11;
  cfg.io_torn_write_rate = 1.;
  cfg.io_path_filter = "gen000002";
  resilience::FaultPlan a(cfg), b(cfg);

  // the filtered path draws a fault, and the same (path, seq) draws the
  // same truncation offset on an independent plan with the same seed
  const auto fa = a.on_ckpt_write("/x/gen000002/rank0.ckpt", 1000, 0);
  const auto fb = b.on_ckpt_write("/x/gen000002/rank0.ckpt", 1000, 0);
  EXPECT_GE(fa.torn_write_at, 0);
  EXPECT_EQ(fa.torn_write_at, fb.torn_write_at);
  EXPECT_LT(fa.torn_write_at, 1000);

  // a non-matching path is never a candidate, whatever the rate
  const auto other = a.on_ckpt_write("/x/gen000001/rank0.ckpt", 1000, 0);
  EXPECT_EQ(other.torn_write_at, -1);
  EXPECT_FALSE(other.enospc);
  EXPECT_EQ(a.counts().io_torn_writes, 1ull);
}

// ---------------------------------------------------------------------------
// the generation ring
// ---------------------------------------------------------------------------

TEST(GenerationRing, CommitPrunesBeyondTheRing)
{
  const std::string root = scratch_dir("ring");
  resilience::GenerationStore::Options opts;
  opts.keep_generations = 3;
  resilience::GenerationStore store(root, opts);
  for (int g = 0; g < 5; ++g)
    write_generation(store, double(g));

  const std::vector<std::uint64_t> kept = store.generations();
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{2, 3, 4}))
    << "only the newest keep_generations survive";
  const auto newest = store.newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 4ull);
  EXPECT_EQ(read_generation_value(store, *newest), 4.);
}

TEST(GenerationRing, RecoveryFallsBackGenerationByGeneration)
{
  const std::string root = scratch_dir("fallback");
  resilience::GenerationStore store(root, {});
  for (int g = 0; g < 3; ++g)
    write_generation(store, double(g));

  const auto corrupt = [&](const std::uint64_t id) {
    const std::string path = store.generation_directory(id) + "/state.ckpt";
    std::vector<char> bytes = slurp(path);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
    spit(path, bytes);
  };

  corrupt(2);
  auto newest = store.newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 1ull) << "a corrupted newest generation is skipped";
  corrupt(1);
  newest = store.newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 0ull);
  corrupt(0);
  EXPECT_FALSE(store.newest_valid_generation().has_value())
    << "no generation survives verification";
}

// Satellite: a crashed half-written generation (staging directory that never
// committed) and stale .tmp files are pruned on writer startup and never
// considered by the recovery scan.
TEST(GenerationRing, StartupGcPrunesHalfWrittenGenerations)
{
  const std::string root = scratch_dir("gc");
  {
    resilience::GenerationStore store(root, {});
    write_generation(store, 5.);
    // a crash mid-generation: staging directory with a partial file ...
    const std::string staging = store.create_staging(77);
    spit(staging + "/state.ckpt", {'p', 'a', 'r', 't', 'i', 'a', 'l'});
    // ... and a torn single-file publish attempt
    spit(root + "/state.ckpt.tmp", {'x'});
  }

  resilience::GenerationStore reopened(root, {});
  EXPECT_FALSE(CkptIo::instance().exists(root + "/gen000077.tmp"));
  EXPECT_FALSE(CkptIo::instance().exists(root + "/state.ckpt.tmp"));
  EXPECT_EQ(reopened.generations(), std::vector<std::uint64_t>{0})
    << "only the committed generation survives";
  const auto newest = reopened.newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 0ull);
  EXPECT_GE(reopened.allocate_generation(), 1ull)
    << "numbering resumes after the newest survivor";
}

// ---------------------------------------------------------------------------
// the asynchronous writer
// ---------------------------------------------------------------------------

TEST(AsyncWriter, PublishesInBackgroundAndDrainsInOrder)
{
  const std::string root = scratch_dir("async");
  resilience::AsyncCheckpointer ckpt(root, {});
  for (int g = 0; g < 3; ++g)
  {
    resilience::CheckpointWriter writer("state.ckpt");
    writer.write_double(double(g));
    std::vector<resilience::AsyncCheckpointer::NamedImage> images;
    images.push_back({"state.ckpt", writer.encode()});
    ckpt.submit(std::move(images));
  }
  ckpt.drain();
  const auto status = ckpt.status();
  EXPECT_EQ(status.submitted, 3ull);
  EXPECT_EQ(status.published, 3ull);
  EXPECT_EQ(status.failed, 0ull);
  const auto newest = ckpt.store().newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 2ull) << "FIFO service order commits in id order";
  EXPECT_EQ(read_generation_value(ckpt.store(), *newest), 2.);
}

// Every ring commit is durable: the file is fsynced before its rename, and
// the staging directory (after the file rename) and the root (after the
// generation rename) are fsynced after them.
TEST(AsyncWriter, EveryGenerationIsPublishedDurably)
{
  const std::string root = scratch_dir("async_durable");
  resilience::AsyncCheckpointer ckpt(root, {});
  resilience::CheckpointWriter writer("state.ckpt");
  writer.write_double(1.);
  std::vector<resilience::AsyncCheckpointer::NamedImage> images;
  images.push_back({"state.ckpt", writer.encode()});

  const auto before = CkptIo::instance().stats();
  ckpt.submit(std::move(images));
  ckpt.drain();
  const auto after = CkptIo::instance().stats();
  ASSERT_EQ(ckpt.status().published, 1ull);
  EXPECT_EQ(after.file_fsyncs, before.file_fsyncs + 1)
    << "state.ckpt is fsynced";
  EXPECT_EQ(after.renames, before.renames + 2)
    << "file publish, generation commit";
  EXPECT_EQ(after.dir_fsyncs, before.dir_fsyncs + 2)
    << "every rename is followed by an fsync of its directory";
}

// Satellite: a failed checkpoint *write* must never kill a healthy solve —
// the failure is recorded, and the previous committed generation remains the
// restart point.
TEST(AsyncWriter, WriteFailureIsRecordedNotThrownAndOlderGenerationSurvives)
{
  const std::string root = scratch_dir("async_fail");
  resilience::AsyncCheckpointer ckpt(root, {});
  const auto submit_one = [&](const double value) {
    resilience::CheckpointWriter writer("state.ckpt");
    writer.write_double(value);
    std::vector<resilience::AsyncCheckpointer::NamedImage> images;
    images.push_back({"state.ckpt", writer.encode()});
    ckpt.submit(std::move(images));
  };

  submit_one(1.);
  ckpt.drain();
  {
    ScriptedFaults faults;
    faults.write_fault.enospc = true;
    ScopedScriptedFaults scope(faults);
    EXPECT_NO_THROW(submit_one(2.));
    ckpt.drain(); // the failure happened on the background thread
  }
  const auto status = ckpt.status();
  EXPECT_EQ(status.failed, 1ull);
  EXPECT_NE(status.last_error.find("ENOSPC"), std::string::npos)
    << status.last_error;
  const auto newest = ckpt.store().newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(read_generation_value(ckpt.store(), *newest), 1.)
    << "the previous valid generation remains the restart point";
  EXPECT_FALSE(CkptIo::instance().list_directory(root).empty());

  submit_one(3.); // the writer keeps working after a failure
  ckpt.drain();
  EXPECT_EQ(ckpt.status().published, 2ull);
}

TEST(AsyncWriter, BackPressureBoundsInFlightGenerations)
{
  const std::string root = scratch_dir("async_bp");
  ScriptedFaults faults;
  faults.write_fault.stall_seconds = 0.05; // slow disk
  ScopedScriptedFaults scope(faults);

  resilience::AsyncCheckpointer::Options opts;
  opts.max_in_flight = 1;
  resilience::AsyncCheckpointer ckpt(root, opts);
  Timer t;
  for (int g = 0; g < 3; ++g)
  {
    resilience::CheckpointWriter writer("state.ckpt");
    writer.write_double(double(g));
    std::vector<resilience::AsyncCheckpointer::NamedImage> images;
    images.push_back({"state.ckpt", writer.encode()});
    ckpt.submit(std::move(images));
  }
  // with max_in_flight = 1, the third submit must have waited for the
  // first generation (>= 1 stalled write of 50 ms: state.ckpt)
  EXPECT_GE(t.seconds(), 0.05);
  ckpt.drain();
  EXPECT_EQ(ckpt.status().published, 3ull);
  const auto newest = ckpt.store().newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 2ull);
}

TEST(AsyncService, ThreadPoolTasksRunFifoAndDrainOnDestruction)
{
  std::vector<int> order;
  std::mutex mutex;
  {
    concurrency::ThreadPool pool(1);
    for (int k = 0; k < 16; ++k)
      pool.async([&order, &mutex, k] {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(k);
      });
    // destructor must drain the queue, not abandon it
  }
  ASSERT_EQ(order.size(), 16u);
  for (int k = 0; k < 16; ++k)
    EXPECT_EQ(order[k], k) << "strict FIFO on the service thread";
}

// ---------------------------------------------------------------------------
// the Young/Daly scheduler
// ---------------------------------------------------------------------------

TEST(DalyScheduler, IntervalMatchesTheClosedForm)
{
  resilience::CheckpointScheduler::Options opts;
  opts.prior_mtbf_seconds = 10000.;
  opts.max_interval_seconds = 1e9;
  resilience::CheckpointScheduler sched(opts);
  EXPECT_EQ(sched.interval(), opts.default_interval_seconds)
    << "no measured cost yet: the default interval";

  sched.record_checkpoint_cost(1.);
  const double delta = 1., m = 10000.;
  const double r = std::sqrt(delta / (2. * m));
  const double expected =
    std::sqrt(2. * delta * m) * (1. + r / 3. + r * r / 9.) - delta;
  EXPECT_NEAR(sched.interval(), expected, 1e-12 * expected);

  // cost >= 2 MTBF: checkpoint once per expected failure
  resilience::CheckpointScheduler degenerate(opts);
  degenerate.record_checkpoint_cost(30000.);
  EXPECT_EQ(degenerate.interval(), 10000.);
}

TEST(DalyScheduler, ObservedFailureRateShortensTheInterval)
{
  resilience::CheckpointScheduler::Options opts;
  opts.prior_mtbf_seconds = 1e6;
  resilience::CheckpointScheduler sched(opts);
  sched.record_checkpoint_cost(0.5);
  const double healthy = sched.interval();

  // two failures in the first 100 seconds: MTBF drops to 50 s
  sched.record_failure(40.);
  sched.record_failure(100.);
  EXPECT_EQ(sched.failures(), 2ull);
  EXPECT_EQ(sched.mtbf(), 50.);
  EXPECT_LT(sched.interval(), healthy)
    << "a failing machine must checkpoint more often";

  // should_checkpoint honors the interval relative to the last checkpoint
  sched.checkpoint_taken(100.);
  EXPECT_FALSE(sched.should_checkpoint(100. + 0.5 * sched.interval()));
  EXPECT_TRUE(sched.should_checkpoint(100. + 1.5 * sched.interval()));
}

TEST(DalyScheduler, RecoveryLadderRungsFeedTheFailureRate)
{
  resilience::CheckpointScheduler sched;
  resilience::DistributedRecoveryOptions opts;
  opts.checkpoint_scheduler = &sched;
  const auto report = resilience::run_resilient(
    2, opts,
    [&](vmpi::Communicator &, resilience::RecoveryContext &,
        const resilience::RecoveryAttempt &attempt) {
      if (attempt.attempt < 2)
        throw resilience::SolveAbandoned("injected transient failure", {});
    });
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(sched.failures(), 2ull)
    << "every rung taken is one observed failure";
  EXPECT_LT(sched.mtbf(), resilience::CheckpointScheduler::Options()
                            .prior_mtbf_seconds)
    << "the observed rate replaces the prior";
}

// ---------------------------------------------------------------------------
// shard reassembly under every corruption class (satellite)
// ---------------------------------------------------------------------------

namespace
{
Vector<double> test_field(const std::size_t n)
{
  Vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(0.37 * double(i)) * 1e3 + double(i % 17);
  return v;
}

std::vector<std::vector<char>>
write_sharded(const std::string &dir, const Vector<double> &global,
              const int n_ranks)
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
    writer.write_u64(42);
    writer.write_owned_slice(global.size(), begin, owned);
    auto shard = writer.close();
    checksums[r] = shard.checksum;
    images[r] = std::move(shard.image);
  }
  resilience::write_shard_manifest(dir, checksums);
  return images;
}
} // namespace

// Every corruption class — truncated, bit-flipped, missing shard — must
// either repair via the buddy replica or fail with a diagnostic naming the
// bad shard; never crash, never silently load garbage.
TEST(ShardFaultMatrix, EveryCorruptionClassRepairsViaBuddyOrNamesTheShard)
{
  const Vector<double> global = test_field(997);

  enum class Corruption
  {
    truncated,
    bit_flipped,
    missing
  };
  const int victim = 2;
  for (const Corruption kind :
       {Corruption::truncated, Corruption::bit_flipped, Corruption::missing})
  {
    const std::string dir =
      scratch_dir("shard_matrix_" + std::to_string(int(kind)));
    const auto images = write_sharded(dir, global, 4);
    const std::string victim_path =
      dir + "/" + resilience::shard_file_name(victim);
    switch (kind)
    {
      case Corruption::truncated:
      {
        std::vector<char> bytes = slurp(victim_path);
        bytes.resize(bytes.size() / 2);
        spit(victim_path, bytes);
        break;
      }
      case Corruption::bit_flipped:
      {
        std::vector<char> bytes = slurp(victim_path);
        bytes[bytes.size() - 5] ^= 0x08;
        spit(victim_path, bytes);
        break;
      }
      case Corruption::missing:
        std::remove(victim_path.c_str());
        break;
    }

    // without the buddy: a structured error naming the bad shard
    try
    {
      resilience::ShardCheckpointReader reader(dir);
      FAIL() << "corruption class " << int(kind) << " was silently accepted";
    }
    catch (const resilience::CheckpointError &e)
    {
      EXPECT_NE(std::string(e.what()).find("rank2.ckpt"), std::string::npos)
        << "class " << int(kind) << " diagnostic: " << e.what();
    }

    // with the buddy-replicated image: full N->M restore, bit-identical
    resilience::ShardCheckpointReader reader(dir, {{victim, images[victim]}});
    EXPECT_EQ(reader.read_u64(), 42ull);
    Vector<double> restored;
    reader.read_global(restored);
    ASSERT_EQ(restored.size(), global.size());
    for (std::size_t i = 0; i < global.size(); ++i)
      ASSERT_EQ(restored[i], global[i])
        << "class " << int(kind) << ", dof " << i;
  }
}

// A checksum-valid shard whose slice starts at 2^64 - 1: begin + size wraps
// to a small number, so the bounds check must be written without the sum.
TEST(ShardFaultMatrix, SliceStartingNearTheTopOfTheIndexRangeIsRejected)
{
  const std::string dir = scratch_dir("shard_wrap");
  const std::uint64_t global_size = 4;
  std::vector<std::uint64_t> checksums;
  {
    resilience::ShardCheckpointWriter writer(dir, 0, 2);
    writer.write_owned_slice(global_size, 0, test_field(3));
    checksums.push_back(writer.close().checksum);
  }
  {
    resilience::ShardCheckpointWriter writer(dir, 1, 2);
    writer.write_owned_slice(global_size,
                             std::numeric_limits<std::uint64_t>::max(),
                             test_field(1));
    checksums.push_back(writer.close().checksum);
  }
  resilience::write_shard_manifest(dir, checksums);

  resilience::ShardCheckpointReader reader(dir);
  Vector<double> global;
  try
  {
    reader.read_global(global);
    FAIL() << "a slice outside the global range was accepted";
  }
  catch (const resilience::CheckpointError &e)
  {
    EXPECT_NE(std::string(e.what()).find("rank1.ckpt"), std::string::npos)
      << e.what();
  }
}

// ---------------------------------------------------------------------------
// the application's checkpoint path: LungApplication owns the ring
// ---------------------------------------------------------------------------

namespace
{
LungApplicationParameters small_lung()
{
  LungApplicationParameters prm;
  prm.generations = 1;
  return prm;
}

/// Clamps the Daly interval to exactly 0 so every step checkpoints: the
/// formula would otherwise kick in after the first cost sample and make the
/// schedule wall-clock-dependent.
resilience::CheckpointScheduler::Options every_step()
{
  resilience::CheckpointScheduler::Options schedule;
  schedule.default_interval_seconds = 0.;
  schedule.min_interval_seconds = 0.;
  schedule.max_interval_seconds = 0.;
  return schedule;
}

void expect_same_velocity(LungApplication &a, LungApplication &b)
{
  const auto &u_a = a.solver().velocity();
  const auto &u_b = b.solver().velocity();
  ASSERT_EQ(u_a.size(), u_b.size());
  for (std::size_t i = 0; i < u_a.size(); ++i)
    ASSERT_EQ(std::memcmp(u_a.data() + i, u_b.data() + i, sizeof(double)), 0)
      << "dof " << i;
}
} // namespace

TEST(LungCheckpointing, ScheduledCheckpointRestoresTheCoupledState)
{
  const std::string root = scratch_dir("lung_sched");

  // reference: 10 uninterrupted steps, no checkpointing
  LungApplication reference(small_lung());
  for (int i = 0; i < 6; ++i)
    reference.advance();
  const double dp_at_checkpoint = reference.ventilation().current_dp();
  for (int i = 0; i < 4; ++i)
    reference.advance();

  // checkpointed run: every step goes through the generation ring
  {
    LungApplication app(small_lung());
    app.enable_checkpointing(root, {}, every_step());
    for (int i = 0; i < 6; ++i)
      app.advance();
    app.checkpointer()->drain();
    EXPECT_EQ(app.checkpointer()->status().published, 6ull);
    EXPECT_GT(app.checkpoint_scheduler()->checkpoint_cost(), 0.);
  }

  // "crash" and restart: a fresh application restores the newest
  // generation (step 6) and runs the remaining 4 steps
  LungApplication restarted(small_lung());
  restarted.enable_checkpointing(root);
  ASSERT_TRUE(restarted.restore_latest());
  EXPECT_EQ(restarted.ventilation().current_dp(), dp_at_checkpoint);
  for (int i = 0; i < 4; ++i)
    restarted.advance();
  restarted.checkpointer()->drain();

  EXPECT_EQ(restarted.solver().time(), reference.solver().time());
  expect_same_velocity(restarted, reference);
  for (unsigned int o = 0; o < reference.ventilation().n_outlets(); ++o)
    EXPECT_EQ(restarted.ventilation().outlet_pressure(o),
              reference.ventilation().outlet_pressure(o));
  EXPECT_EQ(restarted.ventilation().current_dp(),
            reference.ventilation().current_dp());
}

// A generation's file is a complete application checkpoint:
// load_checkpoint reads it into an application without a ring of its own
// (as the benchmark's probes do) and the run continues bit for bit.
TEST(CheckpointLungTest, ApplicationRestartResumesBitForBit)
{
  const std::string root = scratch_dir("lung_restart");

  LungApplication reference(small_lung());
  for (int i = 0; i < 10; ++i)
    reference.advance();
  const double dp_at_checkpoint = reference.ventilation().current_dp();
  for (int i = 0; i < 5; ++i)
    reference.advance();

  std::string path;
  {
    LungApplication app(small_lung());
    for (int i = 0; i < 9; ++i)
      app.advance();
    app.enable_checkpointing(root, {}, every_step());
    app.advance(); // step 10 is the one checkpointed step
    app.checkpointer()->drain();
    const auto newest =
      app.checkpointer()->store().newest_valid_generation();
    ASSERT_TRUE(newest.has_value());
    EXPECT_EQ(*newest, 0ull);
    path = app.checkpointer()->store().generation_directory(*newest) +
           "/app.ckpt";
  }

  LungApplication restarted(small_lung());
  restarted.load_checkpoint(path);
  EXPECT_EQ(restarted.ventilation().current_dp(), dp_at_checkpoint);
  for (int i = 0; i < 5; ++i)
    restarted.advance();

  EXPECT_EQ(restarted.solver().time(), reference.solver().time());
  expect_same_velocity(restarted, reference);
  for (unsigned int o = 0; o < reference.ventilation().n_outlets(); ++o)
    EXPECT_EQ(restarted.ventilation().outlet_pressure(o),
              reference.ventilation().outlet_pressure(o));
}

// Every checkpoint write failing (disk full for the whole run) must not
// cost a single time step; the failures are reported in the
// checkpointer's status.
TEST(LungCheckpointing, WriteFailuresNeverKillAHealthySolve)
{
  const std::string root = scratch_dir("lung_enospc");

  resilience::FaultPlan::Config cfg;
  cfg.io_enospc_rate = 1.;
  cfg.io_path_filter = "gen"; // every generation write fails; GC and
                              // directory ops are unaffected
  resilience::FaultPlan plan(cfg);

  LungApplication app(small_lung());
  app.enable_checkpointing(root, {}, every_step());
  {
    ScopedIoFaults scope(plan);
    for (int i = 0; i < 2; ++i)
      EXPECT_NO_THROW(app.advance());
    app.checkpointer()->drain();
  }
  const auto status = app.checkpointer()->status();
  EXPECT_EQ(status.submitted, 2ull);
  EXPECT_EQ(status.failed, 2ull);
  EXPECT_NE(status.last_error.find("ENOSPC"), std::string::npos)
    << status.last_error;
  EXPECT_GT(plan.counts().io_enospc_failures, 0ull);
  EXPECT_FALSE(app.checkpointer()->store().newest_valid_generation())
    << "no generation committed";
  EXPECT_FALSE(app.restore_latest());
}

// On an intact ring restore_latest reads (and checksums) the newest
// generation's file once: the reader that verifies it also deserializes it.
TEST(LungCheckpointing, RestoreLatestReadsTheNewestGenerationOnce)
{
  const std::string root = scratch_dir("lung_read_once");
  LungApplication app(small_lung());
  app.enable_checkpointing(root, {}, every_step());
  for (int i = 0; i < 2; ++i)
    app.advance();
  app.checkpointer()->drain();
  ASSERT_EQ(app.checkpointer()->status().published, 2ull);

  for (int restore = 0; restore < 2; ++restore)
  {
    const auto before = CkptIo::instance().stats();
    ASSERT_TRUE(app.restore_latest());
    const auto after = CkptIo::instance().stats();
    EXPECT_EQ(after.reads - before.reads, 1ull) << "restore " << restore;
  }
}

// A torn write on the newest generation: restore_latest falls back to the
// previous one and the resumed trajectory is exact from there.
TEST(LungCheckpointing, RestoreFallsBackPastATornGeneration)
{
  const std::string root = scratch_dir("lung_torn");

  resilience::FaultPlan::Config cfg;
  cfg.io_torn_write_rate = 1.;
  cfg.io_path_filter = "gen000002"; // tear exactly the third generation
  resilience::FaultPlan plan(cfg);

  {
    LungApplication app(small_lung());
    app.enable_checkpointing(root, {}, every_step());
    ScopedIoFaults scope(plan);
    for (int i = 0; i < 3; ++i)
      app.advance(); // generations 0, 1, 2 (2 torn, but "published")
    app.checkpointer()->drain();
    EXPECT_EQ(app.checkpointer()->status().published, 3ull)
      << "the lying disk reports success for the torn generation";
  }
  EXPECT_GT(plan.counts().io_torn_writes, 0ull);

  LungApplication restarted(small_lung());
  restarted.enable_checkpointing(root);
  const auto newest =
    restarted.checkpointer()->store().newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 1ull) << "the torn generation 2 fails verification";
  ASSERT_TRUE(restarted.restore_latest());

  // the restored state is exactly the end of step 2: one more step lands
  // bitwise on the reference's step-3 state
  LungApplication reference(small_lung());
  for (int i = 0; i < 3; ++i)
    reference.advance();
  restarted.advance();
  EXPECT_EQ(restarted.solver().time(), reference.solver().time());
  expect_same_velocity(restarted, reference);
  EXPECT_EQ(restarted.ventilation().current_dp(),
            reference.ventilation().current_dp());
}

// ---------------------------------------------------------------------------
// end to end: torn generation + rank kill, restore from generation g-1,
// bitwise-equal completion (the PR's acceptance test)
// ---------------------------------------------------------------------------

namespace
{
/// The distributed model problem of the E2E test: a deterministic damped
/// fixed-point iteration coupling all ranks through one allreduce per step,
///   S   = sum_i u_i                (rank-ordered, bitwise deterministic)
///   u_i <- 0.9 u_i + 0.1 b_i + 1e-7 S sin(i)
/// Bit-for-bit reproducible at fixed width — the property the acceptance
/// criterion measures across the torn-write + kill + restore cycle.
struct E2EModel
{
  static constexpr std::size_t n = 512;
  static constexpr int width = 4;

  static std::size_t begin(const int rank)
  {
    return (n * std::size_t(rank)) / width;
  }
  static std::size_t end(const int rank)
  {
    return (n * std::size_t(rank + 1)) / width;
  }

  static void step(std::vector<double> &owned, const std::size_t begin,
                   vmpi::Communicator &comm)
  {
    double partial = 0;
    for (const double u : owned)
      partial += u;
    const double s = comm.allreduce(partial, vmpi::Communicator::Op::sum);
    const Vector<double> b = test_field(n);
    for (std::size_t i = 0; i < owned.size(); ++i)
      owned[i] = 0.9 * owned[i] + 0.1 * b[begin + i] +
                 1e-7 * s * std::sin(double(begin + i));
  }
};

/// One sharded checkpoint generation written cooperatively by all ranks of
/// the E2E run: rank 0 stages and commits, everyone writes its shard.
void e2e_write_generation(resilience::GenerationStore &store,
                          const std::uint64_t id, const std::uint64_t step,
                          const std::vector<double> &owned,
                          const std::size_t begin, vmpi::Communicator &comm)
{
  constexpr int tag_checksum = 951;
  if (comm.rank() == 0)
  {
    const std::uint64_t allocated = store.allocate_generation();
    EXPECT_EQ(allocated, id);
    store.create_staging(id);
  }
  comm.barrier(); // staging directory exists
  const std::string staging = store.generation_directory(id) + ".tmp";
  resilience::ShardCheckpointWriter writer(staging, comm.rank(),
                                           E2EModel::width);
  writer.write_u64(step);
  Vector<double> slice(owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i)
    slice[i] = owned[i];
  writer.write_owned_slice(E2EModel::n, begin, slice);
  const auto shard = writer.close(); // a torn write still "succeeds"
  if (comm.rank() == 0)
  {
    std::vector<std::uint64_t> checksums(E2EModel::width);
    checksums[0] = shard.checksum;
    for (int r = 1; r < E2EModel::width; ++r)
      checksums[r] = comm.recv_vector<std::uint64_t>(r, tag_checksum, 1).at(0);
    resilience::write_shard_manifest(staging, checksums);
    store.commit_generation(id);
  }
  else
    comm.send_vector(0, tag_checksum,
                     std::vector<std::uint64_t>{shard.checksum});
  comm.barrier(); // generation committed
}

/// Runs @p n_steps of the model from the restored state (or from zero),
/// checkpointing after every 5th step when @p store is non-null; returns
/// the final global vector (gathered) or empty on failure.
std::vector<double> e2e_run(resilience::GenerationStore *store,
                            const std::uint64_t first_generation,
                            const std::uint64_t start_step, const int n_steps,
                            const std::vector<double> &start_global,
                            std::atomic<int> *aborted = nullptr)
{
  std::vector<double> final_global(E2EModel::n, 0.);
  std::mutex mutex;
  vmpi::run(E2EModel::width, [&](vmpi::Communicator &comm) {
    comm.set_timeout(0.5);
    const std::size_t begin = E2EModel::begin(comm.rank());
    const std::size_t end = E2EModel::end(comm.rank());
    std::vector<double> owned(start_global.begin() + begin,
                              start_global.begin() + end);
    std::uint64_t next_generation = first_generation;
    try
    {
      for (std::uint64_t s = start_step + 1; s <= start_step + n_steps; ++s)
      {
        E2EModel::step(owned, begin, comm);
        if (store != nullptr && s % 5 == 0)
          e2e_write_generation(*store, next_generation++, s, owned, begin,
                               comm);
      }
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < owned.size(); ++i)
        final_global[begin + i] = owned[i];
    }
    catch (const vmpi::TimeoutError &)
    {
      if (aborted != nullptr)
        ++*aborted; // a peer died: this run is abandoned
    }
    catch (const vmpi::RankFailure &)
    {
      if (aborted != nullptr)
        ++*aborted; // the injected death itself
    }
  });
  return final_global;
}
} // namespace

TEST(EndToEnd, TornGenerationPlusRankKillRestoresFromGMinus1BitwiseEqual)
{
  const std::string root = scratch_dir("e2e");
  const std::vector<double> zeros(E2EModel::n, 0.);

  // fault-free 4-rank reference: 30 steps, no checkpointing
  const std::vector<double> reference =
    e2e_run(nullptr, 0, 0, 30, zeros);

  // faulty run: every write into generation 2 is torn (the lying disk), and
  // rank 2 is killed entering its 24th collective — mid-step 18, after
  // generation 2 "published". Checkpoints at steps 5/10/15 -> gens 0/1/2;
  // per step one allreduce, per checkpoint two barriers: rank 2's
  // collective count after step 17 is 17 + 2*3 = 23, so seq 23 is the
  // step-18 allreduce.
  resilience::FaultPlan::Config cfg;
  cfg.seed = 3;
  cfg.io_torn_write_rate = 1.;
  cfg.io_path_filter = "gen000002";
  cfg.kill_rank = 2;
  cfg.kill_step = 23;
  resilience::FaultPlan plan(cfg);

  std::atomic<int> aborted{0};
  {
    resilience::GenerationStore store(root, {});
    ScopedIoFaults io_scope(plan);
    std::mutex mutex;
    vmpi::run(E2EModel::width, [&](vmpi::Communicator &comm) {
      comm.install_fault_handler(&plan);
      comm.set_timeout(0.5);
      const std::size_t begin = E2EModel::begin(comm.rank());
      std::vector<double> owned(E2EModel::end(comm.rank()) - begin, 0.);
      std::uint64_t next_generation = 0;
      try
      {
        for (std::uint64_t s = 1; s <= 30; ++s)
        {
          E2EModel::step(owned, begin, comm);
          if (s % 5 == 0)
            e2e_write_generation(store, next_generation++, s, owned, begin,
                                 comm);
        }
        ADD_FAILURE() << "rank " << comm.rank()
                      << " finished despite the injected death";
      }
      catch (const vmpi::TimeoutError &)
      {
        ++aborted;
      }
      catch (const vmpi::RankFailure &)
      {
        ++aborted;
      }
      (void)mutex;
    });
  }
  EXPECT_EQ(aborted.load(), E2EModel::width)
    << "every rank unwinds: the victim by death, survivors by timeout";
  EXPECT_EQ(plan.counts().kills, 1ull);
  EXPECT_GT(plan.counts().io_torn_writes, 0ull)
    << "generation 2 must actually have been torn";

  // the node comes back: restart at the SAME width. Recovery must skip the
  // torn generation 2 and restore generation 1 (step 10).
  resilience::GenerationStore store(root, {});
  const auto newest = store.newest_valid_generation();
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, 1ull)
    << "generation 2 is on disk but torn: recovery falls back to g-1";

  std::uint64_t restored_step = 0;
  std::vector<double> restored(E2EModel::n, 0.);
  {
    resilience::ShardCheckpointReader reader(
      store.generation_directory(*newest));
    restored_step = reader.read_u64();
    Vector<double> global;
    reader.read_global(global);
    for (std::size_t i = 0; i < E2EModel::n; ++i)
      restored[i] = global[i];
  }
  EXPECT_EQ(restored_step, 10ull);

  const std::vector<double> completed =
    e2e_run(&store, *newest + 2, restored_step,
            int(30 - restored_step), restored);

  for (std::size_t i = 0; i < E2EModel::n; ++i)
    ASSERT_EQ(std::memcmp(&completed[i], &reference[i], sizeof(double)), 0)
      << "dof " << i << ": the restored run must complete bitwise-equal";
}
