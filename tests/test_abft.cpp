// Algorithm-based fault tolerance (ctest label abft; also run under
// DGFLOW_SANITIZE=address and =undefined by run_benchmarks.sh): strict
// parsing of the fault-injection env knobs, deterministic compute-side
// bit-flip injection, checksummed setup artifacts (geometry batches, kernel
// dispatch tables, partitioner exchange lists, AMG level matrices) with
// scrub-and-rebuild, the CG residual-replay guard with snapshot rollback,
// the guarded V-cycle, the SDC-repair rung of the recovery ladder, and the
// end-to-end repair of mid-solve flips in every protected artifact class on
// four ranks.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "common/env.h"
#include "fem/kernel_backend.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "multigrid/hybrid_multigrid.h"
#include "operators/laplace_operator.h"
#include "resilience/abft.h"
#include "resilience/distributed_recovery.h"
#include "resilience/fault_injection.h"
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

/// Sets an environment variable for the lifetime of one scope.
class ScopedEnv
{
public:
  ScopedEnv(const char *name, const char *value) : name_(name)
  {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

private:
  const char *name_;
};

bool bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
} // namespace

// ---------------------------------------------------------------------------
// satellite: strict parsing of every DGFLOW_FAULT_* / DGFLOW_VMPI_TIMEOUT
// knob (the atof-silently-zero regression: a typo'd knob must fail fast
// naming the variable, not turn fault injection into a vacuous no-op)
// ---------------------------------------------------------------------------

namespace
{
void expect_env_rejects(const char *name, const char *value)
{
  ScopedEnv env(name, value);
  try
  {
    resilience::FaultPlan::config_from_env();
    FAIL() << name << "='" << value << "' was accepted";
  }
  catch (const EnvVarError &e)
  {
    EXPECT_NE(std::strstr(e.what(), name), nullptr)
      << "message does not name " << name << ": " << e.what();
  }
}
} // namespace

TEST(EnvHardening, MalformedFaultKnobsFailFastNamingTheVariable)
{
  for (const char *name :
       {"DGFLOW_FAULT_SEED", "DGFLOW_FAULT_DROP", "DGFLOW_FAULT_DELAY",
        "DGFLOW_FAULT_DELAY_MS", "DGFLOW_FAULT_REORDER",
        "DGFLOW_FAULT_CORRUPT", "DGFLOW_FAULT_CORRUPT_COLL",
        "DGFLOW_FAULT_STALL_RANK", "DGFLOW_FAULT_STALL_MS",
        "DGFLOW_FAULT_KILL_RANK", "DGFLOW_FAULT_KILL_STEP",
        "DGFLOW_FAULT_BITFLIP_STEP", "DGFLOW_FAULT_BITFLIP_RANK",
        "DGFLOW_FAULT_BITFLIP_BIT"})
  {
    expect_env_rejects(name, "banana");
    expect_env_rejects(name, "0.5x"); // trailing junk must not parse
  }
}

TEST(EnvHardening, OutOfRangeFaultKnobsFailFast)
{
  expect_env_rejects("DGFLOW_FAULT_SEED", "-4");
  expect_env_rejects("DGFLOW_FAULT_DROP", "1.5");
  expect_env_rejects("DGFLOW_FAULT_DROP", "-0.1");
  expect_env_rejects("DGFLOW_FAULT_DELAY", "2");
  expect_env_rejects("DGFLOW_FAULT_DELAY_MS", "-3");
  expect_env_rejects("DGFLOW_FAULT_REORDER", "-1");
  expect_env_rejects("DGFLOW_FAULT_CORRUPT", "nan");
  expect_env_rejects("DGFLOW_FAULT_CORRUPT_COLL", "1.01");
  expect_env_rejects("DGFLOW_FAULT_STALL_RANK", "-2");
  expect_env_rejects("DGFLOW_FAULT_STALL_MS", "-1");
  expect_env_rejects("DGFLOW_FAULT_KILL_RANK", "-5");
  expect_env_rejects("DGFLOW_FAULT_KILL_STEP", "-1");
  expect_env_rejects("DGFLOW_FAULT_BITFLIP_STEP", "-1");
  expect_env_rejects("DGFLOW_FAULT_BITFLIP_RANK", "-1");
  expect_env_rejects("DGFLOW_FAULT_BITFLIP_BIT", "-2");
}

TEST(EnvHardening, WellFormedKnobsRoundTrip)
{
  ScopedEnv seed("DGFLOW_FAULT_SEED", "42");
  ScopedEnv drop("DGFLOW_FAULT_DROP", "0.25");
  ScopedEnv delay("DGFLOW_FAULT_DELAY", "0.5");
  ScopedEnv delay_ms("DGFLOW_FAULT_DELAY_MS", "2");
  ScopedEnv reorder("DGFLOW_FAULT_REORDER", "0.1");
  ScopedEnv corrupt("DGFLOW_FAULT_CORRUPT", "0.01");
  ScopedEnv corrupt_coll("DGFLOW_FAULT_CORRUPT_COLL", "0.02");
  ScopedEnv stall_rank("DGFLOW_FAULT_STALL_RANK", "1");
  ScopedEnv stall_ms("DGFLOW_FAULT_STALL_MS", "3");
  ScopedEnv kill_rank("DGFLOW_FAULT_KILL_RANK", "2");
  ScopedEnv kill_step("DGFLOW_FAULT_KILL_STEP", "7");
  ScopedEnv bf_target("DGFLOW_FAULT_BITFLIP_TARGET", "krylov_r");
  ScopedEnv bf_step("DGFLOW_FAULT_BITFLIP_STEP", "9");
  ScopedEnv bf_rank("DGFLOW_FAULT_BITFLIP_RANK", "3");
  ScopedEnv bf_bit("DGFLOW_FAULT_BITFLIP_BIT", "17");

  const auto c = resilience::FaultPlan::config_from_env();
  EXPECT_EQ(c.seed, 42u);
  EXPECT_DOUBLE_EQ(c.drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(c.delay_rate, 0.5);
  EXPECT_DOUBLE_EQ(c.delay_seconds, 2e-3);
  EXPECT_DOUBLE_EQ(c.reorder_rate, 0.1);
  EXPECT_DOUBLE_EQ(c.corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(c.corrupt_collective_rate, 0.02);
  EXPECT_EQ(c.stall_rank, 1);
  EXPECT_DOUBLE_EQ(c.stall_seconds, 3e-3);
  EXPECT_EQ(c.kill_rank, 2);
  EXPECT_EQ(c.kill_step, 7u);
  EXPECT_EQ(c.bitflip_target, "krylov_r");
  EXPECT_EQ(c.bitflip_step, 9u);
  EXPECT_EQ(c.bitflip_rank, 3);
  EXPECT_EQ(c.bitflip_bit, 17);
}

TEST(EnvHardening, VmpiTimeoutRejectsMalformedAndAcceptsValid)
{
  {
    ScopedEnv env("DGFLOW_VMPI_TIMEOUT", "fast");
    EXPECT_THROW(vmpi::run(1, [](vmpi::Communicator &) {}), EnvVarError);
  }
  {
    ScopedEnv env("DGFLOW_VMPI_TIMEOUT", "-1");
    EXPECT_THROW(vmpi::run(1, [](vmpi::Communicator &) {}), EnvVarError);
  }
  {
    ScopedEnv env("DGFLOW_VMPI_TIMEOUT", "30");
    bool ran = false;
    vmpi::run(1, [&](vmpi::Communicator &) { ran = true; });
    EXPECT_TRUE(ran);
  }
}

// ---------------------------------------------------------------------------
// tentpole: deterministic compute-side bit-flip injection
// ---------------------------------------------------------------------------

TEST(BitflipInjection, FiresOnceAtTheConfiguredPointAndIsDeterministic)
{
  resilience::FaultPlan::Config cfg;
  cfg.seed = 7;
  cfg.bitflip_target = "krylov_r";
  cfg.bitflip_step = 5;
  cfg.bitflip_rank = 2;
  resilience::FaultPlan plan_a(cfg), plan_b(cfg);

  std::vector<double> buf_a(64), buf_b(64), clean(64);
  for (std::size_t i = 0; i < clean.size(); ++i)
    buf_a[i] = buf_b[i] = clean[i] = 0.5 * double(i) + 1.;
  const std::size_t bytes = clean.size() * sizeof(double);

  // wrong artifact / step / rank: no flip
  plan_a.inject("krylov_x", 5, 2, buf_a.data(), bytes);
  plan_a.inject("krylov_r", 4, 2, buf_a.data(), bytes);
  plan_a.inject("krylov_r", 5, 1, buf_a.data(), bytes);
  EXPECT_EQ(plan_a.counts().bitflips, 0u);
  EXPECT_EQ(std::memcmp(buf_a.data(), clean.data(), bytes), 0);

  // the configured point: exactly one bit in exactly one element
  plan_a.inject("krylov_r", 5, 2, buf_a.data(), bytes);
  EXPECT_EQ(plan_a.counts().bitflips, 1u);
  unsigned int changed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i)
    if (buf_a[i] != clean[i])
      ++changed;
  EXPECT_EQ(changed, 1u);

  // fires at most once, even if the solve revisits the step after rollback
  std::vector<double> after_first = buf_a;
  plan_a.inject("krylov_r", 5, 2, buf_a.data(), bytes);
  EXPECT_EQ(plan_a.counts().bitflips, 1u);
  EXPECT_EQ(std::memcmp(buf_a.data(), after_first.data(), bytes), 0);

  // an identically configured plan flips the identical bit
  plan_b.inject("krylov_r", 5, 2, buf_b.data(), bytes);
  EXPECT_EQ(std::memcmp(buf_a.data(), buf_b.data(), bytes), 0);
}

TEST(BitflipInjection, ExplicitBitIndexFlipsThatBit)
{
  resilience::FaultPlan::Config cfg;
  cfg.bitflip_target = "geometry";
  cfg.bitflip_step = 1;
  cfg.bitflip_bit = 12; // byte 1, bit 4
  resilience::FaultPlan plan(cfg);
  std::vector<unsigned char> buf(16, 0);
  plan.inject("geometry", 1, 0, buf.data(), buf.size());
  EXPECT_EQ(buf[1], 1u << 4);
  for (std::size_t i = 0; i < buf.size(); ++i)
    if (i != 1)
    {
      EXPECT_EQ(buf[i], 0u) << "stray flip at byte " << i;
    }
}

// ---------------------------------------------------------------------------
// tentpole: checksummed setup artifacts (ArtifactGuard + the per-subsystem
// registration helpers)
// ---------------------------------------------------------------------------

TEST(ArtifactGuard, DetectsACorruptedArtifactAndRebuildsItBitwise)
{
  std::vector<double> source(100), cache;
  for (std::size_t i = 0; i < source.size(); ++i)
    source[i] = std::sin(0.3 * double(i));
  cache = source;

  resilience::ArtifactGuard guard;
  guard.protect(
    "cache",
    [&]() {
      return std::vector<resilience::ArtifactGuard::Region>{
        {cache.data(), cache.size() * sizeof(double)}};
    },
    [&]() { cache = source; });
  EXPECT_EQ(guard.n_artifacts(), 1u);
  EXPECT_TRUE(guard.verify("cache"));
  EXPECT_EQ(guard.scrub(), 0u);

  reinterpret_cast<unsigned char *>(&cache[17])[3] ^= 0x10;
  EXPECT_FALSE(guard.verify("cache"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("cache"));
  EXPECT_EQ(std::memcmp(cache.data(), source.data(),
                        source.size() * sizeof(double)),
            0);
  EXPECT_EQ(guard.rebuilds(), 1u);
}

TEST(ArtifactGuard, RepresentationChangingRepairAdoptsTheNewBaseline)
{
  // a rebuild that cannot restore the exact bits (e.g. disabling a fast
  // path) must leave the guard consistent with the repaired representation
  std::vector<double> data(8, 1.0);
  resilience::ArtifactGuard guard;
  guard.protect(
    "mode",
    [&]() {
      return std::vector<resilience::ArtifactGuard::Region>{
        {data.data(), data.size() * sizeof(double)}};
    },
    [&]() { std::fill(data.begin(), data.end(), 2.0); });

  reinterpret_cast<unsigned char *>(data.data())[0] ^= 0x01;
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("mode"));
  EXPECT_EQ(data[0], 2.0);
  EXPECT_EQ(guard.scrub(), 0u);
}

TEST(ArtifactGuard, RebaselineAcceptsALegitimateMutation)
{
  std::vector<double> data(4, 3.0);
  resilience::ArtifactGuard guard;
  guard.protect(
    "data",
    [&]() {
      return std::vector<resilience::ArtifactGuard::Region>{
        {data.data(), data.size() * sizeof(double)}};
    },
    []() {});
  data[2] = 5.0; // deliberate update, not corruption
  EXPECT_FALSE(guard.verify("data"));
  guard.rebaseline("data");
  EXPECT_TRUE(guard.verify("data"));
  EXPECT_EQ(guard.scrub(), 0u);
}

TEST(ArtifactGuard, UnknownArtifactNameThrows)
{
  resilience::ArtifactGuard guard;
  EXPECT_THROW(guard.verify("no-such-artifact"), std::runtime_error);
  EXPECT_THROW(guard.rebaseline("no-such-artifact"), std::runtime_error);
}

// Flipping bit 63 of a word adds 2^63 to a xor-multiply word hash, and every
// later xor and odd multiply keeps that difference, so a second sign flip
// anywhere cancels the first (and four bit-62 flips cancel the same way).
// The guard's checksum must see both corruptions.
TEST(ArtifactGuard, PairedSignFlipsAreDetected)
{
  std::vector<double> source(1000), data;
  for (std::size_t i = 0; i < source.size(); ++i)
    source[i] = std::sin(0.3 * double(i)) + 2.;
  data = source;
  resilience::ArtifactGuard guard;
  guard.protect(
    "region",
    [&]() {
      return std::vector<resilience::ArtifactGuard::Region>{
        {data.data(), data.size() * sizeof(double)}};
    },
    [&]() { data = source; });
  const auto flip_bit = [&data](const std::size_t i, const unsigned int bit) {
    std::uint64_t w;
    std::memcpy(&w, &data[i], sizeof(w));
    w ^= std::uint64_t(1) << bit;
    std::memcpy(&data[i], &w, sizeof(w));
  };

  data[3] = -data[3];
  EXPECT_FALSE(guard.verify("region")) << "one sign flip";
  data = source;
  data[3] = -data[3];
  data[700] = -data[700];
  EXPECT_FALSE(guard.verify("region")) << "two sign flips";
  data = source;
  for (const std::size_t i : {10, 20, 30, 40})
    flip_bit(i, 62);
  EXPECT_FALSE(guard.verify("region")) << "four bit-62 flips";
  data = source;
  EXPECT_TRUE(guard.verify("region"));
}

TEST(ArtifactGuard, KernelDispatchTablesVerifyAndRouteAroundOnCorruption)
{
  ASSERT_EQ(default_kernel_backend(), KernelBackendType::batch);
  resilience::ArtifactGuard guard;
  resilience::protect_kernel_tables(guard);
  EXPECT_EQ(guard.scrub(), 0u);

  // code pointers cannot be rebuilt from primary data; the repair disables
  // the specialized fast path (generic kernels give the same results) and
  // the guard rebaselines onto the safe representation
  set_default_kernel_backend(KernelBackendType::generic);
  EXPECT_FALSE(guard.verify("kernel_dispatch_tables"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_EQ(default_kernel_backend(), KernelBackendType::generic);
  EXPECT_TRUE(guard.verify("kernel_dispatch_tables"));
  EXPECT_EQ(guard.scrub(), 0u);
  set_default_kernel_backend(KernelBackendType::batch);
}

TEST(ArtifactGuard, GeometryBatchFlipIsRebuiltBitIdentically)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  Vector<double> v(laplace.n_dofs()), reference(laplace.n_dofs()),
    repaired(laplace.n_dofs());
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = std::cos(0.1 * double(i));
  laplace.vmult(reference, v);

  resilience::ArtifactGuard guard;
  resilience::protect_matrix_free(guard, mf);

  auto &cm = mf.cell_metric_mutable(0);
  unsigned char *bytes = nullptr;
  if (cm.batch_det.size() > 0)
    bytes = reinterpret_cast<unsigned char *>(cm.batch_det.data());
  else if (cm.JxW.size() > 0)
    bytes = reinterpret_cast<unsigned char *>(cm.JxW.data());
  ASSERT_NE(bytes, nullptr) << "no cell metric data to corrupt";
  bytes[6] ^= 0x01;

  EXPECT_FALSE(guard.verify("matrix_free"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("matrix_free")); // recompute is deterministic
  laplace.vmult(repaired, v);
  EXPECT_TRUE(bitwise_equal(repaired, reference));
}

TEST(ArtifactGuard, PartitionerExchangeListFlipIsRebuilt)
{
  Mesh mesh = make_mesh(1);
  const int n_ranks = 2;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  auto part =
    vmpi::Partitioner::cell_partitioner(mesh, rank_of_cell, 0, n_ranks);
  const auto reference =
    vmpi::Partitioner::cell_partitioner(mesh, rank_of_cell, 0, n_ranks);
  ASSERT_FALSE(part.ghost_indices().empty());

  resilience::ArtifactGuard guard;
  resilience::protect_partitioner(guard, part, mesh, rank_of_cell);
  EXPECT_EQ(guard.scrub(), 0u);

  auto &ghosts = const_cast<std::vector<std::size_t> &>(part.ghost_indices());
  ghosts[0] ^= std::size_t(1) << 7;
  EXPECT_FALSE(guard.verify("partitioner"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("partitioner"));
  EXPECT_EQ(part.ghost_indices(), reference.ghost_indices());
}

TEST(ArtifactGuard, AmgLevelFlipIsRebuiltBitIdentically)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float> mg;
  mg.setup(mesh, geom, 2, all_dirichlet());

  resilience::ArtifactGuard guard;
  resilience::protect_amg(guard, mg);
  EXPECT_EQ(guard.scrub(), 0u);

  ASSERT_GE(mg.amg().n_levels(), 1u);
  ASSERT_GT(mg.amg().level_nnz(0), 0u);
  reinterpret_cast<unsigned char *>(mg.amg().level_values(0))[6] ^= 0x01;
  EXPECT_FALSE(guard.verify("amg_levels"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("amg_levels")); // AMG setup is deterministic
}

TEST(ArtifactGuard, SmootherBlockFlipIsRebuiltBitIdentically)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float> mg;
  mg.setup(mesh, geom, 2, all_dirichlet()); // DG(2) and DG(1) levels

  resilience::ArtifactGuard guard;
  resilience::protect_smoother_blocks(guard, mg);
  EXPECT_EQ(guard.scrub(), 0u);

  std::vector<std::pair<const void *, std::size_t>> regions;
  mg.collect_smoother_block_regions(regions);
  ASSERT_EQ(regions.size(), 2u);
  // the DG levels run from DG(1) up: the last region is DG(2)'s 27 x 27
  const auto [data, bytes] = regions.back();
  ASSERT_EQ(bytes, mesh.n_active_cells() * 27 * 27 * sizeof(float));
  const auto *block_bytes = static_cast<const unsigned char *>(data);
  const std::vector<unsigned char> original(block_bytes, block_bytes + bytes);

  const_cast<unsigned char *>(block_bytes)[bytes / 2 + 1] ^= 0x10;
  EXPECT_FALSE(guard.verify("smoother_blocks"));
  EXPECT_EQ(guard.scrub(), 1u);
  EXPECT_TRUE(guard.verify("smoother_blocks"));
  // probe and inversion are deterministic: the original bytes are back
  EXPECT_EQ(std::memcmp(data, original.data(), bytes), 0);
}

TEST(SmootherBlockGuard, NonFiniteBlockFallsBackToItsPointDiagonal)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<float> mf;
  MatrixFree<float>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  mf.reinit(mesh, geom, data);
  LaplaceOperator<float> op;
  op.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int n = mf.dofs_per_cell(0);
  const std::size_t n_cells = mesh.n_active_cells();

  Vector<float> blocks, diag;
  op.compute_cell_blocks(blocks);
  op.compute_diagonal(diag);
  const std::size_t cell = 3;
  float *block = blocks.data() + cell * n * n;
  block[5 * n + 4] = std::numeric_limits<float>::quiet_NaN(); // entry (4, 5)

  const std::size_t fallbacks = invert_cell_blocks(blocks, n);
  EXPECT_EQ(fallbacks, 1u);
  for (unsigned int j = 0; j < n; ++j)
    for (unsigned int i = 0; i < n; ++i)
    {
      const float expected = i == j ? 1.f / diag[cell * n + i] : 0.f;
      ASSERT_EQ(block[j * n + i], expected)
        << "entry (" << i << ", " << j << ") of the fallback block";
    }

  ChebyshevSmoother<LaplaceOperator<float>, Vector<float>,
                    CellBlockInverse<float>>
    smoother;
  smoother.reinit(op, CellBlockInverse<float>(blocks.data(), n, n_cells,
                                              fallbacks));
  EXPECT_FALSE(smoother.setup_stats().converged);
  EXPECT_EQ(smoother.setup_stats().failure, SolveFailure::non_finite);

  Vector<float> b(op.n_dofs()), x(op.n_dofs());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = float(std::sin(0.05 * double(i)));
  smoother.smooth(x, b, true);
  smoother.smooth(x, b, false);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_TRUE(std::isfinite(x[i])) << "non-finite entry " << i;
}

// ---------------------------------------------------------------------------
// tentpole: the CG residual-replay guard (serial)
// ---------------------------------------------------------------------------

namespace
{
SolveStats solve_serial_poisson(const SolverControl &control, Vector<double> &x)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double>::AdditionalData data;
  data.degrees = {2};
  data.n_q_points_1d = {3};
  MatrixFree<double> mf;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  Vector<double> rhs;
  laplace.assemble_rhs(rhs, forcing, exact_solution);
  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);
  x.reinit(laplace.n_dofs());
  return solve_cg(laplace, x, rhs, jacobi, control);
}

/// Injector that multiplies the first residual entry by 1e30 at every
/// iteration boundary: persistent corruption no rollback can clear.
class PersistentCorruptor : public AbftInjector
{
public:
  void inject(const char *artifact, const unsigned long long, const int,
              void *data, const std::size_t bytes) override
  {
    if (std::strcmp(artifact, "krylov_r") != 0 || bytes < sizeof(double))
      return;
    static_cast<double *>(data)[0] *= 1e30;
  }
};
} // namespace

TEST(CgAbftGuard, FaultFreeGuardedSolveIsBitwiseIdenticalToUnguarded)
{
  SolverControl off;
  Vector<double> x_off;
  const SolveStats s_off = solve_serial_poisson(off, x_off);
  ASSERT_TRUE(s_off.converged);

  SolverControl on;
  on.abft_replay_interval = 4;
  Vector<double> x_on;
  const SolveStats s_on = solve_serial_poisson(on, x_on);
  ASSERT_TRUE(s_on.converged);
  EXPECT_GT(s_on.residual_replays, 0u);
  EXPECT_EQ(s_on.sdc_detected, 0u);
  EXPECT_EQ(s_on.sdc_rollbacks, 0u);
  EXPECT_EQ(s_on.iterations, s_off.iterations);
  EXPECT_TRUE(bitwise_equal(x_on, x_off));
}

TEST(CgAbftGuard, KrylovVectorFlipsAreRolledBackToTheFaultFreeSolution)
{
  SolverControl clean_control;
  clean_control.abft_replay_interval = 4;
  Vector<double> x_clean;
  const SolveStats s_clean = solve_serial_poisson(clean_control, x_clean);
  ASSERT_TRUE(s_clean.converged);

  for (const char *target : {"krylov_x", "krylov_r", "krylov_p"})
  {
    SCOPED_TRACE(target);
    resilience::FaultPlan::Config cfg;
    cfg.seed = 11;
    cfg.bitflip_target = target;
    cfg.bitflip_step = 6;
    // element 10, exponent high bit: a flip no drift threshold can miss
    cfg.bitflip_bit = 64 * 10 + 62;
    resilience::FaultPlan plan(cfg);

    SolverControl control;
    control.abft_replay_interval = 4;
    control.abft_inject = &plan;
    Vector<double> x;
    const SolveStats stats = solve_serial_poisson(control, x);
    EXPECT_EQ(plan.counts().bitflips, 1u);
    EXPECT_TRUE(stats.converged) << to_string(stats.failure);
    EXPECT_GE(stats.sdc_detected, 1u);
    EXPECT_GE(stats.sdc_rollbacks, 1u);
    EXPECT_TRUE(bitwise_equal(x, x_clean))
      << "repaired solution differs from the fault-free run";
  }
}

TEST(CgAbftGuard, PersistentCorruptionExhaustsTheRollbackBudgetAndFails)
{
  PersistentCorruptor corruptor;
  SolverControl control;
  control.abft_replay_interval = 4;
  control.abft_max_rollbacks = 1;
  control.abft_inject = &corruptor;
  Vector<double> x;
  const SolveStats stats = solve_serial_poisson(control, x);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.failure, SolveFailure::sdc_detected);
  EXPECT_GE(stats.residual_replays, 1u);
  EXPECT_GE(stats.sdc_detected, 1u);
  EXPECT_EQ(stats.sdc_rollbacks, 1u); // the whole budget
}

// ---------------------------------------------------------------------------
// tentpole: the guarded V-cycle
// ---------------------------------------------------------------------------

TEST(MultigridAbftGuard, GuardedHealthyVcycleIsBitwiseIdentical)
{
  Mesh mesh = make_mesh(1);
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float> plain, guarded;
  HybridMultigrid<float>::Options guarded_opts;
  guarded_opts.abft_guard = true;
  plain.setup(mesh, geom, 2, all_dirichlet());
  guarded.setup(mesh, geom, 2, all_dirichlet(), guarded_opts);

  const std::size_t n = plain.level_dofs(plain.n_levels() - 1);
  Vector<double> src(n), dst_plain(n), dst_guarded(n);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.05 * double(i));
  plain.vmult(dst_plain, src);
  guarded.vmult(dst_guarded, src);
  EXPECT_TRUE(bitwise_equal(dst_guarded, dst_plain));
  EXPECT_EQ(guarded.abft_vcycle_repairs(), 0u);
}

TEST(MultigridAbftGuard, NonFiniteCoarseLevelIsContainedToAFiniteResult)
{
  Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  HybridMultigrid<float>::Options opts;
  opts.abft_guard = true;
  // force a smoothed AMG level (with h-coarsening and the default coarse
  // size this problem routes straight to the dense LU, bypassing the level
  // matrix the test corrupts)
  opts.h_coarsening = false;
  opts.amg.max_coarse_size = 30;
  HybridMultigrid<float> mg;
  mg.setup(mesh, geom, 2, all_dirichlet(), opts);

  ASSERT_GT(mg.amg().n_levels(), 1u);
  ASSERT_GT(mg.amg().level_nnz(0), 0u);
  mg.amg().level_values(0)[0] = std::numeric_limits<double>::quiet_NaN();

  const std::size_t n = mg.level_dofs(mg.n_levels() - 1);
  Vector<double> src(n), dst(n);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.05 * double(i));
  mg.vmult(dst, src);
  for (std::size_t i = 0; i < dst.size(); ++i)
    ASSERT_TRUE(std::isfinite(dst[i])) << "non-finite entry " << i;
  EXPECT_GE(mg.abft_vcycle_repairs(), 1u);
}

// ---------------------------------------------------------------------------
// satellite: the recovery ladder's SDC-repair rung and a local timeout
// routed through resolve_failure()
// ---------------------------------------------------------------------------

TEST(RecoveryLadder, SdcDetectedTakesTheScrubRungWithoutRestoreOrShrink)
{
  std::mutex mutex;
  std::vector<resilience::RecoveryAttempt> attempts;
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
      if (attempt.attempt == 0)
        throw resilience::SdcDetected("injected: unrepairable replay drift");
    });
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.sdc_repairs, 1);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.restores, 0);
  EXPECT_EQ(report.shrinks, 0);
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_FALSE(attempts[0].scrub);
  EXPECT_TRUE(attempts[1].scrub);
  EXPECT_FALSE(attempts[1].restore);
  EXPECT_EQ(attempts[1].n_ranks, 2);
}

TEST(RecoveryLadder, PersistentSdcExhaustsItsOwnBudgetAndRethrows)
{
  resilience::DistributedRecoveryOptions opts;
  opts.max_sdc_repairs = 1;
  EXPECT_THROW(
    resilience::run_resilient(
      2, opts,
      [&](vmpi::Communicator &, resilience::RecoveryContext &,
          const resilience::RecoveryAttempt &) {
        throw resilience::SdcDetected("injected: persists across scrubs");
      }),
    resilience::SdcDetected);
}

TEST(RecoveryLadder, LocalTimeoutWithAllRanksAliveTakesTheRetryRung)
{
  resilience::DistributedRecoveryOptions opts;
  const auto report = resilience::run_resilient(
    2, opts,
    [&](vmpi::Communicator &comm, resilience::RecoveryContext &ctx,
        const resilience::RecoveryAttempt &attempt) {
      if (attempt.attempt == 0)
      {
        try
        {
          throw vmpi::TimeoutError("injected: lost ghost message",
                                   comm.rank(), 1 - comm.rank(), 930, 0.);
        }
        catch (const vmpi::TimeoutError &)
        {
          // a lost message is locally indistinguishable from a dying
          // peer; resolve_failure()'s agreement round (all alive here)
          // returns, and the rethrow takes the plain-retry rung
          ctx.resolve_failure();
          throw;
        }
      }
    });
  EXPECT_TRUE(report.succeeded);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.sdc_repairs, 0);
  EXPECT_EQ(report.restores, 0);
  EXPECT_EQ(report.shrinks, 0);
}

// ---------------------------------------------------------------------------
// satellite: end-to-end on four ranks — a mid-solve flip in each protected
// artifact class (Krylov vector, geometry batch, AMG level) is detected and
// repaired locally, and the final solution matches the fault-free run
// bitwise
// ---------------------------------------------------------------------------

namespace
{
struct RankOutcome
{
  SolveStats stats;
  unsigned long long guard_rebuilds = 0;
};

/// Flips one bit of a setup artifact (registered by the victim rank after
/// its stack is built) at a chosen iteration boundary, riding the solver's
/// injection hook for the step/rank trigger.
class TargetedCorruptor : public AbftInjector
{
public:
  int victim = 0;
  unsigned long long step = 0;
  std::atomic<unsigned char *> target{nullptr};
  std::atomic<unsigned long long> flips{0};

  void inject(const char *artifact, const unsigned long long s,
              const int rank, void *, std::size_t) override
  {
    if (std::strcmp(artifact, "krylov_x") != 0 || s != step ||
        rank != victim)
      return;
    unsigned char *t = target.load(std::memory_order_relaxed);
    if (t && flips.fetch_add(1, std::memory_order_relaxed) == 0)
      *t ^= 0x01; // a low exponent bit: an unmissable but finite change
  }
};

void run_distributed_poisson(
  AbftInjector *inject,
  const std::function<void(int, MatrixFree<double> &,
                           HybridMultigrid<float> &)> &post_setup,
  Vector<double> &x_out, std::array<RankOutcome, 4> &out)
{
  const int n_ranks = 4;
  const unsigned int degree = 3;
  Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());
  const BoundaryMap bc = all_dirichlet();

  // serial assembly shared by every rank
  MatrixFree<double>::AdditionalData ref_data;
  ref_data.degrees = {degree};
  ref_data.n_q_points_1d = {degree + 1};
  MatrixFree<double> ref_mf;
  ref_mf.reinit(mesh, geom, ref_data);
  LaplaceOperator<double> ref_laplace;
  ref_laplace.reinit(ref_mf, 0, 0, bc);
  Vector<double> rhs;
  ref_laplace.assemble_rhs(rhs, forcing, exact_solution);
  x_out.reinit(ref_laplace.n_dofs());

  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);

    MatrixFree<double>::AdditionalData data;
    data.degrees = {degree};
    data.n_q_points_1d = {degree + 1};
    data.rank_of_cell = rank_of_cell;
    data.n_ranks = n_ranks;
    MatrixFree<double> mf;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, bc);

    HybridMultigrid<float>::Options mg_opts;
    mg_opts.rank_of_cell = rank_of_cell;
    mg_opts.n_ranks = n_ranks;
    mg_opts.abft_guard = true;
    HybridMultigrid<float> mg;
    mg.setup(mesh, geom, degree, bc, mg_opts);
    mg.setup_distributed(comm, part);

    resilience::ArtifactGuard guard;
    resilience::protect_matrix_free(guard, mf);
    resilience::protect_amg(guard, mg);
    post_setup(comm.rank(), mf, mg);

    const unsigned int dofs_per_cell = mf.dofs_per_cell(0);
    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), bd;
    bd.reinit(part, comm, dofs_per_cell);
    bd.copy_owned_from(rhs);

    SolverControl control;
    control.rel_tol = 1e-11;
    control.abft_replay_interval = 3;
    control.abft_scrub = &guard;
    control.abft_inject = inject;
    const SolveStats stats = solve_cg(laplace, xd, bd, mg, control);

    out[comm.rank()] = {stats, guard.rebuilds()};
    const std::size_t first = xd.first_local_index();
    for (std::size_t i = 0; i < xd.size(); ++i)
      x_out[first + i] = xd.data()[i];
  });
}
} // namespace

TEST(AbftEndToEnd, InjectedFlipsAreRepairedLocallyOnFourRanks)
{
  const auto no_setup = [](int, MatrixFree<double> &,
                           HybridMultigrid<float> &) {};

  // fault-free reference
  Vector<double> x_clean;
  std::array<RankOutcome, 4> clean{};
  run_distributed_poisson(nullptr, no_setup, x_clean, clean);
  for (const auto &r : clean)
  {
    ASSERT_TRUE(r.stats.converged) << to_string(r.stats.failure);
    EXPECT_GT(r.stats.residual_replays, 0u);
    EXPECT_EQ(r.stats.sdc_detected, 0u);
    EXPECT_EQ(r.stats.scrub_rebuilds, 0u);
  }
  ASSERT_GT(clean[0].stats.iterations, 7u)
    << "solve too short for a step-5 flip to be exercised";

  { // a flipped bit in a Krylov vector: caught by the residual replay (or
    // the non-finite rung), repaired by a snapshot rollback on every rank
    SCOPED_TRACE("krylov vector");
    resilience::FaultPlan::Config cfg;
    cfg.seed = 5;
    cfg.bitflip_target = "krylov_r";
    cfg.bitflip_step = 5;
    cfg.bitflip_rank = 2;
    cfg.bitflip_bit = 64 * 9 + 62;
    resilience::FaultPlan plan(cfg);

    Vector<double> x;
    std::array<RankOutcome, 4> out{};
    run_distributed_poisson(&plan, no_setup, x, out);
    EXPECT_EQ(plan.counts().bitflips, 1u);
    for (const auto &r : out)
    {
      EXPECT_TRUE(r.stats.converged) << to_string(r.stats.failure);
      EXPECT_GE(r.stats.sdc_detected, 1u);
      EXPECT_GE(r.stats.sdc_rollbacks, 1u);
      EXPECT_EQ(r.stats.scrub_rebuilds, 0u);
    }
    EXPECT_TRUE(bitwise_equal(x, x_clean));
  }

  { // a flipped bit in a compressed geometry batch: caught by the victim's
    // checksum scrub, rebuilt bit-identically from the mesh, and the
    // rollback decision is collective (the allreduced rebuild count)
    SCOPED_TRACE("geometry batch");
    TargetedCorruptor corruptor;
    corruptor.victim = 1;
    corruptor.step = 5;
    Vector<double> x;
    std::array<RankOutcome, 4> out{};
    run_distributed_poisson(
      &corruptor,
      [&](const int rank, MatrixFree<double> &mf, HybridMultigrid<float> &) {
        if (rank != corruptor.victim)
          return;
        auto &cm = mf.cell_metric_mutable(0);
        unsigned char *bytes =
          cm.batch_det.size() > 0
            ? reinterpret_cast<unsigned char *>(cm.batch_det.data())
            : reinterpret_cast<unsigned char *>(cm.JxW.data());
        corruptor.target.store(bytes + 6, std::memory_order_relaxed);
      },
      x, out);
    EXPECT_EQ(corruptor.flips.load(), 1u);
    EXPECT_GE(out[1].guard_rebuilds, 1u);
    EXPECT_GE(out[1].stats.scrub_rebuilds, 1u);
    for (const auto &r : out)
    {
      EXPECT_TRUE(r.stats.converged) << to_string(r.stats.failure);
      EXPECT_GE(r.stats.sdc_detected, 1u);
      EXPECT_GE(r.stats.sdc_rollbacks, 1u);
    }
    EXPECT_TRUE(bitwise_equal(x, x_clean));
  }

  { // a flipped bit in an AMG level matrix: invisible to the replay
    // invariants (a perturbed preconditioner preserves r = b - A x), caught
    // by the checksum scrub alone and rebuilt deterministically
    SCOPED_TRACE("amg level");
    TargetedCorruptor corruptor;
    corruptor.victim = 3;
    corruptor.step = 5;
    Vector<double> x;
    std::array<RankOutcome, 4> out{};
    run_distributed_poisson(
      &corruptor,
      [&](const int rank, MatrixFree<double> &, HybridMultigrid<float> &mg) {
        if (rank != corruptor.victim)
          return;
        ASSERT_GT(mg.amg().level_nnz(0), 0u);
        corruptor.target.store(
          reinterpret_cast<unsigned char *>(mg.amg().level_values(0)) + 6,
          std::memory_order_relaxed);
      },
      x, out);
    EXPECT_EQ(corruptor.flips.load(), 1u);
    EXPECT_GE(out[3].guard_rebuilds, 1u);
    EXPECT_GE(out[3].stats.scrub_rebuilds, 1u);
    for (const auto &r : out)
    {
      EXPECT_TRUE(r.stats.converged) << to_string(r.stats.failure);
      EXPECT_GE(r.stats.sdc_detected, 1u);
      EXPECT_GE(r.stats.sdc_rollbacks, 1u);
    }
    EXPECT_TRUE(bitwise_equal(x, x_clean));
  }
}
