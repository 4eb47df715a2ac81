// Shared-memory thread-parallel cell loops (ctest label threading; also run
// under DGFLOW_SANITIZE=thread by run_benchmarks.sh): worker-pool basics
// (every chunk runs exactly once, exceptions propagate, nested regions fall
// back to inline-serial), strict parsing of the DGFLOW_THREADS knob, and the
// determinism contract of the threaded loops — vmult, the fused Jacobi-CG
// solve and the fused Chebyshev sweep must be BITWISE identical to the
// single-threaded sweep at any thread count, serially and on four vmpi
// ranks with per-rank thread partitions.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/env.h"
#include "concurrency/thread_pool.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "operators/laplace_operator.h"
#include "solvers/cg.h"
#include "solvers/chebyshev.h"
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

bool bitwise_equal(const Vector<double> &a, const Vector<double> &b)
{
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

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

/// Restores the global pool width when a test body returns or throws.
class ScopedPoolWidth
{
public:
  ScopedPoolWidth()
    : saved_(concurrency::ThreadPool::instance().n_threads())
  {
  }
  ~ScopedPoolWidth()
  {
    concurrency::ThreadPool::instance().set_n_threads(saved_);
  }

private:
  unsigned int saved_;
};
} // namespace

// ---------------------------------------------------------------------------
// worker pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, EveryChunkRunsExactlyOnce)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  for (const unsigned int nt : {1u, 2u, 4u})
  {
    pool.set_n_threads(nt);
    const unsigned int n_chunks = 37;
    std::vector<std::atomic<int>> counts(n_chunks);
    for (auto &c : counts)
      c = 0;
    pool.run_chunks(n_chunks,
                    [&](const unsigned int c) { ++counts[c]; });
    for (unsigned int c = 0; c < n_chunks; ++c)
      EXPECT_EQ(counts[c].load(), 1) << "chunk " << c << " at " << nt
                                     << " threads";
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  // larger than the grain so the range actually splits into several chunks
  const std::size_t n = (std::size_t(1) << 17) + 13;
  std::vector<std::atomic<signed char>> hits(n);
  for (auto &h : hits)
    h = 0;
  pool.parallel_for(n, [&](const std::size_t i0, const std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i)
      ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(int(hits[i].load()), 1) << "index " << i;
}

TEST(ThreadPoolTest, ExceptionsPropagateToTheCaller)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  EXPECT_THROW(pool.run_chunks(16,
                               [&](const unsigned int c) {
                                 if (c == 7)
                                   throw std::runtime_error("chunk 7");
                               }),
               std::runtime_error);
  // the pool stays usable after a failed region
  std::atomic<int> sum{0};
  pool.run_chunks(8, [&](const unsigned int c) { sum += int(c); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTest, NestedRegionsRunInlineSerial)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  std::atomic<int> inner_total{0};
  pool.run_chunks(4, [&](const unsigned int) {
    // a nested region must not deadlock; it degrades to inline execution
    pool.run_chunks(4,
                    [&](const unsigned int c) { inner_total += int(c); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 6);
}

// ---------------------------------------------------------------------------
// satellite: strict parsing of DGFLOW_THREADS (a typo'd knob must fail fast
// naming the variable, not silently fall back to serial execution)
// ---------------------------------------------------------------------------

namespace
{
void expect_threads_env_rejects(const char *value)
{
  ScopedEnv env("DGFLOW_THREADS", value);
  try
  {
    concurrency::configured_threads_from_env();
    FAIL() << "DGFLOW_THREADS='" << value << "' was accepted";
  }
  catch (const EnvVarError &e)
  {
    EXPECT_NE(std::strstr(e.what(), "DGFLOW_THREADS"), nullptr)
      << "message does not name DGFLOW_THREADS: " << e.what();
  }
}
} // namespace

TEST(EnvHardening, MalformedThreadKnobFailsFastNamingTheVariable)
{
  for (const char *value : {"banana", "0", "-2", "2000", "3.5", "4x", ""})
    expect_threads_env_rejects(value);
}

TEST(EnvHardening, WellFormedThreadKnobIsAccepted)
{
  {
    ScopedEnv env("DGFLOW_THREADS", "4");
    EXPECT_EQ(concurrency::configured_threads_from_env(), 4u);
  }
  unsetenv("DGFLOW_THREADS");
  EXPECT_EQ(concurrency::configured_threads_from_env(), 1u);
}

// ---------------------------------------------------------------------------
// determinism contract: threaded loops are bitwise identical to serial
// ---------------------------------------------------------------------------

namespace
{
struct ThreadedRun
{
  Vector<double> vmult_dst;
  Vector<double> cg_x;
  Vector<double> cheb_x;
};

/// Builds the operator with an nt-chunk thread partition on an nt-wide pool
/// and runs vmult, a fused Jacobi-CG solve and a fused Chebyshev sweep.
ThreadedRun run_threaded(const Mesh &mesh, const unsigned int degree,
                         const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.n_threads = nt;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  ThreadedRun run;
  Vector<double> src(laplace.n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * double(i)) + 0.1;
  laplace.vmult(run.vmult_dst, src);

  Vector<double> diag;
  laplace.compute_diagonal(diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(diag);
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 200;
  run.cg_x.reinit(laplace.n_dofs());
  const auto stats = solve_cg(laplace, run.cg_x, src, jacobi, control);
  EXPECT_TRUE(stats.converged);

  ChebyshevSmoother<LaplaceOperator<double>, Vector<double>> smoother;
  ChebyshevData cdata;
  cdata.degree = 4;
  smoother.reinit(laplace, diag, cdata);
  run.cheb_x.reinit(laplace.n_dofs());
  smoother.smooth(run.cheb_x, src, /*zero_initial_guess=*/true);
  smoother.smooth(run.cheb_x, src, /*zero_initial_guess=*/false);
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, VmultFusedCGAndChebyshevAreBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const Mesh mesh = make_mesh(2);
  const unsigned int degree = 2;
  const ThreadedRun ref = run_threaded(mesh, degree, 1);
  for (const unsigned int nt : {2u, 4u})
  {
    const ThreadedRun run = run_threaded(mesh, degree, nt);
    EXPECT_TRUE(bitwise_equal(run.vmult_dst, ref.vmult_dst))
      << "vmult differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.cg_x, ref.cg_x))
      << "fused CG differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.cheb_x, ref.cheb_x))
      << "fused Chebyshev differs at " << nt << " threads";
  }
}

TEST(ThreadDeterminismTest, ChunkedDotIsIndependentOfThreadCount)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  // large enough to span many 4096-scalar blocks and all 64 outer chunks
  Vector<double> a(300000 + 7), b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
  {
    a[i] = std::sin(0.1 * double(i));
    b[i] = std::cos(0.01 * double(i)) + 1e-3;
  }
  pool.set_n_threads(1);
  const double ref = a.dot(b);
  for (const unsigned int nt : {2u, 3u, 4u, 8u})
  {
    pool.set_n_threads(nt);
    const double d = a.dot(b);
    EXPECT_EQ(std::memcmp(&d, &ref, sizeof(double)), 0)
      << "dot differs at " << nt << " threads";
  }
}

// ---------------------------------------------------------------------------
// threads x ranks: per-rank thread partitions on four vmpi ranks
// ---------------------------------------------------------------------------

namespace
{
struct DistributedRun
{
  Vector<double> vmult_dst;
  Vector<double> cg_x;
};

DistributedRun run_distributed_threaded(const Mesh &mesh,
                                        const unsigned int degree,
                                        const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  data.rank_of_cell = rank_of_cell;
  data.n_ranks = n_ranks;
  data.n_threads = nt;
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());
  const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

  Vector<double> src(laplace.n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * double(i)) + 0.1;
  Vector<double> diag;
  laplace.compute_diagonal(diag);

  DistributedRun run;
  run.vmult_dst.reinit(laplace.n_dofs());
  run.cg_x.reinit(laplace.n_dofs());
  vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
    const auto part = vmpi::Partitioner::cell_partitioner(
      mesh, rank_of_cell, comm.rank(), n_ranks);
    vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), yd;
    xd.copy_owned_from(src);
    laplace.vmult(yd, xd);
    for (std::size_t i = 0; i < yd.size(); ++i)
      run.vmult_dst[yd.first_local_index() + i] = yd.data()[i];

    vmpi::DistributedVector<double> bd, ddiag, sol;
    bd.reinit(part, comm, dofs_per_cell);
    bd.copy_owned_from(src);
    ddiag.reinit(part, comm, dofs_per_cell);
    ddiag.copy_owned_from(diag);
    PreconditionJacobi<double> jd;
    jd.reinit(ddiag);
    SolverControl control;
    control.rel_tol = 1e-10;
    control.max_iterations = 200;
    sol.reinit(part, comm, dofs_per_cell);
    const auto stats = solve_cg(laplace, sol, bd, jd, control);
    EXPECT_TRUE(stats.converged);
    for (std::size_t i = 0; i < sol.size(); ++i)
      run.cg_x[sol.first_local_index() + i] = sol.data()[i];
  });
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, FourRanksTimesThreadsAreBitwiseIdentical)
{
  ScopedPoolWidth guard;
  const Mesh mesh = make_mesh(2);
  const unsigned int degree = 1;
  const DistributedRun ref = run_distributed_threaded(mesh, degree, 1);
  for (const unsigned int nt : {2u, 4u})
  {
    const DistributedRun run = run_distributed_threaded(mesh, degree, nt);
    EXPECT_TRUE(bitwise_equal(run.vmult_dst, ref.vmult_dst))
      << "distributed vmult differs at " << nt << " threads per rank";
    EXPECT_TRUE(bitwise_equal(run.cg_x, ref.cg_x))
      << "distributed fused CG differs at " << nt << " threads per rank";
  }
}
