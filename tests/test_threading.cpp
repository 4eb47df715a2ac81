// Shared-memory thread-parallel cell loops (ctest label threading; also run
// under DGFLOW_SANITIZE=thread by run_benchmarks.sh): worker-pool basics
// (every chunk runs exactly once, also over 10,000 back-to-back regions
// that spinning workers pick up from the resident slot, exceptions
// propagate, nested regions fall back to inline-serial, a resize right
// after a region, the external-concurrency cap), strict parsing of the
// DGFLOW_THREADS knob, and the determinism contract of the threaded loops —
// vmult, the fused Jacobi-CG solve and the fused Chebyshev sweep must be
// BITWISE identical to the single-threaded sweep at any thread count,
// serially and on four vmpi ranks with per-rank thread partitions — of the
// right-hand sides whose data terms come from the operators' boundary
// integrals, and of the whole lung time step, which must end in the
// bitwise same velocity and pressure at any pool width. The hook contract
// of the loop driver is pinned directly as well: pre and post ranges tile
// src and dst exactly once per vmult.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "concurrency/thread_pool.h"
#include "incns/analytic_flows.h"
#include "lung/lung_application.h"
#include "mesh/generators.h"
#include "mesh/partition.h"
#include "operators/divergence_gradient.h"
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
  // an empty vector may hold a null data(), which memcmp must not see
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
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

namespace
{
/// A few microseconds of arithmetic, so a region's chunks overlap on the
/// workers instead of all running on the caller.
double busy_work(const unsigned int c)
{
  double s = 0.;
  for (unsigned int i = 1; i <= 400; ++i)
    s += std::sqrt(double(i + c));
  return s;
}
} // namespace

TEST(ThreadPoolTest, BackToBackRegionsRunEveryChunkOnce)
{
  // workers spin between regions and find each new one in the resident
  // slot: no chunk of one region may run twice or leak into the next
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  constexpr unsigned int n_regions = 10000, n_chunks = 4;
  std::vector<std::atomic<unsigned int>> counts(n_chunks);
  for (auto &c : counts)
    c = 0;
  std::atomic<double> sink{0.};
  unsigned int wrong_regions = 0;
  for (unsigned int r = 0; r < n_regions; ++r)
  {
    pool.run_chunks(n_chunks, [&](const unsigned int c) {
      sink.store(busy_work(c), std::memory_order_relaxed);
      counts[c].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned int c = 0; c < n_chunks; ++c)
      if (counts[c].load(std::memory_order_relaxed) != r + 1)
      {
        ++wrong_regions;
        break;
      }
  }
  EXPECT_EQ(wrong_regions, 0u);
  for (unsigned int c = 0; c < n_chunks; ++c)
    EXPECT_EQ(counts[c].load(), n_regions) << "chunk " << c;
  EXPECT_GT(sink.load(), 0.);
}

TEST(ThreadPoolTest, ResizingRightAfterARegionKeepsThePoolWorking)
{
  // set_n_threads joins workers that are still spinning on the region
  // just finished; the resized pool must spawn fresh ones and run
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  for (unsigned int round = 0; round < 50; ++round)
  {
    const unsigned int width = round % 2 ? 2u : 4u;
    pool.set_n_threads(4);
    std::atomic<unsigned int> ran{0};
    pool.run_chunks(8, [&](const unsigned int c) {
      (void)busy_work(c);
      ++ran;
    });
    pool.set_n_threads(width);
    pool.run_chunks(8, [&](const unsigned int c) {
      (void)busy_work(c);
      ++ran;
    });
    ASSERT_EQ(ran.load(), 16u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ExternalConcurrencyCapsTheThreadsThatRunChunks)
{
  // three rank threads alive at width 4 leave room for one worker beside
  // the caller; the others sit every region out
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  pool.set_n_threads(4);
  struct LiftCap
  {
    ~LiftCap()
    {
      concurrency::ThreadPool::instance().set_external_concurrency(1);
    }
  } lift;
  pool.set_external_concurrency(3);
  std::mutex mutex;
  std::vector<std::thread::id> seen;
  for (unsigned int r = 0; r < 200; ++r)
    pool.run_chunks(16, [&](const unsigned int c) {
      (void)busy_work(c);
      std::lock_guard<std::mutex> lock(mutex);
      if (std::find(seen.begin(), seen.end(), std::this_thread::get_id()) ==
          seen.end())
        seen.push_back(std::this_thread::get_id());
    });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 2u);
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
  Vector<double> diag;
  Vector<double> cg_x;
  Vector<double> cheb_x;
};

/// Builds the operator with an nt-chunk thread partition on an nt-wide pool
/// and runs vmult, the diagonal probe, a fused Jacobi-CG solve and a fused
/// Chebyshev sweep.
ThreadedRun run_threaded(const Mesh &mesh, const unsigned int degree,
                         const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  TrilinearGeometry geom(mesh.coarse());
  MatrixFree<double> mf;
  MatrixFree<double>::AdditionalData data;
  data.degrees = {degree};
  data.n_q_points_1d = {degree + 1};
  mf.reinit(mesh, geom, data);
  LaplaceOperator<double> laplace;
  laplace.reinit(mf, 0, 0, all_dirichlet());

  ThreadedRun run;
  Vector<double> src(laplace.n_dofs());
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = std::sin(0.37 * double(i)) + 0.1;
  laplace.vmult(run.vmult_dst, src);

  laplace.compute_diagonal(run.diag);
  PreconditionJacobi<double> jacobi;
  jacobi.reinit(run.diag);
  SolverControl control;
  control.rel_tol = 1e-10;
  control.max_iterations = 200;
  run.cg_x.reinit(laplace.n_dofs());
  const auto stats = solve_cg(laplace, run.cg_x, src, jacobi, control);
  EXPECT_TRUE(stats.converged);

  ChebyshevSmoother<LaplaceOperator<double>, Vector<double>> smoother;
  ChebyshevData cdata;
  cdata.degree = 4;
  smoother.reinit(laplace, run.diag, cdata);
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
    EXPECT_TRUE(bitwise_equal(run.diag, ref.diag))
      << "diagonal differs at " << nt << " threads";
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

// ---------------------------------------------------------------------------
// the whole lung time step: every operator, solver and BLAS-1 sweep of the
// dual splitting scheme, the convective kernels on both boundary branches
// (walls: velocity Dirichlet; inlet and outlets: pressure openings) and the
// 0D coupling
// ---------------------------------------------------------------------------

namespace
{
struct LungState
{
  Vector<double> u, p;
};

/// Builds the g=2, k=3 lung application on an nt-wide pool (its MatrixFree
/// and multigrid levels then get nt-chunk thread partitions) and advances
/// it five steps.
LungState run_lung_steps(const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  LungApplicationParameters prm;
  prm.generations = 2;
  prm.degree = 3;
  LungApplication app(prm);
  for (unsigned int step = 0; step < 5; ++step)
  {
    const auto info = app.advance();
    EXPECT_TRUE(info.success) << "step " << step << " at " << nt
                              << " threads";
  }
  return LungState{app.solver().velocity(), app.solver().pressure()};
}
} // namespace

TEST(ThreadDeterminismTest, LungStepIsBitwiseIdenticalAtAnyPoolWidth)
{
  ScopedPoolWidth guard;
  const LungState ref = run_lung_steps(1);
  ASSERT_GT(ref.u.l2_norm(), 0.) << "the flow never started";
  for (const unsigned int nt : {2u, 4u})
  {
    const LungState run = run_lung_steps(nt);
    EXPECT_TRUE(bitwise_equal(run.u, ref.u))
      << "velocity differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.p, ref.p))
      << "pressure differs at " << nt << " threads";
  }
}

// ---------------------------------------------------------------------------
// right-hand sides: the data terms of assemble_rhs, add_boundary_rhs and the
// pressure step run on the loop driver, with nonzero Dirichlet and Neumann
// data and, in the Ethier-Steinman steps, the rotational pressure term
// ---------------------------------------------------------------------------

namespace
{
struct RhsRun
{
  Vector<double> laplace, helmholtz, u, p;
};

/// A deformed cube, refined twice and once more in the octant at the origin:
/// hanging faces and 15 cell batches, so every pool width splits it.
Mesh refined_cube()
{
  Mesh mesh = make_mesh(2);
  std::vector<bool> flags(mesh.n_active_cells(), false);
  for (index_t i = 0; i < mesh.n_active_cells(); ++i)
  {
    const auto lo = mesh.cell_lower_corner(i);
    flags[i] = lo[0] < 0.5 && lo[1] < 0.5 && lo[2] < 0.5;
  }
  mesh.refine(flags);
  return mesh;
}

/// The Ethier-Steinman boundary conditions: analytic velocity on five
/// faces, analytic pressure on x = 1.
FlowBoundaryMap ethier_steinman_bc(const EthierSteinman &es)
{
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    if (id == 1)
    {
      b.kind = FlowBoundary::Kind::pressure;
      b.pressure = [es](const Point &p, double t) { return es.pressure(p, t); };
      b.backflow_stabilization = false;
    }
    else
      b.velocity = [es](const Point &p, double t) { return es.velocity(p, t); };
    bc[id] = b;
  }
  return bc;
}

RhsRun run_right_hand_sides(const unsigned int nt)
{
  concurrency::ThreadPool::instance().set_n_threads(nt);
  const Mesh mesh = refined_cube();
  AnalyticGeometry geom([](index_t, const Point &p) {
    return Point(p[0] + 0.05 * p[1] * p[2], p[1] - 0.04 * p[0],
                 p[2] + 0.03 * p[0] * p[1]);
  });
  const EthierSteinman es;
  const FlowBoundaryMap bc = ethier_steinman_bc(es);
  const VectorFunctionT neumann = [es](const Point &p, const double t) {
    const auto g = es.velocity_gradient(p, t);
    return Tensor1<double>(g[0][0], g[1][0], g[2][0]);
  };
  RhsRun run;
  {
    const unsigned int k = 3;
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {k, k - 1};
    data.n_q_points_1d = {k + 1, k, k + 2};
    mf.reinit(mesh, geom, data);

    BoundaryMap mixed = all_dirichlet();
    mixed.set(1, BoundaryType::neumann);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 1, 1, mixed);
    laplace.assemble_rhs(
      run.laplace, [](const Point &p) { return std::sin(3. * p[0]) + p[1]; },
      [es](const Point &p) { return es.pressure(p, 0.1); },
      [](const Point &p) { return p[2] - 0.5 * p[1]; });

    HelmholtzOperator<double> helmholtz;
    helmholtz.reinit(mf, 0, 0, bc, 0.01);
    run.helmholtz.reinit(helmholtz.n_dofs());
    for (std::size_t i = 0; i < run.helmholtz.size(); ++i)
      run.helmholtz[i] = std::cos(0.11 * double(i));
    helmholtz.add_boundary_rhs(run.helmholtz, 0.1, neumann);
  }

  Mesh es_mesh = make_mesh(2);
  TrilinearGeometry es_geom(es_mesh.coarse());
  INSSolver<double>::Parameters prm;
  prm.degree = 3;
  prm.viscosity = es.nu;
  prm.fixed_dt = 0.01;
  prm.rel_tol = 1e-8;
  prm.velocity_neumann_data = neumann;
  EXPECT_TRUE(prm.rotational_pressure_bc);
  INSSolver<double> solver;
  solver.setup(es_mesh, es_geom, bc, prm);
  solver.set_initial_condition(
    [&es](const Point &p) { return es.velocity(p, 0.); },
    [&es](const Point &p) { return es.pressure(p, 0.); });
  for (unsigned int step = 0; step < 3; ++step)
    EXPECT_TRUE(solver.advance().success) << "step " << step;
  run.u = solver.velocity();
  run.p = solver.pressure();
  return run;
}
} // namespace

TEST(ThreadDeterminismTest, RightHandSidesAreBitwiseIdenticalAtAnyPoolWidth)
{
  ScopedPoolWidth guard;
  const RhsRun ref = run_right_hand_sides(1);
  ASSERT_GT(ref.laplace.l2_norm(), 0.);
  for (const unsigned int nt : {2u, 4u})
  {
    const RhsRun run = run_right_hand_sides(nt);
    EXPECT_TRUE(bitwise_equal(run.laplace, ref.laplace))
      << "assemble_rhs differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.helmholtz, ref.helmholtz))
      << "add_boundary_rhs differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.u, ref.u))
      << "Ethier-Steinman velocity differs at " << nt << " threads";
    EXPECT_TRUE(bitwise_equal(run.p, ref.p))
      << "Ethier-Steinman pressure differs at " << nt << " threads";
  }
}

// ---------------------------------------------------------------------------
// hook contract of the loop driver (common/loop_hooks.h): every vmult fires
// pre over ranges tiling src once and post over ranges tiling dst once, at
// any pool width, on mixed spaces and per vmpi rank
// ---------------------------------------------------------------------------

namespace
{
struct HookCall
{
  std::size_t begin, end;
  unsigned long seq; ///< position among all pre and post calls of the vmult
};

/// Records every pre/post range of a hooked vmult; the hooks of different
/// chunks run concurrently, so recording takes a mutex.
struct HookRecorder
{
  std::mutex mutex;
  unsigned long next = 0;
  std::vector<HookCall> pre, post;

  auto hook(std::vector<HookCall> &calls)
  {
    return [this, &calls](const std::size_t begin, const std::size_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      calls.push_back({begin, end, next++});
    };
  }
};

/// The sorted ranges cover [0, n) once: no gap, no overlap, none empty.
void expect_tiling(std::vector<HookCall> calls, const std::size_t n,
                   const std::string &what)
{
  std::sort(calls.begin(), calls.end(),
            [](const HookCall &a, const HookCall &b) {
              return a.begin < b.begin;
            });
  std::size_t covered = 0;
  for (const HookCall &c : calls)
  {
    ASSERT_EQ(c.begin, covered) << what << ": gap or overlap";
    ASSERT_LT(c.begin, c.end) << what << ": empty range";
    covered = c.end;
  }
  EXPECT_EQ(covered, n) << what << ": ranges stop short of the vector";
}

/// Square operator (src and dst share the space, so the pre and post
/// ranges coincide): each range's pre fires before its post.
void expect_pre_before_post(const HookRecorder &rec, const std::string &what)
{
  std::map<std::size_t, unsigned long> pre_seq;
  for (const HookCall &c : rec.pre)
    pre_seq[c.begin] = c.seq;
  for (const HookCall &c : rec.post)
  {
    const auto it = pre_seq.find(c.begin);
    ASSERT_NE(it, pre_seq.end()) << what << ": post range without a pre";
    EXPECT_LT(it->second, c.seq)
      << what << ": post of [" << c.begin << ", " << c.end
      << ") fired before its pre";
  }
}

FlowBoundaryMap no_slip_walls()
{
  FlowBoundaryMap bc;
  for (unsigned int id = 0; id < 6; ++id)
  {
    FlowBoundary b;
    b.kind = FlowBoundary::Kind::velocity_dirichlet;
    b.velocity = [](const Point &, double) { return Tensor1<double>(); };
    bc[id] = b;
  }
  return bc;
}
} // namespace

TEST(LoopHooks, RangesTileEachVectorOncePerVmult)
{
  ScopedPoolWidth guard;
  auto &pool = concurrency::ThreadPool::instance();
  const Mesh mesh = make_mesh(2);
  TrilinearGeometry geom(mesh.coarse());

  // the DG Laplacian and the divergence (velocity -> pressure space)
  for (const unsigned int nt : {1u, 4u})
  {
    pool.set_n_threads(nt);
    const std::string width = " at pool width " + std::to_string(nt);
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {2, 1};
    data.n_q_points_1d = {3};
    mf.reinit(mesh, geom, data);

    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, all_dirichlet());
    Vector<double> src(laplace.n_dofs()), dst;
    {
      HookRecorder rec;
      laplace.vmult(dst, src, rec.hook(rec.pre), rec.hook(rec.post));
      expect_tiling(rec.pre, src.size(), "laplace pre" + width);
      expect_tiling(rec.post, dst.size(), "laplace post" + width);
      expect_pre_before_post(rec, "laplace" + width);
    }

    const FlowBoundaryMap bc = no_slip_walls();
    DivergenceOperator<double> div;
    div.reinit(mf, 0, 1, 0, bc);
    Vector<double> u(mf.n_dofs(0, 3)), q;
    HookRecorder rec;
    div.vmult(q, u, rec.hook(rec.pre), rec.hook(rec.post));
    ASSERT_NE(u.size(), q.size());
    expect_tiling(rec.pre, u.size(), "divergence pre (velocity)" + width);
    expect_tiling(rec.post, q.size(), "divergence post (pressure)" + width);
  }

  // the Laplacian on four vmpi ranks: ranges tile each rank's owned range
  const int n_ranks = 4;
  const std::vector<int> rank_of_cell = partition_cells(mesh, n_ranks);
  for (const unsigned int nt : {1u, 2u})
  {
    pool.set_n_threads(nt);
    MatrixFree<double> mf;
    MatrixFree<double>::AdditionalData data;
    data.degrees = {1};
    data.n_q_points_1d = {2};
    data.rank_of_cell = rank_of_cell;
    data.n_ranks = n_ranks;
    mf.reinit(mesh, geom, data);
    LaplaceOperator<double> laplace;
    laplace.reinit(mf, 0, 0, all_dirichlet());
    const unsigned int dofs_per_cell = mf.dofs_per_cell(0);

    std::vector<HookRecorder> recs(n_ranks);
    std::vector<std::size_t> src_size(n_ranks), dst_size(n_ranks);
    vmpi::run(n_ranks, [&](vmpi::Communicator &comm) {
      const int r = comm.rank();
      const auto part = vmpi::Partitioner::cell_partitioner(
        mesh, rank_of_cell, r, n_ranks);
      vmpi::DistributedVector<double> xd(part, comm, dofs_per_cell), yd;
      laplace.vmult(yd, xd, recs[r].hook(recs[r].pre),
                    recs[r].hook(recs[r].post));
      src_size[r] = xd.size();
      dst_size[r] = yd.size();
    });
    for (int r = 0; r < n_ranks; ++r)
    {
      const std::string where = " on rank " + std::to_string(r) +
                                " at pool width " + std::to_string(nt);
      ASSERT_GT(src_size[r], 0u);
      expect_tiling(recs[r].pre, src_size[r], "distributed pre" + where);
      expect_tiling(recs[r].post, dst_size[r], "distributed post" + where);
      expect_pre_before_post(recs[r], "distributed" + where);
    }
  }
}
