// Allocation regression tests of the lung time step: once warm-up steps have
// sized the solver's resident workspaces (Krylov vectors, the pressure
// ladder's restore copy, the rollback snapshot, the viscous diagonal), a
// time step must allocate no solution-sized buffer. Every such buffer is an
// AlignedVector, which allocates through the aligned operator new; this
// executable replaces that operator to count the allocations at least as
// large as the pressure vector while LungApplication::advance() runs. It
// also replaces the plain operator new, which stages checkpoint images
// (std::vector<char>), and counts those allocations separately: a
// checkpointed step stages its image in exactly one, and a multigrid
// p-transfer sweeps in buffers it owns on a pool region that allocates
// nothing, so it allocates nothing at any pool width.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "lung/lung_application.h"
#include "multigrid/transfer.h"

using namespace dgflow;

namespace
{
std::atomic<bool> counting{false};
std::atomic<std::size_t> count_from_bytes{0};
std::atomic<unsigned long> n_counted{0};       ///< aligned operator new
std::atomic<unsigned long> n_counted_plain{0}; ///< plain operator new
std::atomic<std::size_t> largest_counted{0};

void record(const std::size_t size, std::atomic<unsigned long> &n)
{
  if (!counting.load(std::memory_order_relaxed) ||
      size < count_from_bytes.load(std::memory_order_relaxed))
    return;
  n.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = largest_counted.load(std::memory_order_relaxed);
  while (size > seen &&
         !largest_counted.compare_exchange_weak(seen, size,
                                                std::memory_order_relaxed))
  {
  }
}
} // namespace

void *operator new(const std::size_t size, const std::align_val_t alignment)
{
  record(size, n_counted);
  void *p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(alignment),
                     size > 0 ? size : 1) != 0)
    throw std::bad_alloc();
  return p;
}

void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
  std::free(p);
}

void *operator new(const std::size_t size)
{
  record(size, n_counted_plain);
  if (void *p = std::malloc(size > 0 ? size : 1))
    return p;
  throw std::bad_alloc();
}

// Not inlined: GCC would otherwise see free() on a pointer from the operator
// new call and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void *p, std::size_t) noexcept
{
  std::free(p);
}

TEST(StepAllocations, LungStepAllocatesNoSolutionSizedBuffer)
{
  const unsigned int saved_width =
    concurrency::ThreadPool::instance().n_threads();
  for (const unsigned int nt : {1u, 4u})
  {
    concurrency::ThreadPool::instance().set_n_threads(nt);
    LungApplicationParameters prm;
    prm.generations = 3;
    prm.degree = 3;
    LungApplication app(prm);
    // the first steps size every workspace (the second is the first BDF2
    // step, which reads the previous step's state)
    for (unsigned int step = 0; step < 2; ++step)
      ASSERT_TRUE(app.advance().success);

    const std::size_t pressure_bytes =
      app.solver().pressure().size() * sizeof(double);
    ASSERT_GT(pressure_bytes, 0u);
    count_from_bytes = pressure_bytes;
    n_counted = 0;
    largest_counted = 0;
    counting = true;
    const auto info = app.advance();
    counting = false;
    ASSERT_TRUE(info.success);
    EXPECT_EQ(n_counted.load(), 0u)
      << "advance() at pool width " << nt << " allocated " << n_counted
      << " buffers of at least the pressure vector's " << pressure_bytes
      << " bytes (largest: " << largest_counted << " bytes)";
  }
  concurrency::ThreadPool::instance().set_n_threads(saved_width);
}

TEST(StepAllocations, CheckpointedStepStagesItsImageOnce)
{
  const unsigned int saved_width =
    concurrency::ThreadPool::instance().n_threads();
  concurrency::ThreadPool::instance().set_n_threads(4);
  const std::string root = (std::filesystem::temp_directory_path() /
                            "dgflow_step_allocations_ckpt")
                             .string();
  std::filesystem::remove_all(root);
  {
    LungApplicationParameters prm;
    prm.generations = 3;
    prm.degree = 3;
    LungApplication app(prm);
    resilience::CheckpointScheduler::Options every_step;
    every_step.default_interval_seconds = 0.;
    every_step.min_interval_seconds = 0.;
    every_step.max_interval_seconds = 0.;
    app.enable_checkpointing(root, {}, every_step);
    // two checkpointed warm-up steps: the first image grows as its records
    // arrive, the second is staged at the first one's size
    for (unsigned int step = 0; step < 2; ++step)
      ASSERT_TRUE(app.advance().success);
    app.checkpointer()->drain();

    const std::size_t pressure_bytes =
      app.solver().pressure().size() * sizeof(double);
    ASSERT_GT(pressure_bytes, 0u);
    count_from_bytes = pressure_bytes;
    n_counted_plain = 0;
    largest_counted = 0;
    counting = true;
    const auto info = app.advance();
    counting = false;
    ASSERT_TRUE(info.success);
    app.checkpointer()->drain();
    EXPECT_EQ(app.checkpointer()->status().published, 3u);
    EXPECT_EQ(n_counted_plain.load(), 1u)
      << "a checkpointed advance() made " << n_counted_plain
      << " plain allocations of at least the pressure vector's "
      << pressure_bytes << " bytes (largest: " << largest_counted
      << " bytes); the image should be staged in one";
  }
  std::filesystem::remove_all(root);
  concurrency::ThreadPool::instance().set_n_threads(saved_width);
}

TEST(StepAllocations, PTransferAllocatesNothing)
{
  // the pressure multigrid's first p-transfer on the lung g=3 mesh: DG(2)
  // to DG(1) in the level precision, over every cell, at pool widths 1 and
  // 4 (the transfer is built at the width it runs at, and the workers are
  // spawned before counting starts)
  AirwayTreeParameters tree;
  tree.n_generations = 3;
  const LungMesh lung = build_lung_mesh(AirwayTree::generate(tree));
  const Mesh mesh(lung.coarse);
  const TrilinearGeometry geometry(mesh.coarse());
  auto &pool = concurrency::ThreadPool::instance();
  const unsigned int saved_width = pool.n_threads();
  for (const unsigned int nt : {1u, 4u})
  {
    pool.set_n_threads(nt);
    pool.run_chunks(nt, [](unsigned int) {});
    MatrixFree<float> mf;
    MatrixFree<float>::AdditionalData data;
    data.degrees = {2, 1};
    data.n_q_points_1d = {3, 2};
    data.geometry_degree = 1;
    mf.reinit(mesh, geometry, data);
    const DGPTransfer<float> transfer(mf, 0, 1);
    Vector<float> fine(mf.n_dofs(0, 1)), coarse(mf.n_dofs(1, 1));
    fine = 1.f;

    count_from_bytes = 0;
    n_counted = 0;
    n_counted_plain = 0;
    counting = true;
    transfer.restrict_cells(coarse.data(), fine.data(), mf.n_cells());
    transfer.prolongate_cells(fine.data(), coarse.data(), mf.n_cells());
    counting = false;
    EXPECT_EQ(n_counted_plain.load() + n_counted.load(), 0u)
      << "one restriction and one prolongation over " << mf.n_cells()
      << " cells allocated at pool width " << nt;
  }
  pool.set_n_threads(saved_width);
}
