// Allocation regression test of the lung time step: once warm-up steps have
// sized the solver's resident workspaces (Krylov vectors, the pressure
// ladder's restore copy, the rollback snapshot, the viscous diagonal), a
// time step must allocate no solution-sized buffer. Every such buffer is an
// AlignedVector, which allocates through the aligned operator new; this
// executable replaces that operator to count the allocations at least as
// large as the pressure vector while LungApplication::advance() runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "lung/lung_application.h"

using namespace dgflow;

namespace
{
std::atomic<bool> counting{false};
std::atomic<std::size_t> count_from_bytes{0};
std::atomic<unsigned long> n_counted{0};
std::atomic<std::size_t> largest_counted{0};
} // namespace

void *operator new(const std::size_t size, const std::align_val_t alignment)
{
  if (counting.load(std::memory_order_relaxed) &&
      size >= count_from_bytes.load(std::memory_order_relaxed))
  {
    n_counted.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = largest_counted.load(std::memory_order_relaxed);
    while (size > seen &&
           !largest_counted.compare_exchange_weak(seen, size,
                                                  std::memory_order_relaxed))
    {
    }
  }
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
