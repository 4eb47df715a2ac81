#pragma once

// Process-wide worker pool for the shared-memory parallel cell loops and
// BLAS-1 sweeps. One pool serves the whole process; parallel regions are
// handed out cooperatively:
//
//  * run_chunks(n, fn) executes fn(0..n-1) on the caller plus up to
//    n_threads()-1 workers. Chunks are grabbed from a shared atomic counter,
//    so the assignment of chunks to threads is nondeterministic — every
//    caller must make the RESULT independent of that assignment (disjoint
//    write ranges, fixed reduction order). All users in this codebase are
//    bitwise deterministic under this contract (see docs/DEVELOPING.md,
//    "Shared-memory parallel loops").
//  * Only one parallel region runs at a time. A caller that finds the pool
//    busy — another thread's region, or a nested call from inside a chunk —
//    simply runs its chunks inline on its own thread. Because of the
//    determinism contract this fallback is bitwise identical, so vmpi
//    ranks-as-threads can race for the pool without affecting results.
//  * async(task) enqueues fire-and-forget work on a dedicated FIFO service
//    thread (the asynchronous checkpoint writer's disk lane) — strictly
//    ordered, drained on destruction, separate from the fork-join workers.
//  * set_external_concurrency(n_ranks) caps worker participation while
//    vmpi::run has n_ranks rank threads alive, so ranks x threads never
//    oversubscribes beyond max(n_threads, n_ranks) runnable threads.
//
// Wait policy. A region costs its work plus the time the workers take to
// notice it, so idle workers do not sleep at once: between regions they
// spin on the region word for spin_budget, then park on a condition
// variable, so an idle process burns no CPU. The caller publishes a region
// with one store and takes the park mutex only when some worker is parked;
// it waits for the last chunk the same way, spinning for spin_budget before
// it blocks. While external concurrency is above 1 no worker spins (the
// rank threads own the cores), and a worker that sits a region out under
// that cap parks at once. A region allocates nothing: the chunk callable is
// passed by reference and the job lives in a resident slot (see Slot for
// the handoff that keeps a late worker off a reused slot).
//
// The pool width comes from DGFLOW_THREADS (strict common/env.h parsing,
// default 1 = serial; a malformed value throws instead of silently running
// serial) or programmatically via set_n_threads(). Workers are spawned
// lazily on first use and joined in the destructor.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.h"
#include "common/exceptions.h"

namespace dgflow::concurrency
{
/// Pool width requested via the environment: DGFLOW_THREADS in [1, 1024],
/// unset means 1 (serial). Parsing is strict: "0", "banana" or "4x" throw
/// EnvVarError naming the variable rather than degrading to serial.
inline unsigned int configured_threads_from_env()
{
  return static_cast<unsigned int>(env_integer("DGFLOW_THREADS", 1, 1, 1024));
}

/// Lowers @p target to @p value if that is smaller. A min is exact, so a
/// min-reduction of per-chunk results through it does not depend on the
/// order in which the chunks finish.
template <typename T>
void atomic_min(std::atomic<T> &target, const T value)
{
  T seen = target.load(std::memory_order_relaxed);
  while (value < seen &&
         !target.compare_exchange_weak(seen, value, std::memory_order_relaxed))
  {
  }
}

class ThreadPool
{
public:
  /// How long an idle worker spins for the next region, and a caller for
  /// its last chunk, before blocking. It outlasts the serial stretches
  /// between the regions of a solve (the AMG coarse solve of a V-cycle is
  /// about 0.45 ms on the lung g=3 pressure space), so a worker parks only
  /// when the solver has stopped issuing regions.
  static constexpr std::chrono::microseconds spin_budget{1000};

  /// The process-wide pool, sized from DGFLOW_THREADS on first use.
  static ThreadPool &instance()
  {
    static ThreadPool pool(configured_threads_from_env());
    return pool;
  }

  explicit ThreadPool(const unsigned int n_threads) : n_threads_(1)
  {
    set_n_threads(n_threads);
  }

  ~ThreadPool()
  {
    join_service_thread();
    join_workers();
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned int n_threads() const { return n_threads_; }

  /// Resizes the pool (joins existing workers, spinning or parked; new ones
  /// spawn lazily). Blocks until any running parallel region has finished.
  void set_n_threads(const unsigned int n)
  {
    std::lock_guard<std::mutex> region(region_mutex_);
    join_workers();
    n_threads_ = std::max(1u, n);
  }

  /// Declares @p n_ranks external compute threads (vmpi ranks) alive; while
  /// more than one is registered, at most n_threads() - n_ranks workers join
  /// a region and no worker spins between regions, so the process never
  /// runs more than max(n_threads, n_ranks) compute threads. Pass 1 to lift
  /// the cap.
  void set_external_concurrency(const unsigned int n_ranks)
  {
    external_.store(std::max(1u, n_ranks), std::memory_order_relaxed);
  }

  /// Executes fn(c) for every c in [0, n_chunks), returning when all chunks
  /// are done. The caller participates; if the pool is busy or capped the
  /// caller runs every chunk inline in ascending order. The first exception
  /// thrown by any chunk is rethrown on the caller after the region drains.
  /// fn is referenced, not copied: the region allocates nothing.
  template <typename F>
  void run_chunks(const unsigned int n_chunks, F &&fn)
  {
    if (n_chunks == 0)
      return;
    const unsigned int ext = external_.load(std::memory_order_relaxed);
    const unsigned int workers_allowed =
      ext <= 1 ? n_threads_ - 1
               : (n_threads_ > ext ? n_threads_ - ext : 0u);
    if (n_chunks == 1 || workers_allowed == 0 || in_parallel_region() ||
        !region_mutex_.try_lock())
    {
      for (unsigned int c = 0; c < n_chunks; ++c)
        fn(c);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    run_region(n_chunks, workers_allowed,
               ChunkFn{const_cast<void *>(
                         static_cast<const void *>(std::addressof(fn))),
                       [](void *f, const unsigned int c) {
                         (*static_cast<Fn *>(f))(c);
                       }});
  }

  /// Chunk count of a split of @p n items into ranges of at least @p grain
  /// items: min(n_threads(), n / grain), and at least one.
  unsigned int n_chunks_for(const std::size_t n, const std::size_t grain) const
  {
    return static_cast<unsigned int>(std::max<std::size_t>(
      1, std::min<std::size_t>(n_threads_, n / grain)));
  }

  /// Runs f(c, begin, end) over the split of [0, n) into @p n_chunks
  /// contiguous ranges of near-equal length, c ascending with begin; one
  /// chunk is f(0, 0, n) on the caller.
  template <typename F>
  void run_ranges(const std::size_t n, const unsigned int n_chunks, F &&f)
  {
    const std::size_t q = n / n_chunks, r = n % n_chunks;
    run_chunks(n_chunks, [&](const unsigned int c) {
      const std::size_t begin = std::size_t(c) * q + std::min<std::size_t>(c, r);
      f(c, begin, begin + q + (c < r ? 1 : 0));
    });
  }

  /// Enqueues @p task on the pool's background service thread — the fire-
  /// and-forget counterpart to the fork-join regions above, used by the
  /// asynchronous checkpoint writer to take disk I/O off the solver thread.
  /// Tasks run strictly FIFO on ONE dedicated thread (spawned lazily, and
  /// separate from the fork-join workers so a long disk write never steals
  /// a compute lane), so two async submissions never race each other: the
  /// ordering guarantee that keeps the multi-generation checkpoint ring's
  /// commits in id order. The destructor drains the queue before joining — an
  /// enqueued task always runs. A task must not throw; escaped exceptions
  /// are swallowed after a stderr note (there is no caller left to rethrow
  /// to).
  void async(std::function<void()> task)
  {
    std::lock_guard<std::mutex> lock(async_mutex_);
    async_queue_.push_back(std::move(task));
    if (!service_thread_.joinable())
      service_thread_ = std::thread([this] { service_loop(); });
    async_cv_.notify_one();
  }

  /// Elementwise parallel sweep: f(begin, end) over a contiguous split of
  /// [0, n) into at most n_threads() chunks. Small sweeps (and a serial
  /// pool) run inline as a single f(0, n). Only safe for operations whose
  /// result does not depend on the split (disjoint elementwise updates).
  template <typename F>
  void parallel_for(const std::size_t n, F &&f)
  {
    constexpr std::size_t grain = 1 << 16;
    run_ranges(n, n_chunks_for(n, grain),
               [&](unsigned int, const std::size_t begin,
                   const std::size_t end) { f(begin, end); });
  }

private:
  /// Non-owning reference to a region's chunk callable.
  struct ChunkFn
  {
    void *object;
    void (*call)(void *, unsigned int);
  };

  /// The one resident job. Handoff: region_ holds the id of the open
  /// region, or 0 while none is. A worker that saw id s enters the slot by
  /// raising busy_ and then re-reading region_; it runs chunks only if
  /// region_ still reads s, and leaves by lowering busy_. The caller closes
  /// its region (region_ = 0) once the last chunk is done, and rewrites the
  /// slot for the next region only after busy_ has dropped to 0. Both sides
  /// order their two steps sequentially consistently, so a late worker
  /// either finds the slot closed (or holding another id) and leaves
  /// without reading it, or is counted in busy_ before the caller rewrites
  /// it.
  struct Slot
  {
    ChunkFn fn{nullptr, nullptr};
    unsigned int n = 0;
    unsigned int workers_allowed = 0;
    std::atomic<unsigned int> next{0};
    std::atomic<unsigned int> done{0};
    std::exception_ptr error; ///< guarded by error_mutex_
  };

  static void cpu_relax()
  {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Spins until pred() holds, at most spin_budget; true if it held. With
  /// @p keep_spinning false (the cap rule) it checks pred() once.
  template <typename Pred, typename Keep>
  static bool spin_until(Pred &&pred, Keep &&keep_spinning)
  {
    const auto deadline = std::chrono::steady_clock::now() + spin_budget;
    for (unsigned int i = 1;; ++i)
    {
      if (pred())
        return true;
      if (!keep_spinning())
        return false;
      cpu_relax();
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
        return false;
    }
  }

  /// True while this thread executes chunks of some region — a nested
  /// run_chunks must run inline (region_mutex_ is not recursive).
  static bool &in_parallel_region()
  {
    thread_local bool flag = false;
    return flag;
  }

  // caller: run_chunks, with region_mutex_ held
  void run_region(const unsigned int n_chunks,
                  const unsigned int workers_allowed, const ChunkFn fn)
  {
    ensure_workers();
    // the slot is free once every worker of the last region has left it
    const auto slot_free = [&] {
      return busy_.load(std::memory_order_seq_cst) == 0;
    };
    if (!spin_until(slot_free, [] { return true; }))
      while (!slot_free())
        std::this_thread::yield();
    slot_.fn = fn;
    slot_.n = n_chunks;
    slot_.workers_allowed = workers_allowed;
    slot_.next.store(0, std::memory_order_relaxed);
    slot_.done.store(0, std::memory_order_relaxed);
    slot_.error = nullptr;
    region_.store(++last_region_, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0)
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }

    in_parallel_region() = true;
    execute();
    in_parallel_region() = false;
    const auto all_done = [&] {
      return slot_.done.load(std::memory_order_seq_cst) == n_chunks;
    };
    if (!spin_until(all_done, [] { return true; }))
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      caller_blocked_.store(true, std::memory_order_seq_cst);
      done_cv_.wait(lock, all_done);
      caller_blocked_.store(false, std::memory_order_relaxed);
    }
    region_.store(0, std::memory_order_seq_cst);
    const std::exception_ptr error = slot_.error;
    region_mutex_.unlock();
    if (error)
      std::rethrow_exception(error);
  }

  /// Grabs and runs chunks until the slot's counter is exhausted. The
  /// chunk callable stays alive while done < n: the dispatching caller only
  /// returns from run_chunks once every chunk has reported completion.
  void execute()
  {
    while (true)
    {
      const unsigned int c =
        slot_.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= slot_.n)
        return;
      try
      {
        slot_.fn.call(slot_.fn.object, c);
      }
      catch (...)
      {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!slot_.error)
          slot_.error = std::current_exception();
      }
      if (slot_.done.fetch_add(1, std::memory_order_seq_cst) + 1 ==
            slot_.n &&
          caller_blocked_.load(std::memory_order_seq_cst))
      {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_one();
      }
    }
  }

  void service_loop()
  {
    while (true)
    {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(async_mutex_);
        async_cv_.wait(lock,
                       [&] { return async_stop_ || !async_queue_.empty(); });
        if (async_queue_.empty())
          return; // stop requested and the queue is drained
        task = std::move(async_queue_.front());
        async_queue_.pop_front();
      }
      try
      {
        task();
      }
      catch (const std::exception &e)
      {
        std::fprintf(stderr, "ThreadPool::async task threw: %s\n", e.what());
      }
      catch (...)
      {
        std::fprintf(stderr, "ThreadPool::async task threw\n");
      }
    }
  }

  void join_service_thread()
  {
    {
      std::lock_guard<std::mutex> lock(async_mutex_);
      async_stop_ = true;
      async_cv_.notify_all();
    }
    if (service_thread_.joinable())
      service_thread_.join();
    async_stop_ = false;
  }

  /// Waits for a region other than @p last to open: spins for spin_budget
  /// unless @p park_at_once or the cap rule says otherwise, then parks.
  /// Returns the region's id, or 0 when the pool stops.
  std::uint64_t wait_for_region(const std::uint64_t last,
                                const bool park_at_once)
  {
    std::uint64_t s = 0;
    const auto opened = [&] {
      s = region_.load(std::memory_order_seq_cst);
      return stop_.load(std::memory_order_relaxed) || (s != 0 && s != last);
    };
    const auto may_spin = [&] {
      return !park_at_once &&
             external_.load(std::memory_order_relaxed) <= 1;
    };
    if (!spin_until(opened, may_spin))
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      park_cv_.wait(lock, opened);
      parked_.fetch_sub(1, std::memory_order_relaxed);
    }
    return stop_.load(std::memory_order_relaxed) ? 0 : s;
  }

  /// Worker @p index joins a region only if index < workers_allowed, so
  /// under the cap the same workers run every region.
  void worker_loop(const unsigned int index)
  {
    // a worker only ever runs chunks: a region opened from one runs inline
    in_parallel_region() = true;
    std::uint64_t last = 0;
    bool sat_out = false;
    while (const std::uint64_t s = wait_for_region(last, sat_out))
    {
      last = s;
      sat_out = false;
      busy_.fetch_add(1, std::memory_order_seq_cst);
      if (region_.load(std::memory_order_seq_cst) == s)
      {
        if (index < slot_.workers_allowed)
          execute();
        else
          sat_out = true; // concurrency cap: sit this region out and park
      }
      busy_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  // callers: run_chunks (region_mutex_ held) and set_n_threads/destructor
  void ensure_workers()
  {
    if (!workers_.empty() || n_threads_ <= 1)
      return;
    workers_.reserve(n_threads_ - 1);
    for (unsigned int t = 0; t + 1 < n_threads_; ++t)
      workers_.emplace_back([this, t] { worker_loop(t); });
  }

  void join_workers()
  {
    if (workers_.empty())
      return;
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    for (auto &w : workers_)
      w.join();
    workers_.clear();
    stop_.store(false, std::memory_order_relaxed);
  }

  unsigned int n_threads_ = 1;
  std::atomic<unsigned int> external_{1};
  std::mutex region_mutex_; ///< serializes parallel regions

  Slot slot_;
  std::uint64_t last_region_ = 0; ///< id of the last region (region_mutex_)
  std::atomic<std::uint64_t> region_{0}; ///< open region's id, 0 if none
  std::atomic<unsigned int> busy_{0};    ///< workers inside the slot
  std::mutex error_mutex_;               ///< guards slot_.error

  std::atomic<bool> stop_{false};
  std::atomic<unsigned int> parked_{0};
  std::mutex park_mutex_; ///< pairs with park_cv_ and parked_
  std::condition_variable park_cv_;
  std::atomic<bool> caller_blocked_{false};
  std::mutex done_mutex_; ///< pairs with done_cv_ and caller_blocked_
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;

  // background service thread (async()): FIFO queue, drained before join
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<std::function<void()>> async_queue_;
  std::thread service_thread_;
  bool async_stop_ = false;
};

} // namespace dgflow::concurrency
