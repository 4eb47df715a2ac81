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
// The pool width comes from DGFLOW_THREADS (strict common/env.h parsing,
// default 1 = serial; a malformed value throws instead of silently running
// serial) or programmatically via set_n_threads(). Workers are spawned
// lazily on first use and joined in the destructor.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
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

class ThreadPool
{
public:
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

  /// Resizes the pool (joins existing workers; new ones spawn lazily).
  /// Blocks until any running parallel region has finished.
  void set_n_threads(const unsigned int n)
  {
    std::lock_guard<std::mutex> region(region_mutex_);
    join_workers();
    n_threads_ = std::max(1u, n);
  }

  /// Declares @p n_ranks external compute threads (vmpi ranks) alive; while
  /// more than one is registered, at most n_threads() - n_ranks workers join
  /// a region so the process never runs more than max(n_threads, n_ranks)
  /// compute threads. Pass 1 to lift the cap.
  void set_external_concurrency(const unsigned int n_ranks)
  {
    external_.store(std::max(1u, n_ranks), std::memory_order_relaxed);
  }

  /// Executes fn(c) for every c in [0, n_chunks), returning when all chunks
  /// are done. The caller participates; if the pool is busy or capped the
  /// caller runs every chunk inline in ascending order. The first exception
  /// thrown by any chunk is rethrown on the caller after the region drains.
  void run_chunks(const unsigned int n_chunks,
                  const std::function<void(unsigned int)> &fn)
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
    // region_mutex_ held from here on
    ensure_workers();
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->n = n_chunks;
    job->workers_allowed = workers_allowed;
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      job_ = job;
      job_cv_.notify_all();
    }
    in_parallel_region() = true;
    execute(*job);
    in_parallel_region() = false;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(job->mutex);
      job->done_cv.wait(lock, [&] {
        return job->done.load(std::memory_order_acquire) == job->n;
      });
      error = job->error;
    }
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      job_.reset();
    }
    region_mutex_.unlock();
    if (error)
      std::rethrow_exception(error);
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
    if (n < 2 * grain || n_threads_ <= 1)
    {
      f(std::size_t(0), n);
      return;
    }
    const unsigned int n_chunks = static_cast<unsigned int>(
      std::min<std::size_t>(n_threads_, n / grain));
    const std::size_t q = n / n_chunks, r = n % n_chunks;
    run_chunks(n_chunks, [&](const unsigned int c) {
      const std::size_t begin = std::size_t(c) * q + std::min<std::size_t>(c, r);
      f(begin, begin + q + (c < r ? 1 : 0));
    });
  }

private:
  struct Job
  {
    const std::function<void(unsigned int)> *fn = nullptr;
    unsigned int n = 0;
    unsigned int workers_allowed = 0;
    std::atomic<unsigned int> next{0};
    std::atomic<unsigned int> done{0};
    std::atomic<unsigned int> participants{0};
    std::mutex mutex;               // guards error, pairs with done_cv
    std::condition_variable done_cv;
    std::exception_ptr error;
  };

  /// True while this thread executes chunks of some region — a nested
  /// run_chunks must run inline (region_mutex_ is not recursive).
  static bool &in_parallel_region()
  {
    thread_local bool flag = false;
    return flag;
  }

  /// Grabs and runs chunks until the job's counter is exhausted. The job's
  /// fn stays alive while done < n: the dispatching caller only returns from
  /// run_chunks once every chunk has reported completion.
  static void execute(Job &job)
  {
    while (true)
    {
      const unsigned int c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.n)
        return;
      try
      {
        (*job.fn)(c);
      }
      catch (...)
      {
        std::lock_guard<std::mutex> lock(job.mutex);
        if (!job.error)
          job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n)
      {
        std::lock_guard<std::mutex> lock(job.mutex);
        job.done_cv.notify_all();
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

  void worker_loop()
  {
    std::shared_ptr<Job> last;
    while (true)
    {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(job_mutex_);
        job_cv_.wait(lock, [&] { return stop_ || (job_ && job_ != last); });
        if (stop_)
          return;
        job = job_;
      }
      last = job;
      if (job->participants.fetch_add(1, std::memory_order_relaxed) >=
          job->workers_allowed)
        continue; // concurrency cap: sit this region out
      in_parallel_region() = true;
      execute(*job);
      in_parallel_region() = false;
    }
  }

  // callers: run_chunks (region_mutex_ held) and set_n_threads/destructor
  void ensure_workers()
  {
    if (!workers_.empty() || n_threads_ <= 1)
      return;
    workers_.reserve(n_threads_ - 1);
    for (unsigned int t = 0; t + 1 < n_threads_; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void join_workers()
  {
    if (workers_.empty())
      return;
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      stop_ = true;
      job_cv_.notify_all();
    }
    for (auto &w : workers_)
      w.join();
    workers_.clear();
    stop_ = false;
  }

  unsigned int n_threads_ = 1;
  std::atomic<unsigned int> external_{1};
  std::mutex region_mutex_; ///< serializes parallel regions
  std::mutex job_mutex_;    ///< guards job_ / stop_ for the wait loop
  std::condition_variable job_cv_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // background service thread (async()): FIFO queue, drained before join
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<std::function<void()>> async_queue_;
  std::thread service_thread_;
  bool async_stop_ = false;
};

} // namespace dgflow::concurrency
