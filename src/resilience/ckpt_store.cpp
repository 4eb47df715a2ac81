#include "resilience/ckpt_store.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "concurrency/thread_pool.h"
#include "instrumentation/profiler.h"
#include "resilience/shard_checkpoint.h"

namespace dgflow::resilience
{
namespace
{
std::string generation_name(const std::uint64_t id)
{
  // zero-padded so lexicographic directory order equals numeric order and a
  // fault plan's path filter ("gen000002") targets exactly one generation
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "gen%06llu",
                static_cast<unsigned long long>(id));
  return buffer;
}

/// Parses "gen<id>" (committed, no suffix); nullopt for anything else.
std::optional<std::uint64_t> parse_generation_name(const std::string &name)
{
  if (name.size() < 4 || name.compare(0, 3, "gen") != 0)
    return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t i = 3; i < name.size(); ++i)
  {
    if (name[i] < '0' || name[i] > '9')
      return std::nullopt;
    id = id * 10 + std::uint64_t(name[i] - '0');
  }
  return id;
}

bool has_tmp_suffix(const std::string &name)
{
  constexpr char suffix[] = ".tmp";
  return name.size() >= 4 && name.compare(name.size() - 4, 4, suffix) == 0;
}
} // namespace

GenerationStore::GenerationStore(std::string root)
  : GenerationStore(std::move(root), Options())
{}

GenerationStore::GenerationStore(std::string root, const Options &options)
  : root_(std::move(root)), options_(options)
{
  DGFLOW_ASSERT(options_.keep_generations >= 1,
                "GenerationStore must keep at least one generation");
  CkptIo::instance().create_directories(root_);
  garbage_collect();
  // resume numbering after the newest survivor so ids stay monotonic across
  // restarts (the ring ordering relies on it)
  const std::vector<std::uint64_t> existing = generations();
  next_id_.store(existing.empty() ? 0 : existing.back() + 1,
                 std::memory_order_relaxed);
}

std::uint64_t GenerationStore::allocate_generation()
{
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

std::string GenerationStore::generation_directory(const std::uint64_t id) const
{
  return root_ + "/" + generation_name(id);
}

std::string GenerationStore::create_staging(const std::uint64_t id)
{
  const std::string staging = generation_directory(id) + ".tmp";
  CkptIo::instance().create_directories(staging);
  return staging;
}

void GenerationStore::commit_generation(const std::uint64_t id)
{
  CkptIo &io = CkptIo::instance();
  const std::string committed = generation_directory(id);
  // the directory rename is the commit point; the files inside were already
  // individually fsynced by write_file_atomic
  io.rename(committed + ".tmp", committed);
  // prune the ring: committed generations beyond keep_generations, oldest
  // first (never the one just published)
  const std::vector<std::uint64_t> all = generations();
  if (all.size() > options_.keep_generations)
    for (std::size_t i = 0; i + options_.keep_generations < all.size(); ++i)
      io.remove_all(generation_directory(all[i]));
}

void GenerationStore::abort_generation(const std::uint64_t id)
{
  CkptIo::instance().remove_all(generation_directory(id) + ".tmp");
}

std::vector<std::uint64_t> GenerationStore::generations() const
{
  std::vector<std::uint64_t> ids;
  for (const std::string &name : CkptIo::instance().list_directory(root_))
    if (!has_tmp_suffix(name))
      if (const auto id = parse_generation_name(name))
        ids.push_back(*id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool GenerationStore::verify_generation(const std::string &directory)
{
  std::vector<std::string> files = CkptIo::instance().list_directory(directory);
  std::sort(files.begin(), files.end());
  bool any = false, has_manifest = false;
  try
  {
    for (const std::string &name : files)
    {
      if (has_tmp_suffix(name))
        return false; // interrupted write inside a "committed" generation
      if (name.size() < 5 ||
          name.compare(name.size() - 5, 5, ".ckpt") != 0)
        continue;
      any = true;
      if (name == "manifest.ckpt")
        has_manifest = true;
      else
        CheckpointReader probe(directory + "/" + name); // parses + checksums
    }
    if (has_manifest)
      // sharded generation: additionally verify every shard against the
      // manifest checksums and the shard count (ShardCheckpointReader's
      // constructor does exactly that)
      ShardCheckpointReader shards(directory);
  }
  catch (const CheckpointError &)
  {
    return false;
  }
  return any;
}

std::optional<std::uint64_t> GenerationStore::newest_valid_generation() const
{
  const std::vector<std::uint64_t> ids = generations();
  for (auto it = ids.rbegin(); it != ids.rend(); ++it)
    if (verify_generation(generation_directory(*it)))
      return *it;
  return std::nullopt;
}

GenerationStore::GcReport GenerationStore::garbage_collect()
{
  CkptIo &io = CkptIo::instance();
  GcReport report;
  std::vector<std::uint64_t> committed;
  for (const std::string &name : io.list_directory(root_))
  {
    if (has_tmp_suffix(name))
    {
      // a crashed half-written generation (or torn file publish): it never
      // committed, so nothing can reference it
      io.remove_all(root_ + "/" + name);
      ++report.pruned_tmp;
    }
    else if (const auto id = parse_generation_name(name))
      committed.push_back(*id);
  }
  std::sort(committed.begin(), committed.end());
  if (committed.size() > options_.keep_generations)
    for (std::size_t i = 0; i + options_.keep_generations < committed.size();
         ++i)
    {
      io.remove_all(generation_directory(committed[i]));
      ++report.pruned_generations;
    }
  return report;
}

AsyncCheckpointer::AsyncCheckpointer(const std::string &root)
  : AsyncCheckpointer(root, Options())
{}

AsyncCheckpointer::AsyncCheckpointer(const std::string &root,
                                     const Options &options)
  : store_(root, GenerationStore::Options{options.keep_generations}),
    options_(options)
{
  DGFLOW_ASSERT(options_.max_in_flight >= 1,
                "AsyncCheckpointer needs max_in_flight >= 1");
}

AsyncCheckpointer::~AsyncCheckpointer() { drain(); }

std::uint64_t AsyncCheckpointer::submit(std::vector<NamedImage> images)
{
  {
    // back-pressure: the solver may run ahead of the disk by at most
    // max_in_flight generations; time spent here is the only checkpoint
    // stall the solver thread ever sees
    std::unique_lock<std::mutex> lock(mutex_);
    if (in_flight_ >= options_.max_in_flight)
    {
      Timer wait;
      cv_.wait(lock, [&] { return in_flight_ < options_.max_in_flight; });
      DGFLOW_PROF_GAUGE("ckpt_backpressure_seconds", wait.seconds());
    }
    ++in_flight_;
    ++status_.submitted;
  }
  const std::uint64_t id = store_.allocate_generation();
  concurrency::ThreadPool::instance().async(
    [this, id, images = std::move(images)]() mutable {
      write_generation(id, std::move(images));
    });
  return id;
}

void AsyncCheckpointer::write_generation(const std::uint64_t id,
                                         std::vector<NamedImage> images)
{
  DGFLOW_PROF_SCOPE("ckpt_write_generation");
  try
  {
    const std::string staging = store_.create_staging(id);
    for (const NamedImage &file : images)
      CkptIo::instance().write_file_atomic(staging + "/" + file.name,
                                           file.image.data(),
                                           file.image.size());
    store_.commit_generation(id);
    std::lock_guard<std::mutex> lock(mutex_);
    ++status_.published;
    DGFLOW_PROF_COUNT("ckpt_generations_published", 1);
  }
  catch (const std::exception &e)
  {
    // a failed checkpoint write must never take down the solve: record it,
    // clean the staging droppings, keep the previous generation as the
    // restart point
    store_.abort_generation(id);
    std::lock_guard<std::mutex> lock(mutex_);
    ++status_.failed;
    status_.last_error = e.what();
    DGFLOW_PROF_COUNT("ckpt_write_failures", 1);
  }
  {
    // notify under the lock: the destructor drains and then destroys the
    // condvar the instant a waiter sees in_flight_ == 0, so the broadcast
    // must complete before this thread releases the mutex
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    cv_.notify_all();
  }
}

void AsyncCheckpointer::drain()
{
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return in_flight_ == 0; });
}

AsyncCheckpointer::Status AsyncCheckpointer::status() const
{
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

} // namespace dgflow::resilience
