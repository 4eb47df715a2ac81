#pragma once

// Multi-generation checkpoint store with asynchronous publication.
//
// A single checkpoint file is a single point of failure: a torn write during
// publish (CkptIo's lying-disk model — or a real power cut) leaves NO valid
// restart point. The GenerationStore instead keeps a ring of the last N
// checkpoint *generations*, each a directory of ordinary checkpoint files:
//
//   <root>/gen000007/           committed generation 7 (state.ckpt, or
//                               rank<k>.ckpt + manifest.ckpt for shards)
//   <root>/gen000008.tmp/       generation being staged (invisible to scans)
//
// Commit protocol: write every file of the generation durably into the .tmp
// staging directory, rename the directory over its final name and fsync the
// root. Each step is atomic, so a crash at any point leaves either a fully
// committed generation or droppings a startup garbage_collect() prunes.
// Recovery (scan / newest_valid_generation) walks generations newest-first
// and returns the first whose every checkpoint file verifies.
//
// The AsyncCheckpointer on top is the one path by which the flow solver's
// state reaches disk (LungApplication owns it). It takes already-encoded
// in-memory images (CheckpointWriter::encode() runs on the solver thread —
// the only part that needs solver state) and performs all disk I/O on the
// ThreadPool's background service thread, so the coupled time step never
// blocks on disk. Every publish is durable: each file and the directory
// rename are fsynced. Back-pressure: submit() blocks only while
// max_in_flight generations are still being written (disk slower than the
// checkpoint cadence), and drain() awaits outstanding writes on shutdown
// and before any restore; a synchronous checkpoint is submit() followed by
// drain(). Write failures are recorded in status() — a failed checkpoint
// must never kill a healthy solve; the previous committed generation
// remains valid.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "resilience/ckpt_io.h"

namespace dgflow::resilience
{
class GenerationStore
{
public:
  struct Options
  {
    /// committed generations kept in the ring (older ones are pruned)
    std::uint64_t keep_generations = 3;
  };

  /// Opens (creating if needed) the store rooted at @p root and prunes
  /// leftovers of crashed runs (see garbage_collect).
  explicit GenerationStore(std::string root);
  GenerationStore(std::string root, const Options &options);

  const std::string &root() const { return root_; }

  /// Reserves the next generation id. No filesystem work, never throws —
  /// safe to call under back-pressure accounting before the background
  /// task that does the real I/O is even scheduled.
  std::uint64_t allocate_generation();

  /// Creates the staging directory for generation @p id and returns its
  /// path. Files are written into it (via CkptIo::write_file_atomic) and
  /// the generation is then committed or aborted.
  std::string create_staging(std::uint64_t id);

  /// Atomically publishes generation @p id: renames the staging directory
  /// over the committed name, fsyncs the root and prunes generations beyond
  /// the ring size.
  void commit_generation(std::uint64_t id);

  /// Removes the staging directory of a generation whose write failed.
  void abort_generation(std::uint64_t id);

  /// Committed directory of generation @p id ("<root>/gen000007").
  std::string generation_directory(std::uint64_t id) const;

  /// All committed generation ids, ascending (no verification).
  std::vector<std::uint64_t> generations() const;

  /// Newest generation whose every checkpoint file verifies, walking the
  /// ring newest-first; std::nullopt when no generation survives
  /// verification.
  std::optional<std::uint64_t> newest_valid_generation() const;

  /// True when every *.ckpt in @p directory parses and checksums, and —
  /// when a manifest.ckpt is present — the shard set reassembles against
  /// it. A generation failing this is skipped by recovery, never loaded.
  static bool verify_generation(const std::string &directory);

  struct GcReport
  {
    std::uint64_t pruned_tmp = 0;         ///< stale .tmp files/directories
    std::uint64_t pruned_generations = 0; ///< generations beyond the ring
  };

  /// Removes crash leftovers: every "*.tmp" entry (a half-written
  /// generation or file that never committed) and committed generations
  /// beyond keep_generations. Runs automatically from the constructor.
  GcReport garbage_collect();

private:
  std::string root_;
  Options options_;
  std::atomic<std::uint64_t> next_id_{0};
};

class AsyncCheckpointer
{
public:
  struct Options
  {
    std::uint64_t keep_generations = 3;
    /// generations allowed in flight before submit() back-pressures
    std::uint64_t max_in_flight = 1;
  };

  explicit AsyncCheckpointer(const std::string &root);
  AsyncCheckpointer(const std::string &root, const Options &options);

  /// Drains outstanding writes (a destructor must not let a background
  /// task outlive the store it writes into).
  ~AsyncCheckpointer();

  AsyncCheckpointer(const AsyncCheckpointer &) = delete;
  AsyncCheckpointer &operator=(const AsyncCheckpointer &) = delete;

  /// One file of a generation: "<staging>/<name>" gets @p image 's bytes.
  struct NamedImage
  {
    std::string name;
    std::vector<char> image;
  };

  /// Submits one checkpoint generation for background publication and
  /// returns its id. The images were encoded on the calling thread
  /// (CheckpointWriter::encode()), so this call touches no solver state;
  /// it blocks only under back-pressure (max_in_flight generations still
  /// being written — time spent there is the solver-visible stall).
  /// Disk failures do NOT propagate: they surface in status() and as the
  /// ckpt_write_failures profiler counter.
  std::uint64_t submit(std::vector<NamedImage> images);

  /// Blocks until no generation is in flight. Call before restoring (a
  /// write racing a scan could commit mid-verification) and on shutdown.
  void drain();

  struct Status
  {
    std::uint64_t submitted = 0;
    std::uint64_t published = 0;
    std::uint64_t failed = 0;
    std::string last_error; ///< what() of the most recent write failure
  };

  Status status() const;

  GenerationStore &store() { return store_; }
  const GenerationStore &store() const { return store_; }

private:
  /// The background body: stage, write every image durably, commit; on
  /// any failure abort and record.
  void write_generation(std::uint64_t id, std::vector<NamedImage> images);

  GenerationStore store_;
  Options options_;

  mutable std::mutex mutex_; ///< guards in_flight_ and status_
  std::condition_variable cv_;
  std::uint64_t in_flight_ = 0;
  Status status_;
};

} // namespace dgflow::resilience
