#pragma once

// Injectable filesystem shim for the checkpoint stack. Every checkpoint and
// shard-checkpoint byte that touches disk routes through CkptIo::instance(),
// which gives the resilience layer two things the raw <fstream>/<filesystem>
// calls could not:
//
//  * durability — write_file_atomic() publishes a file the way a database
//    would: write "<path>.tmp", fsync the file, rename() over the final
//    name, then fsync the parent directory. A crash or power loss at any
//    point leaves either the complete old file or the complete new file,
//    never a torn "published" one (rename alone does NOT give this: without
//    the fsyncs the rename can hit the journal before the data blocks do).
//
//  * deterministic I/O fault injection — an installed IoFaultHandler (the
//    FaultPlan of resilience/fault_injection.h implements it, steered by the
//    DGFLOW_FAULT_IO_* envs) decides per operation whether a write runs out
//    of space (ENOSPC), is cut short (short write: a structured error with a
//    truncated tmp file left behind), is torn (the lying-disk model: only a
//    prefix reaches the platter but the write *reports success*, so the
//    corruption is only discoverable by checksum verification on read), a
//    read fails (EIO), or the disk stalls. Decisions are pure hashes of
//    (seed, path, per-path operation sequence), so a faulty run is
//    reproducible.
//
// All failures surface as CkptIoError, a CheckpointError subclass, so every
// existing catch site in the recovery ladder handles injected disk faults
// exactly like corrupted checkpoints: skip the generation, fall back, never
// crash and never load garbage.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "resilience/checkpoint.h"

namespace dgflow::resilience
{
/// A checkpoint I/O operation failed (really or by injection): disk full,
/// short write, unreadable file, missing file. Subclass of CheckpointError
/// so the recovery ladder's existing catch sites treat a disk fault like any
/// other unusable checkpoint.
class CkptIoError : public CheckpointError
{
public:
  using CheckpointError::CheckpointError;
};

/// Fault decision for one checkpoint write (returned by an IoFaultHandler).
struct IoWriteFault
{
  /// fail before a single byte reaches the file (disk full)
  bool enospc = false;
  /// >= 0: persist only this many bytes, then fail with a structured short
  /// write error (the tmp file is left truncated for the GC to prune)
  long long short_write_at = -1;
  /// >= 0: persist only this many bytes but *report success* — the
  /// power-cut/lying-disk model. The file publishes; only checksum
  /// verification on read can discover the tear.
  long long torn_write_at = -1;
  /// injected disk latency before the operation (slow-disk model)
  double stall_seconds = 0.;
};

/// Fault decision for one checkpoint read.
struct IoReadFault
{
  bool eio = false;          ///< fail the read with an I/O error
  double stall_seconds = 0.; ///< injected disk latency before the read
};

/// Per-operation fault oracle consulted by CkptIo. Implemented by
/// resilience::FaultPlan (seeded deterministic draws over the
/// DGFLOW_FAULT_IO_* knobs); @p seq is the per-path operation sequence
/// number maintained by the shim, so decisions are reproducible regardless
/// of which thread (solver or background writer) performs the operation.
class IoFaultHandler
{
public:
  virtual ~IoFaultHandler() = default;
  virtual IoWriteFault on_ckpt_write(const std::string &path,
                                     std::size_t bytes,
                                     unsigned long long seq) = 0;
  virtual IoReadFault on_ckpt_read(const std::string &path,
                                   unsigned long long seq) = 0;
};

class CkptIo
{
public:
  /// The process-wide shim all checkpoint file I/O routes through.
  static CkptIo &instance();

  /// Installs @p handler as the fault oracle for every subsequent operation
  /// (nullptr uninstalls). The handler must outlive its installation; tests
  /// uninstall in their teardown.
  void install_fault_handler(IoFaultHandler *handler)
  {
    handler_.store(handler, std::memory_order_release);
  }

  IoFaultHandler *fault_handler() const
  {
    return handler_.load(std::memory_order_acquire);
  }

  /// Operation counts since the last reset — the regression-test probe that
  /// the durability protocol really runs (file fsync + dir fsync + rename
  /// per publish).
  struct Stats
  {
    unsigned long long writes = 0;      ///< write_file_atomic calls
    unsigned long long reads = 0;       ///< read_file calls
    unsigned long long file_fsyncs = 0; ///< fsync(fd) on data files
    unsigned long long dir_fsyncs = 0;  ///< fsync on parent directories
    unsigned long long renames = 0;     ///< atomic publishes
    unsigned long long injected_faults = 0;
  };

  Stats stats() const;
  void reset_stats();

  /// Durable atomic publish of @p bytes at @p path: write "<path>.tmp",
  /// fsync the file, rename over @p path, fsync the parent directory. Throws
  /// CkptIoError on any real or injected failure; a short write leaves the
  /// truncated tmp file behind (never the published name) for startup GC to
  /// prune.
  void write_file_atomic(const std::string &path, const char *data,
                         std::size_t bytes);

  /// Reads the whole file; throws CkptIoError when the file is missing or
  /// unreadable (really or by injection).
  std::vector<char> read_file(const std::string &path);

  /// Atomic rename (the directory-level commit of a checkpoint generation);
  /// fsyncs the parent directory afterwards.
  void rename(const std::string &from, const std::string &to);

  /// mkdir -p; idempotent. Throws CkptIoError on failure.
  void create_directories(const std::string &dir);

  /// fsync on a directory fd (making directory entries durable).
  void fsync_directory(const std::string &dir);

  bool exists(const std::string &path) const;

  /// Removes a file or directory tree; best effort, returns the number of
  /// entries removed (0 when absent).
  std::uint64_t remove_all(const std::string &path);

  /// Names (not paths) of the entries of @p dir, unsorted; empty when the
  /// directory does not exist.
  std::vector<std::string> list_directory(const std::string &dir) const;

private:
  CkptIo() = default;

  /// Per-path monotonic operation sequence, the reproducibility key handed
  /// to the fault handler.
  unsigned long long next_seq(const std::string &path);

  std::atomic<IoFaultHandler *> handler_{nullptr};
  mutable std::mutex mutex_; ///< guards seq_ and stats_
  std::unordered_map<std::string, unsigned long long> seq_;
  Stats stats_;
};

} // namespace dgflow::resilience
