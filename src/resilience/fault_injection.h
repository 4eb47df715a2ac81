#pragma once

// Deterministic, seeded fault-injection plan for the vmpi layer. A FaultPlan
// implements vmpi::FaultHandler: installed on every rank's Communicator it
// decides, per message, whether to drop, delay, reorder or corrupt the
// payload, and whether a rank stalls before entering a collective. All
// decisions are pure hashes of (seed, source, dest, tag, sequence number),
// so a faulty run is bit-for-bit reproducible regardless of thread
// interleaving — the property that makes "did the recovery path fire?"
// assertions in tests meaningful.
//
// A plan is configured in code, through FaultPlan::Config. Besides the
// message faults above it can kill a rank mid-solve (the victim throws
// RankFailure before its kill_step-th collective and stops servicing its
// mailbox; survivors recover via agree()) and corrupt collective payloads
// in flight (the reduction detects the checksum mismatch instead of
// folding garbage in).
//
// Compute-side silent-data-corruption injection (the ABFT test hammer; see
// resilience/abft.h) flips a bit in *memory* — a Krylov vector, a geometry
// batch, an AMG level — emulating a DRAM/register upset that no wire
// checksum can see. The flip fires exactly once per plan, so a
// rollback-and-redo repair path is not re-injured by its own retry.
//
// Checkpoint I/O faults are consumed by the resilience/ckpt_io.h shim when
// the plan is installed via CkptIo::install_fault_handler; decisions are
// pure hashes of (seed, path, per-path operation sequence). A short write
// persists a prefix and fails; a torn write persists a prefix and reports
// success (the lying-disk/power-cut model — only checksum verification on
// read can find the tear).

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/abft_hooks.h"
#include "resilience/ckpt_io.h"
#include "vmpi/communicator.h"

namespace dgflow::resilience
{
class FaultPlan : public vmpi::FaultHandler,
                  public AbftInjector,
                  public IoFaultHandler
{
public:
  struct Config
  {
    std::uint64_t seed = 1;
    double drop_rate = 0.;
    double delay_rate = 0.;
    double delay_seconds = 1e-3;
    double reorder_rate = 0.;
    double corrupt_rate = 0.;
    std::size_t corrupt_bytes = 1;
    int stall_rank = -1;        ///< rank stalled before collectives (-1: none)
    double stall_seconds = 0.05;
    int only_tag = -1;          ///< restrict message faults to one tag (-1: all)
    int kill_rank = -1;         ///< rank killed mid-solve (-1: none)
    /// collective sequence number at which the victim dies; each rank's
    /// collective count is driven by its own thread, so the death point is
    /// deterministic regardless of interleaving
    unsigned long long kill_step = 0;
    double corrupt_collective_rate = 0.; ///< per-collective corruption prob.

    // compute-side bit-flip injection (AbftInjector; fires at most once)
    std::string bitflip_target;          ///< artifact tag to flip ("": none)
    unsigned long long bitflip_step = 0; ///< step/iteration of the flip
    int bitflip_rank = 0;                ///< rank whose payload is flipped
    long long bitflip_bit = -1;          ///< bit index (-1: seeded draw)

    // checkpoint I/O faults (IoFaultHandler; consumed by the CkptIo shim)
    double io_short_write_rate = 0.; ///< prefix persists, write fails
    double io_torn_write_rate = 0.;  ///< prefix persists, write "succeeds"
    double io_enospc_rate = 0.;      ///< write fails before any byte lands
    double io_read_error_rate = 0.;  ///< read fails with EIO
    double io_stall_rate = 0.;       ///< slow-disk probability per operation
    double io_stall_seconds = 0.02;  ///< injected disk latency
    /// substring filter: only paths containing it are fault candidates
    /// ("" = all checkpoint I/O)
    std::string io_path_filter;
  };

  /// Injection counts, summed over all ranks sharing the plan.
  struct Counts
  {
    unsigned long long dropped = 0;
    unsigned long long delayed = 0;
    unsigned long long reordered = 0;
    unsigned long long corrupted = 0;
    unsigned long long stalls = 0;
    unsigned long long kills = 0;
    unsigned long long corrupted_collectives = 0;
    unsigned long long bitflips = 0;
    unsigned long long io_short_writes = 0;
    unsigned long long io_torn_writes = 0;
    unsigned long long io_enospc_failures = 0;
    unsigned long long io_read_errors = 0;
    unsigned long long io_stalls = 0;
  };

  explicit FaultPlan(const Config &config) : config_(config) {}

  const Config &config() const { return config_; }

  Counts counts() const
  {
    Counts c;
    c.dropped = dropped_.load(std::memory_order_relaxed);
    c.delayed = delayed_.load(std::memory_order_relaxed);
    c.reordered = reordered_.load(std::memory_order_relaxed);
    c.corrupted = corrupted_.load(std::memory_order_relaxed);
    c.stalls = stalls_.load(std::memory_order_relaxed);
    c.kills = kills_.load(std::memory_order_relaxed);
    c.corrupted_collectives =
      corrupted_collectives_.load(std::memory_order_relaxed);
    c.bitflips = bitflips_.load(std::memory_order_relaxed);
    c.io_short_writes = io_short_writes_.load(std::memory_order_relaxed);
    c.io_torn_writes = io_torn_writes_.load(std::memory_order_relaxed);
    c.io_enospc_failures =
      io_enospc_failures_.load(std::memory_order_relaxed);
    c.io_read_errors = io_read_errors_.load(std::memory_order_relaxed);
    c.io_stalls = io_stalls_.load(std::memory_order_relaxed);
    return c;
  }

  vmpi::FaultAction on_message(const int source, const int dest,
                               const int tag, const unsigned long long seq,
                               const std::size_t bytes) override
  {
    vmpi::FaultAction action;
    if (config_.only_tag >= 0 && tag != config_.only_tag)
      return action;
    // independent deterministic draws per fault type (distinct salts)
    if (draw(1, source, dest, tag, seq) < config_.drop_rate)
    {
      action.drop = true;
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return action;
    }
    if (draw(2, source, dest, tag, seq) < config_.delay_rate)
    {
      action.delay_seconds = config_.delay_seconds;
      delayed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (draw(3, source, dest, tag, seq) < config_.reorder_rate)
    {
      action.reorder = true;
      reordered_.fetch_add(1, std::memory_order_relaxed);
    }
    if (draw(4, source, dest, tag, seq) < config_.corrupt_rate && bytes > 0)
    {
      action.corrupt_bytes = config_.corrupt_bytes;
      corrupted_.fetch_add(1, std::memory_order_relaxed);
    }
    return action;
  }

  double stall_before_collective(const int rank,
                                 const unsigned long long /*seq*/) override
  {
    if (rank != config_.stall_rank || config_.stall_seconds <= 0.)
      return 0.;
    stalls_.fetch_add(1, std::memory_order_relaxed);
    return config_.stall_seconds;
  }

  bool kill_before_collective(const int rank,
                              const unsigned long long seq) override
  {
    if (rank != config_.kill_rank || seq < config_.kill_step)
      return false;
    kills_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  std::size_t corrupt_collective(const int rank,
                                 const unsigned long long seq) override
  {
    if (draw(5, rank, rank, -1, seq) >= config_.corrupt_collective_rate)
      return 0;
    corrupted_collectives_.fetch_add(1, std::memory_order_relaxed);
    return config_.corrupt_bytes;
  }

  /// AbftInjector: flips one bit of @p data when (artifact, step, rank)
  /// matches the configured target. The flip fires at most once per plan —
  /// the instrumented solver calls inject() every iteration, and a repair
  /// that rolls back and redoes work must not be re-injured by its retry.
  void inject(const char *artifact, const unsigned long long step,
              const int rank, void *data, const std::size_t bytes) override
  {
    if (bytes == 0 || config_.bitflip_target.empty() ||
        config_.bitflip_target != artifact || rank != config_.bitflip_rank ||
        step != config_.bitflip_step)
      return;
    if (bitflip_fired_.exchange(true, std::memory_order_relaxed))
      return;
    const std::uint64_t n_bits = std::uint64_t(bytes) * 8u;
    std::uint64_t bit;
    if (config_.bitflip_bit >= 0)
      bit = std::uint64_t(config_.bitflip_bit) % n_bits;
    else
    {
      // seeded draw: hash the artifact tag into the key so different targets
      // hit different offsets under the same seed
      std::uint64_t tag_hash = 0xcbf29ce484222325ull;
      for (const char *c = artifact; *c != '\0'; ++c)
        tag_hash = (tag_hash ^ std::uint64_t((unsigned char)*c)) *
                   0x100000001b3ull;
      bit = mix64({6, tag_hash, step, std::uint64_t(rank)}) % n_bits;
    }
    static_cast<unsigned char *>(data)[bit / 8] ^=
      (unsigned char)(1u << (bit % 8));
    bitflips_.fetch_add(1, std::memory_order_relaxed);
  }

  /// IoFaultHandler: per-write fault decision for the CkptIo shim. Draws
  /// are pure hashes of (seed, path hash, per-path sequence), so a faulty
  /// run replays identically whether the write happens on the solver thread
  /// or the background checkpoint writer. At most one fault class fires per
  /// operation (distinct salts, checked in severity order); truncation
  /// offsets are themselves seeded draws over [0, bytes).
  IoWriteFault on_ckpt_write(const std::string &path,
                             const std::size_t bytes,
                             const unsigned long long seq) override
  {
    IoWriteFault fault;
    if (!io_path_matches(path))
      return fault;
    const std::uint64_t h = path_hash(path);
    if (iodraw(10, h, seq) < config_.io_enospc_rate)
    {
      io_enospc_failures_.fetch_add(1, std::memory_order_relaxed);
      fault.enospc = true;
      return fault;
    }
    if (bytes > 0 && iodraw(11, h, seq) < config_.io_torn_write_rate)
    {
      fault.torn_write_at =
        static_cast<long long>(mix64({12, h, seq}) % std::uint64_t(bytes));
      io_torn_writes_.fetch_add(1, std::memory_order_relaxed);
      return fault;
    }
    if (bytes > 0 && iodraw(13, h, seq) < config_.io_short_write_rate)
    {
      fault.short_write_at =
        static_cast<long long>(mix64({14, h, seq}) % std::uint64_t(bytes));
      io_short_writes_.fetch_add(1, std::memory_order_relaxed);
      return fault;
    }
    if (iodraw(15, h, seq) < config_.io_stall_rate)
    {
      fault.stall_seconds = config_.io_stall_seconds;
      io_stalls_.fetch_add(1, std::memory_order_relaxed);
    }
    return fault;
  }

  IoReadFault on_ckpt_read(const std::string &path,
                           const unsigned long long seq) override
  {
    IoReadFault fault;
    if (!io_path_matches(path))
      return fault;
    const std::uint64_t h = path_hash(path);
    if (iodraw(16, h, seq) < config_.io_read_error_rate)
    {
      io_read_errors_.fetch_add(1, std::memory_order_relaxed);
      fault.eio = true;
      return fault;
    }
    if (iodraw(17, h, seq) < config_.io_stall_rate)
    {
      fault.stall_seconds = config_.io_stall_seconds;
      io_stalls_.fetch_add(1, std::memory_order_relaxed);
    }
    return fault;
  }

private:
  bool io_path_matches(const std::string &path) const
  {
    return config_.io_path_filter.empty() ||
           path.find(config_.io_path_filter) != std::string::npos;
  }

  static std::uint64_t path_hash(const std::string &path)
  {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : path)
      h = (h ^ std::uint64_t((unsigned char)c)) * 0x100000001b3ull;
    return h;
  }

  /// Uniform draw in [0,1) keyed on (salt, path hash, operation sequence).
  double iodraw(const std::uint64_t salt, const std::uint64_t path_hash,
                const unsigned long long seq) const
  {
    return double(mix64({salt, path_hash, seq}) >> 11) * 0x1.0p-53;
  }

  /// splitmix64 finalizer folded over the keys, seeded by config_.seed.
  std::uint64_t mix64(std::initializer_list<std::uint64_t> keys) const
  {
    std::uint64_t x = config_.seed;
    for (const std::uint64_t k : keys)
    {
      x += 0x9e3779b97f4a7c15ull + k;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      x = x ^ (x >> 31);
    }
    return x;
  }

  /// Uniform draw in [0,1), a pure function of the identifiers.
  double draw(const std::uint64_t salt, const int source, const int dest,
              const int tag, const unsigned long long seq) const
  {
    const std::uint64_t x =
      mix64({salt, std::uint64_t(source), std::uint64_t(dest),
             std::uint64_t(tag), std::uint64_t(seq)});
    return double(x >> 11) * 0x1.0p-53;
  }

  Config config_;
  std::atomic<unsigned long long> dropped_{0}, delayed_{0}, reordered_{0},
    corrupted_{0}, stalls_{0}, kills_{0}, corrupted_collectives_{0};
  std::atomic<unsigned long long> bitflips_{0};
  std::atomic<bool> bitflip_fired_{false};
  std::atomic<unsigned long long> io_short_writes_{0}, io_torn_writes_{0},
    io_enospc_failures_{0}, io_read_errors_{0}, io_stalls_{0};
};

} // namespace dgflow::resilience
