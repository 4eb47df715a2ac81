#pragma once

// Sharded checkpoints for distributed solves: every rank writes its own
// slice of the global state, so checkpoint cost scales with the owned
// partition, not the global problem — and a restart may use a *different*
// rank count than the run that wrote the checkpoint (the N→M restart that
// shrinking recovery performs after an agreed rank death).
//
// Directory layout (one directory per checkpoint):
//
//   <dir>/rank<k>.ckpt   shard of rank k — an ordinary versioned+checksummed
//                        CheckpointWriter file (resilience/checkpoint.h)
//   <dir>/manifest.ckpt  shard count + per-shard payload checksums
//
// Shard record convention: replicated scalars (step index, time, dt, ...)
// are written identically by every shard; a distributed field is written as
//   u64 global_size, u64 owned_begin, vector<owned values>
// per shard. The reader loads *all* shards, verifies each against the
// manifest checksum (a mismatch is a CheckpointError naming the shard), and
// reassembles the global field — the restoring run then re-slices it for
// its own partition, whatever its rank count.
//
// Buddy replication: close() returns the shard's in-memory file image (the
// same buffer it published) so the caller can send it to its
// Morton-neighbour rank (mesh/partition.h: morton_buddy_rank) over vmpi. A
// shard lost with its rank is then recoverable from the buddy's copy:
// ShardCheckpointReader accepts in-memory images that override (or
// substitute for) shard files.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "resilience/checkpoint.h"

namespace dgflow::resilience
{
/// File name of rank @p rank 's shard inside a checkpoint directory.
inline std::string shard_file_name(const int rank)
{
  return "rank" + std::to_string(rank) + ".ckpt";
}

class ShardCheckpointWriter
{
public:
  /// Prepares rank @p rank 's shard of an @p n_ranks -rank checkpoint in
  /// @p directory (created if absent; creation is idempotent, so concurrent
  /// ranks may race through it safely).
  ShardCheckpointWriter(const std::string &directory, const int rank,
                        const int n_ranks);

  /// Replicated scalar: every shard must write the same value at the same
  /// position in its record stream (the reader cross-checks).
  void write_u64(const std::uint64_t v) { writer_.write_u64(v); }
  void write_double(const double v) { writer_.write_double(v); }

  /// One distributed field: this rank's contiguous owned slice
  /// [@p owned_begin, @p owned_begin + owned.size()) of a global vector of
  /// @p global_size entries. The slices of all shards must tile the global
  /// index range exactly.
  template <typename Number>
  void write_owned_slice(const std::uint64_t global_size,
                         const std::uint64_t owned_begin,
                         const Vector<Number> &owned)
  {
    writer_.write_u64(global_size);
    writer_.write_u64(owned_begin);
    writer_.write_vector(owned);
  }

  struct Shard
  {
    std::uint64_t checksum;  ///< payload checksum (goes into the manifest)
    std::vector<char> image; ///< full file image for buddy replication
  };

  /// Publishes <dir>/rank<k>.ckpt atomically and returns its checksum plus
  /// the in-memory image to replicate to the buddy rank.
  Shard close();

private:
  CheckpointWriter writer_;
};

/// Writes <dir>/manifest.ckpt recording the shard count and every shard's
/// payload checksum. Called once per checkpoint after all shards closed
/// (by the driver, or by rank 0 after gathering the checksums).
void write_shard_manifest(const std::string &directory,
                          const std::vector<std::uint64_t> &shard_checksums);

/// Reads <dir>/manifest.ckpt; returns the per-shard checksums.
std::vector<std::uint64_t> read_shard_manifest(const std::string &directory);

class ShardCheckpointReader
{
public:
  /// Loads the manifest and every shard of the checkpoint in @p directory,
  /// verifying each shard's payload checksum against the manifest entry; a
  /// mismatch (or an unreadable shard) raises CheckpointError naming the
  /// shard file. @p image_overrides maps shard rank -> in-memory file image
  /// (a buddy-replicated copy), consulted *instead of* the shard file — the
  /// path by which a shard that died with its rank is still restorable.
  explicit ShardCheckpointReader(
    const std::string &directory,
    const std::map<int, std::vector<char>> &image_overrides = {});

  int n_shards() const { return static_cast<int>(shards_.size()); }

  /// Replicated scalar: reads it from every shard and verifies agreement.
  std::uint64_t read_u64();
  double read_double();

  /// Reassembles one distributed field into the full global vector from the
  /// owned slices of all shards (verifying they tile the global range), so
  /// the caller can re-slice it for its own — possibly different — rank
  /// count.
  template <typename Number>
  void read_global(Vector<Number> &global)
  {
    // the owned slices must fit in what the shards still hold, which bounds
    // a field size taken from the file before it sizes anything
    std::uint64_t capacity = 0;
    for (const CheckpointReader &shard : shards_)
      capacity += shard.bytes_left() / sizeof(Number);
    std::uint64_t global_size = 0;
    std::uint64_t assembled = 0;
    for (int k = 0; k < n_shards(); ++k)
    {
      const std::uint64_t size_k = shards_[k].read_u64();
      const std::uint64_t begin_k = shards_[k].read_u64();
      if (k == 0)
      {
        global_size = size_k;
        if (global_size > capacity)
          throw CheckpointError(
            shard_file_name(0) + " claims a global field of " +
            std::to_string(global_size) + " entries, more than the " +
            std::to_string(capacity) + " the shards can hold");
        global.reinit(global_size, true);
      }
      else if (size_k != global_size)
        throw CheckpointError(
          shard_file_name(k) + " disagrees on the global field size (" +
          std::to_string(size_k) + " vs " + std::to_string(global_size) +
          " in " + shard_file_name(0) + ")");
      Vector<Number> owned;
      shards_[k].read_vector(owned);
      // written so that no sum can wrap around
      if (begin_k > global_size || owned.size() > global_size - begin_k)
        throw CheckpointError(shard_file_name(k) + " slice of " +
                              std::to_string(owned.size()) +
                              " entries at " + std::to_string(begin_k) +
                              " exceeds the global size " +
                              std::to_string(global_size));
      for (std::size_t i = 0; i < owned.size(); ++i)
        global[begin_k + i] = owned[i];
      assembled += owned.size();
    }
    if (assembled != global_size)
      throw CheckpointError(
        "shard slices do not tile the global field: " +
        std::to_string(assembled) + " of " + std::to_string(global_size) +
        " entries assembled");
  }

private:
  std::vector<CheckpointReader> shards_;
};

} // namespace dgflow::resilience
