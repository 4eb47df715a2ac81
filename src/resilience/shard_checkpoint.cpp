#include "resilience/shard_checkpoint.h"

#include "resilience/ckpt_io.h"

namespace dgflow::resilience
{
ShardCheckpointWriter::ShardCheckpointWriter(const std::string &directory,
                                             const int rank,
                                             const int n_ranks)
  : writer_(directory + "/" + shard_file_name(rank))
{
  DGFLOW_ASSERT(rank >= 0 && rank < n_ranks,
                "invalid shard rank " << rank << " of " << n_ranks);
  // through the shim: idempotent, and a CkptIoError (subclass of
  // CheckpointError) on real failure
  CkptIo::instance().create_directories(directory);
}

ShardCheckpointWriter::Shard ShardCheckpointWriter::close()
{
  // one image, one checksum pass: the published file and the buddy copy
  // are the same bytes
  Shard shard;
  shard.image = writer_.encode();
  shard.checksum = internal::image_checksum(shard.image);
  CkptIo::instance().write_file_atomic(writer_.path(), shard.image.data(),
                                       shard.image.size());
  return shard;
}

void write_shard_manifest(const std::string &directory,
                          const std::vector<std::uint64_t> &shard_checksums)
{
  CheckpointWriter manifest(directory + "/manifest.ckpt");
  manifest.write_u64(shard_checksums.size());
  for (const std::uint64_t c : shard_checksums)
    manifest.write_u64(c);
  manifest.close();
}

std::vector<std::uint64_t> read_shard_manifest(const std::string &directory)
{
  CheckpointReader manifest(directory + "/manifest.ckpt");
  const std::uint64_t n = manifest.read_u64();
  // one 'u' record (tag + u64) per shard: a count the payload cannot hold
  // is rejected before it sizes anything
  constexpr std::size_t record_bytes = 1 + sizeof(std::uint64_t);
  if (n > manifest.bytes_left() / record_bytes)
    throw CheckpointError("manifest in '" + directory + "' claims " +
                          std::to_string(n) + " shards but holds " +
                          std::to_string(manifest.bytes_left()) +
                          " payload bytes");
  std::vector<std::uint64_t> checksums(n);
  for (std::uint64_t k = 0; k < n; ++k)
    checksums[k] = manifest.read_u64();
  if (!manifest.exhausted())
    throw CheckpointError("manifest in '" + directory +
                          "' has trailing records");
  return checksums;
}

ShardCheckpointReader::ShardCheckpointReader(
  const std::string &directory,
  const std::map<int, std::vector<char>> &image_overrides)
{
  const std::vector<std::uint64_t> checksums = read_shard_manifest(directory);
  shards_.reserve(checksums.size());
  for (std::size_t k = 0; k < checksums.size(); ++k)
  {
    const std::string name = shard_file_name(static_cast<int>(k));
    const auto override_it = image_overrides.find(static_cast<int>(k));
    if (override_it != image_overrides.end())
      shards_.emplace_back(override_it->second,
                           name + " (buddy-replicated image)");
    else
      shards_.emplace_back(directory + "/" + name);
    if (shards_.back().checksum() != checksums[k])
      throw CheckpointError(
        name + " does not match its manifest entry (shard checksum " +
        std::to_string(shards_.back().checksum()) + ", manifest records " +
        std::to_string(checksums[k]) +
        "): the shard is stale or corrupted; refusing to restart from it");
  }
}

std::uint64_t ShardCheckpointReader::read_u64()
{
  DGFLOW_ASSERT(!shards_.empty(), "checkpoint has no shards");
  const std::uint64_t v = shards_[0].read_u64();
  for (int k = 1; k < n_shards(); ++k)
    if (shards_[k].read_u64() != v)
      throw CheckpointError(shard_file_name(k) +
                            " disagrees with " + shard_file_name(0) +
                            " on a replicated scalar: the shards are not "
                            "from the same checkpoint");
  return v;
}

double ShardCheckpointReader::read_double()
{
  DGFLOW_ASSERT(!shards_.empty(), "checkpoint has no shards");
  const double v = shards_[0].read_double();
  for (int k = 1; k < n_shards(); ++k)
    if (shards_[k].read_double() != v)
      throw CheckpointError(shard_file_name(k) +
                            " disagrees with " + shard_file_name(0) +
                            " on a replicated scalar: the shards are not "
                            "from the same checkpoint");
  return v;
}

} // namespace dgflow::resilience
