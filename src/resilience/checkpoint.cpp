#include "resilience/checkpoint.h"

#include "resilience/ckpt_io.h"

namespace dgflow::resilience
{
std::uint64_t CheckpointWriter::finish()
{
  DGFLOW_ASSERT(!spent_, "CheckpointWriter::encode()/close() called twice");
  spent_ = true;
  const std::uint64_t payload_size = image_.size() - internal::header_bytes;
  const std::uint64_t checksum =
    xxh64(image_.data() + internal::header_bytes, payload_size);
  // the reserved field keeps the zero the buffer was constructed with
  char *header = image_.data();
  std::memcpy(header, internal::magic, sizeof(internal::magic));
  std::memcpy(header + internal::version_offset, &internal::format_version,
              sizeof(internal::format_version));
  std::memcpy(header + internal::size_offset, &payload_size,
              sizeof(payload_size));
  std::memcpy(header + internal::checksum_offset, &checksum,
              sizeof(checksum));
  return checksum;
}

std::vector<char> CheckpointWriter::encode()
{
  finish();
  return std::move(image_);
}

std::uint64_t CheckpointWriter::close()
{
  const std::uint64_t checksum = finish();
  // the CkptIo shim does the durable atomic publish (tmp + fsync + rename +
  // parent-dir fsync) and is where deterministic I/O faults are injected
  CkptIo::instance().write_file_atomic(path_, image_.data(), image_.size());
  return checksum;
}

CheckpointReader::CheckpointReader(const std::string &path)
  : image_(CkptIo::instance().read_file(path))
{
  parse("'" + path + "'");
}

CheckpointReader::CheckpointReader(std::vector<char> image,
                                   const std::string &label)
  : image_(std::move(image))
{
  parse(label);
}

void CheckpointReader::parse(const std::string &label)
{
  const std::size_t bytes = image_.size();
  if (bytes < internal::header_bytes)
    throw CheckpointError(label + " is too short for a header");

  const char *header = image_.data();
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0, checksum = 0;
  std::memcpy(&version, header + internal::version_offset, sizeof(version));
  std::memcpy(&payload_size, header + internal::size_offset,
              sizeof(payload_size));
  std::memcpy(&checksum, header + internal::checksum_offset,
              sizeof(checksum));
  if (std::memcmp(header, internal::magic, sizeof(internal::magic)) != 0)
    throw CheckpointError(label + " has no DGFLOWCK magic");
  if (version != internal::format_version)
    throw CheckpointError(label + " has format version " +
                          std::to_string(version) + ", reader supports " +
                          std::to_string(internal::format_version));
  if (bytes - internal::header_bytes < payload_size)
    throw CheckpointError(label + " payload truncated: header claims " +
                          std::to_string(payload_size) + " bytes, " +
                          std::to_string(bytes - internal::header_bytes) +
                          " present");

  pos_ = internal::header_bytes;
  end_ = internal::header_bytes + payload_size;
  const std::uint64_t actual = xxh64(image_.data() + pos_, payload_size);
  if (actual != checksum)
    throw CheckpointError(label + " checksum mismatch (stored " +
                          std::to_string(checksum) + ", computed " +
                          std::to_string(actual) +
                          "): the data is corrupted; refusing to restart "
                          "from it");
  checksum_ = checksum;
}

} // namespace dgflow::resilience
