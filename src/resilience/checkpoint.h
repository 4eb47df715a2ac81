#pragma once

// Versioned, checksummed binary checkpoint files for exact-resume restarts.
//
// File layout (little-endian, host byte order — checkpoints restart the run
// on the machine class that wrote them):
//
//   8 bytes   magic "DGFLOWCK"
//   u32       format version (currently 2)
//   u32       reserved (0)
//   u64       payload size in bytes
//   u64       XXH64 checksum of the payload (common/checksum.h, seed 0)
//   payload   sequence of tagged records
//
// Version 2 differs from version 1 only in the checksum (version 1 held a
// byte-wise FNV-1a); a version-1 file is rejected by the version check.
//
// Records are type-tagged so layout drift between writer and reader is a
// structured CheckpointError, not silent misinterpretation:
//
//   'u' + u64                      unsigned scalar
//   'd' + f64                      double scalar
//   'v' + u8 elem_size + u64 count + raw data    numeric vector
//
// Values are written bit-for-bit (no text round-trip), which is what gives
// a restarted simulation the exact trajectory of the uninterrupted one.
// The writer stages header and payload in one buffer, reserved up front at
// the expected image size its constructor takes: a caller that checkpoints
// repeatedly passes the size of its previous image, so the records land in
// one allocation with no growth chain. encode() patches the header and
// moves that buffer out (the in-memory image a generation ring or a buddy
// rank receives); close() publishes the same buffer durably and atomically
// through the resilience/ckpt_io.h shim (write "<path>.tmp", fsync, rename,
// fsync the parent directory), so neither a crash mid-checkpoint nor a
// power loss right after publish can leave a torn file where a restart
// would look for a good one. Either call spends the writer.
// Routing through the shim also makes every checkpoint byte reachable by
// the I/O fault injection of resilience/fault_injection.h.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/exceptions.h"
#include "common/vector.h"

namespace dgflow::resilience
{
/// A checkpoint file is missing, truncated, corrupted (checksum mismatch),
/// from an incompatible format version, or read in the wrong record order.
class CheckpointError : public std::runtime_error
{
public:
  explicit CheckpointError(const std::string &what)
    : std::runtime_error("checkpoint error: " + what)
  {}
};

namespace internal
{
constexpr char magic[8] = {'D', 'G', 'F', 'L', 'O', 'W', 'C', 'K'};
constexpr std::uint32_t format_version = 2;

// header field offsets: magic, version, reserved, payload size, checksum
constexpr std::size_t version_offset = sizeof(magic);
constexpr std::size_t size_offset = version_offset + 2 * sizeof(std::uint32_t);
constexpr std::size_t checksum_offset = size_offset + sizeof(std::uint64_t);
constexpr std::size_t header_bytes = checksum_offset + sizeof(std::uint64_t);

/// The payload checksum recorded in the header of an image produced by
/// CheckpointWriter::encode().
inline std::uint64_t image_checksum(const std::vector<char> &image)
{
  DGFLOW_ASSERT(image.size() >= header_bytes, "not a checkpoint image");
  std::uint64_t checksum;
  std::memcpy(&checksum, image.data() + checksum_offset, sizeof(checksum));
  return checksum;
}
} // namespace internal

class CheckpointWriter
{
public:
  /// Stages a checkpoint for @p path (used by close(); encode() ignores it).
  /// The staging buffer reserves @p expected_image_bytes (header included)
  /// up front; an image that outgrows it still grows correctly. Nothing
  /// reaches disk before close(): an abandoned writer publishes nothing.
  explicit CheckpointWriter(std::string path,
                            const std::size_t expected_image_bytes = 0)
    : path_(std::move(path))
  {
    image_.reserve(std::max(expected_image_bytes, internal::header_bytes));
    image_.resize(internal::header_bytes);
  }

  void write_u64(const std::uint64_t v)
  {
    append_tag('u');
    append_raw(&v, sizeof(v));
  }

  void write_double(const double v)
  {
    append_tag('d');
    append_raw(&v, sizeof(v));
  }

  template <typename Number>
  void write_vector(const Vector<Number> &v)
  {
    append_tag('v');
    const std::uint8_t elem_size = sizeof(Number);
    const std::uint64_t count = v.size();
    append_raw(&elem_size, sizeof(elem_size));
    append_raw(&count, sizeof(count));
    append_raw(v.data(), v.size() * sizeof(Number));
  }

  /// Patches the header and moves the complete file image (header +
  /// checksum + payload) out without touching disk — the form a generation
  /// takes on its way to the AsyncCheckpointer, and a shard on its way to
  /// its buddy rank. The writer is spent afterwards.
  std::vector<char> encode();

  /// Patches the header and durably + atomically publishes the same buffer
  /// at the writer's path via the CkptIo shim. Returns the payload checksum
  /// (shard manifests record it). The writer is spent afterwards.
  std::uint64_t close();

  const std::string &path() const { return path_; }

private:
  void append_tag(const char tag)
  {
    DGFLOW_ASSERT(!spent_, "write to a CheckpointWriter after encode()/close()");
    image_.push_back(tag);
  }

  void append_raw(const void *data, const std::size_t bytes)
  {
    const char *c = static_cast<const char *>(data);
    image_.insert(image_.end(), c, c + bytes);
  }

  /// Writes magic, version, payload size and checksum into the staged
  /// header (the one XXH64 pass over the payload); spends the writer and
  /// returns the checksum.
  std::uint64_t finish();

  std::string path_;
  std::vector<char> image_; ///< header followed by the payload records
  bool spent_ = false;
};

class CheckpointReader
{
public:
  /// Loads the file and validates magic, version, size and checksum; throws
  /// CheckpointError on any mismatch (a corrupted checkpoint must be
  /// rejected before a single value of it reaches solver state).
  explicit CheckpointReader(const std::string &path);

  /// Parses an in-memory file image (as produced by CheckpointWriter::
  /// encode(), e.g. a buddy-replicated shard received over vmpi) with the
  /// same validation as the file constructor. @p label names the source in
  /// error messages.
  CheckpointReader(std::vector<char> image, const std::string &label);

  /// XXH64 checksum of the validated payload (matches what close() returned
  /// when the checkpoint was written; shard manifests compare against it).
  std::uint64_t checksum() const { return checksum_; }

  std::uint64_t read_u64()
  {
    expect_tag('u');
    std::uint64_t v;
    extract_raw(&v, sizeof(v));
    return v;
  }

  double read_double()
  {
    expect_tag('d');
    double v;
    extract_raw(&v, sizeof(v));
    return v;
  }

  template <typename Number>
  void read_vector(Vector<Number> &v)
  {
    expect_tag('v');
    std::uint8_t elem_size;
    std::uint64_t count;
    extract_raw(&elem_size, sizeof(elem_size));
    extract_raw(&count, sizeof(count));
    if (elem_size != sizeof(Number))
      throw CheckpointError("vector element size mismatch: file has " +
                            std::to_string(int(elem_size)) +
                            "-byte elements, reader expects " +
                            std::to_string(sizeof(Number)));
    // checked before sizing v: count * sizeof(Number) may not even fit in
    // a size_t
    if (count > bytes_left() / sizeof(Number))
      throw CheckpointError("vector record claims " + std::to_string(count) +
                            " elements at payload offset " +
                            std::to_string(pos_ - internal::header_bytes) +
                            ", but only " + std::to_string(bytes_left()) +
                            " payload bytes remain");
    v.reinit(count, true);
    extract_raw(v.data(), count * sizeof(Number));
  }

  /// Payload bytes not yet consumed.
  std::size_t bytes_left() const { return end_ - pos_; }

  /// True once every record has been consumed.
  bool exhausted() const { return pos_ == end_; }

private:
  void expect_tag(const char tag)
  {
    char t;
    extract_raw(&t, 1);
    if (t != tag)
      throw CheckpointError(std::string("record type mismatch: expected '") +
                            tag + "', found '" + t + "' at payload offset " +
                            std::to_string(pos_ - 1 - internal::header_bytes));
  }

  void extract_raw(void *data, const std::size_t bytes)
  {
    if (bytes > bytes_left())
      throw CheckpointError("truncated payload: need " +
                            std::to_string(bytes) + " bytes at offset " +
                            std::to_string(pos_ - internal::header_bytes) +
                            ", payload has " +
                            std::to_string(end_ - internal::header_bytes));
    if (bytes > 0) // an empty field may come with a null destination
      std::memcpy(data, image_.data() + pos_, bytes);
    pos_ += bytes;
  }

  /// Shared validation path for the file and in-memory constructors.
  void parse(const std::string &label);

  std::vector<char> image_; ///< the whole file; records are read in place
  std::size_t pos_ = 0;     ///< read position in image_
  std::size_t end_ = 0;     ///< end of the payload in image_
  std::uint64_t checksum_ = 0;
};

} // namespace dgflow::resilience
