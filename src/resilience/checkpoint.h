#pragma once

// Versioned, checksummed binary checkpoint files for exact-resume restarts.
//
// File layout (little-endian, host byte order — checkpoints restart the run
// on the machine class that wrote them):
//
//   8 bytes   magic "DGFLOWCK"
//   u32       format version (currently 1)
//   u32       reserved (0)
//   u64       payload size in bytes
//   u64       FNV-1a 64 checksum of the payload
//   payload   sequence of tagged records
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
// The writer stages the payload in memory and publishes the file durably and
// atomically through the resilience/ckpt_io.h shim (write "<path>.tmp",
// fsync, rename, fsync the parent directory), so neither a crash
// mid-checkpoint nor a power loss right after publish can leave a torn file
// where a restart would look for a good one. Routing through the shim also
// makes every checkpoint byte reachable by the DGFLOW_FAULT_IO_* fault
// injection.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

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
inline std::uint64_t fnv1a64(const char *data, const std::size_t n)
{
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i)
  {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr char magic[8] = {'D', 'G', 'F', 'L', 'O', 'W', 'C', 'K'};
constexpr std::uint32_t format_version = 1;
} // namespace internal

class CheckpointWriter
{
public:
  explicit CheckpointWriter(std::string path) : path_(std::move(path)) {}

  ~CheckpointWriter()
  {
    // close() is the committing operation; an abandoned writer (exception
    // unwound past it) must not publish a partial checkpoint
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

  /// Checksums the payload and durably + atomically publishes the file via
  /// the CkptIo shim. Returns the payload checksum (shard manifests record
  /// it for integrity checks).
  std::uint64_t close();

  /// Disables the fsyncs on publish (benchmark baselines measuring the raw
  /// write path; production checkpoints stay durable).
  void set_durable(const bool durable) { durable_ = durable; }

  /// Serializes the complete file image (header + checksum + payload) into
  /// memory without touching disk — the form a shard takes when replicated
  /// to its buddy rank over vmpi. Does not mark the writer closed.
  std::vector<char> encode() const;

private:
  void append_tag(const char tag) { payload_.push_back(tag); }

  void append_raw(const void *data, const std::size_t bytes)
  {
    const char *c = static_cast<const char *>(data);
    payload_.insert(payload_.end(), c, c + bytes);
  }

  std::string path_;
  std::vector<char> payload_;
  bool closed_ = false;
  bool durable_ = true;
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
  CheckpointReader(const std::vector<char> &image, const std::string &label);

  /// FNV-1a checksum of the validated payload (matches what close() returned
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
    v.reinit(count, true);
    extract_raw(v.data(), count * sizeof(Number));
  }

  /// True once every record has been consumed.
  bool exhausted() const { return pos_ == payload_.size(); }

private:
  void expect_tag(const char tag)
  {
    char t;
    extract_raw(&t, 1);
    if (t != tag)
      throw CheckpointError(std::string("record type mismatch: expected '") +
                            tag + "', found '" + t +
                            "' at payload offset " + std::to_string(pos_ - 1));
  }

  void extract_raw(void *data, const std::size_t bytes)
  {
    if (pos_ + bytes > payload_.size())
      throw CheckpointError("truncated payload: need " +
                            std::to_string(bytes) + " bytes at offset " +
                            std::to_string(pos_) + ", payload has " +
                            std::to_string(payload_.size()));
    if (bytes > 0) // an empty field may come with a null destination
      std::memcpy(data, payload_.data() + pos_, bytes);
    pos_ += bytes;
  }

  /// Shared validation path for the file and in-memory constructors.
  void parse(const char *image, std::size_t bytes, const std::string &label);

  std::vector<char> payload_;
  std::size_t pos_ = 0;
  std::uint64_t checksum_ = 0;
};

} // namespace dgflow::resilience
