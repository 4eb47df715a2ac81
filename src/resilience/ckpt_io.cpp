#include "resilience/ckpt_io.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "instrumentation/profiler.h"

namespace dgflow::resilience
{
namespace
{
std::string parent_directory(const std::string &path)
{
  const std::string parent =
    std::filesystem::path(path).parent_path().string();
  return parent.empty() ? std::string(".") : parent;
}

/// RAII fd: the error paths below throw, and a leaked descriptor per failed
/// checkpoint would exhaust the table over a long faulty run.
class Fd
{
public:
  explicit Fd(const int fd) : fd_(fd) {}
  ~Fd()
  {
    if (fd_ >= 0)
      ::close(fd_);
  }
  Fd(const Fd &) = delete;
  Fd &operator=(const Fd &) = delete;
  int get() const { return fd_; }
  /// Closes eagerly (before rename) and reports failure.
  bool close_now()
  {
    const int r = ::close(fd_);
    fd_ = -1;
    return r == 0;
  }

private:
  int fd_;
};

void sleep_seconds(const double s)
{
  if (s > 0.)
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}
} // namespace

CkptIo &CkptIo::instance()
{
  static CkptIo io;
  return io;
}

CkptIo::Stats CkptIo::stats() const
{
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void CkptIo::reset_stats()
{
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = Stats();
}

unsigned long long CkptIo::next_seq(const std::string &path)
{
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_[path]++;
}

void CkptIo::write_file_atomic(const std::string &path, const char *data,
                               const std::size_t bytes)
{
  IoWriteFault fault;
  if (IoFaultHandler *handler = fault_handler())
    fault = handler->on_ckpt_write(path, bytes, next_seq(path));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writes;
    if (fault.enospc || fault.short_write_at >= 0 ||
        fault.torn_write_at >= 0 || fault.stall_seconds > 0.)
      ++stats_.injected_faults;
  }
  sleep_seconds(fault.stall_seconds);
  if (fault.enospc)
    throw CkptIoError("cannot write '" + path +
                      "': no space left on device (ENOSPC)");

  // how much actually reaches the platter: everything, or an injected prefix
  std::size_t persist = bytes;
  bool lying_disk = false;
  if (fault.torn_write_at >= 0)
  {
    persist = std::min<std::size_t>(bytes, std::size_t(fault.torn_write_at));
    lying_disk = true; // prefix persisted, success reported: the torn write
  }
  else if (fault.short_write_at >= 0)
    persist = std::min<std::size_t>(bytes, std::size_t(fault.short_write_at));

  const std::string tmp = path + ".tmp";
  Fd fd(::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644));
  if (fd.get() < 0)
    throw CkptIoError("cannot open '" + tmp +
                      "' for writing: " + std::strerror(errno));
  std::size_t written = 0;
  while (written < persist)
  {
    const ::ssize_t n =
      ::write(fd.get(), data + written, persist - written);
    if (n < 0)
    {
      if (errno == EINTR)
        continue;
      throw CkptIoError("write to '" + tmp +
                        "' failed: " + std::strerror(errno));
    }
    written += std::size_t(n);
  }
  if (!lying_disk && persist < bytes)
    // the injected (or real) short write: report it; the truncated tmp file
    // stays behind under its .tmp name — startup GC prunes it, and the
    // published name was never touched
    throw CkptIoError("short write to '" + tmp + "': " +
                      std::to_string(persist) + " of " +
                      std::to_string(bytes) + " bytes persisted");
  if (::fsync(fd.get()) != 0)
    throw CkptIoError("fsync of '" + tmp +
                      "' failed: " + std::strerror(errno));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.file_fsyncs;
  }
  if (!fd.close_now())
    throw CkptIoError("close of '" + tmp +
                      "' failed: " + std::strerror(errno));
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw CkptIoError("cannot publish '" + tmp + "' as '" + path +
                      "': " + std::strerror(errno));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.renames;
  }
  // the rename is only durable once the parent directory's entry list is:
  // without this fsync a power loss can roll the directory back to a state
  // where neither the tmp nor the published name exists
  fsync_directory(parent_directory(path));
  DGFLOW_PROF_COUNT("ckpt_io_bytes_written", static_cast<long long>(written));
}

std::vector<char> CkptIo::read_file(const std::string &path)
{
  IoReadFault fault;
  if (IoFaultHandler *handler = fault_handler())
    fault = handler->on_ckpt_read(path, next_seq(path));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.reads;
    if (fault.eio || fault.stall_seconds > 0.)
      ++stats_.injected_faults;
  }
  sleep_seconds(fault.stall_seconds);
  if (fault.eio)
    throw CkptIoError("cannot read '" + path + "': I/O error (EIO)");

  Fd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0)
    throw CkptIoError("cannot open '" + path + "'");
  std::vector<char> bytes;
  char buffer[1 << 16];
  while (true)
  {
    const ::ssize_t n = ::read(fd.get(), buffer, sizeof(buffer));
    if (n < 0)
    {
      if (errno == EINTR)
        continue;
      throw CkptIoError("read of '" + path +
                        "' failed: " + std::strerror(errno));
    }
    if (n == 0)
      break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  DGFLOW_PROF_COUNT("ckpt_io_bytes_read",
                    static_cast<long long>(bytes.size()));
  return bytes;
}

void CkptIo::rename(const std::string &from, const std::string &to)
{
  if (::rename(from.c_str(), to.c_str()) != 0)
    throw CkptIoError("cannot rename '" + from + "' to '" + to +
                      "': " + std::strerror(errno));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.renames;
  }
  fsync_directory(parent_directory(to));
}

void CkptIo::create_directories(const std::string &dir)
{
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw CkptIoError("cannot create directory '" + dir +
                      "': " + ec.message());
}

void CkptIo::fsync_directory(const std::string &dir)
{
  Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() < 0)
    throw CkptIoError("cannot open directory '" + dir +
                      "' for fsync: " + std::strerror(errno));
  if (::fsync(fd.get()) != 0)
    throw CkptIoError("fsync of directory '" + dir +
                      "' failed: " + std::strerror(errno));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.dir_fsyncs;
}

bool CkptIo::exists(const std::string &path) const
{
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

std::uint64_t CkptIo::remove_all(const std::string &path)
{
  std::error_code ec;
  const auto n = std::filesystem::remove_all(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::vector<std::string>
CkptIo::list_directory(const std::string &dir) const
{
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  if (ec)
    return names;
  for (; it != end; it.increment(ec))
  {
    if (ec)
      break;
    names.push_back(it->path().filename().string());
  }
  return names;
}

} // namespace dgflow::resilience
