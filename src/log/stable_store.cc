#include "log/stable_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <memory>

#include "serde/archive.h"

namespace tart::log {

namespace {
constexpr std::uint32_t kMagic = 0x54A27106;  // frame marker
constexpr std::size_t kFrameHeaderBytes = 16;  // magic + size + checksum

void frame_record(serde::Writer& out, const std::vector<std::byte>& record) {
  out.write_u32(kMagic);
  out.write_u32(static_cast<std::uint32_t>(record.size()));
  out.write_u64(serde::fingerprint(record));
  out.write_raw(record.data(), record.size());
}

bool write_all(int fd, const std::vector<std::byte>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

FileStableStore::FileStableStore(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
}

FileStableStore::~FileStableStore() {
  if (fd_ >= 0) ::close(fd_);
}

bool FileStableStore::append(const std::vector<std::byte>& record) {
  return append_batch({&record, 1});
}

bool FileStableStore::append_batch(
    std::span<const std::vector<std::byte>> records) {
  if (fd_ < 0) return false;
  if (records.empty()) return true;
  serde::Writer buf;
  for (const auto& record : records) frame_record(buf, record);
  // One durability point for the whole batch — this is the group commit.
  if (!write_all(fd_, buf.bytes()) || ::fsync(fd_) != 0) {
    // Fail-stop: a torn frame may now sit at the tail, and scan() stops
    // there, so anything appended after it would be acked yet unreadable
    // on restart. fsync errors are not retryable either (the kernel may
    // already have dropped the dirty pages). Refuse every later append.
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  written_.fetch_add(records.size(), std::memory_order_relaxed);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<std::vector<std::byte>> FileStableStore::scan(
    const std::string& path, std::uint64_t* intact_bytes) {
  std::vector<std::vector<std::byte>> records;
  const ScanResult result =
      visit(path, [&records](std::span<const std::byte> record) {
        records.emplace_back(record.begin(), record.end());
      });
  if (intact_bytes != nullptr) *intact_bytes = result.intact_bytes;
  return records;
}

FileStableStore::ScanResult FileStableStore::visit(
    const std::string& path, const RecordVisitor& on_record) {
  ScanResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return result;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return result;
  }
  // Left uninitialised: the walk below reads only bytes read() filled.
  const auto capacity = static_cast<std::size_t>(st.st_size);
  const auto buf = std::make_unique_for_overwrite<std::byte[]>(capacity);
  std::size_t size = 0;
  while (size < capacity) {
    const ssize_t n = ::read(fd, buf.get() + size, capacity - size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF (a file shrunk since fstat) or a read error
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  result.bytes_read = size;

  std::size_t off = 0;
  while (size - off >= kFrameHeaderBytes) {
    serde::Reader header(buf.get() + off, kFrameHeaderBytes);
    if (header.read_u32() != kMagic) break;  // corrupted frame marker
    const std::uint32_t length = header.read_u32();
    const std::uint64_t checksum = header.read_u64();
    const std::size_t body = off + kFrameHeaderBytes;
    if (length > size - body) break;  // torn, or a corrupt size field
    const std::span<const std::byte> record(buf.get() + body, length);
    if (serde::fingerprint(record) != checksum) break;  // corrupted
    on_record(record);
    ++result.records;
    off = body + length;
  }
  result.intact_bytes = off;
  return result;
}

}  // namespace tart::log
