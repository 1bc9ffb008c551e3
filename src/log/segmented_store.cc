#include "log/segmented_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"

namespace tart::log {

namespace {

/// On-disk frame overhead per record (magic + size + fingerprint).
constexpr std::uint64_t kFrameHeaderBytes = 16;

std::uint64_t framed_size(std::span<const std::vector<std::byte>> records) {
  std::uint64_t n = 0;
  for (const auto& r : records) n += kFrameHeaderBytes + r.size();
  return n;
}

}  // namespace

SegmentedStore::SegmentedStore(std::string dir, std::string base)
    : SegmentedStore(std::move(dir), std::move(base), Options()) {}

SegmentedStore::SegmentedStore(std::string dir, std::string base,
                               Options options,
                               const RecordVisitor& on_record)
    : dir_(std::move(dir)), base_(std::move(base)), options_(options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);

  // Adopt a legacy single-file log as the index-0 segment.
  const std::string legacy = dir_ + "/" + base_ + ".log";
  if (fs::exists(legacy, ec)) {
    bool have_segments = false;
    const std::string prefix = base_ + ".";
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".seg") == 0) {
        have_segments = true;
        break;
      }
    }
    if (!have_segments) {
      std::rename(legacy.c_str(), segment_path(0).c_str());
    }
  }

  // Discover surviving segments, sorted by first index.
  std::vector<std::uint64_t> firsts;
  const std::string prefix = base_ + ".";
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + 4 ||
        name.compare(name.size() - 4, 4, ".seg") != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    firsts.push_back(std::stoull(digits));
  }
  std::sort(firsts.begin(), firsts.end());

  const std::lock_guard<std::mutex> lk(mu_);
  const RecordVisitor skip = [](std::span<const std::byte>) {};
  for (const std::uint64_t first : firsts) {
    Segment seg;
    seg.first_index = first;
    seg.path = segment_path(first);
    const auto scanned =
        FileStableStore::visit(seg.path, on_record ? on_record : skip);
    seg.records = scanned.records;
    seg.bytes = scanned.intact_bytes;
    bytes_read_ += scanned.bytes_read;
    sealed_.push_back(seg);
  }

  if (sealed_.empty()) {
    open_active_locked(0);
    return;
  }
  // The highest segment is the writable one. A torn tail (crash mid-write)
  // is cut off so frames appended by this incarnation remain reachable by
  // scan (which stops at the first bad frame).
  active_meta_ = sealed_.back();
  sealed_.pop_back();
  struct stat st{};
  if (::stat(active_meta_.path.c_str(), &st) == 0 &&
      static_cast<std::uint64_t>(st.st_size) != active_meta_.bytes) {
    TART_ERROR << "segmented store: truncating torn tail of "
               << active_meta_.path << " (" << st.st_size << " -> "
               << active_meta_.bytes << " bytes)";
    if (::truncate(active_meta_.path.c_str(), static_cast<off_t>(
                       active_meta_.bytes)) != 0) {
      TART_ERROR << "segmented store: truncate failed: " << errno;
    }
  }
  active_ = std::make_unique<FileStableStore>(active_meta_.path);
}

std::string SegmentedStore::segment_path(std::uint64_t first_index) const {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(first_index));
  return dir_ + "/" + base_ + "." + digits + ".seg";
}

void SegmentedStore::open_active_locked(std::uint64_t first_index) {
  active_meta_ = Segment{};
  active_meta_.first_index = first_index;
  active_meta_.path = segment_path(first_index);
  active_ = std::make_unique<FileStableStore>(active_meta_.path);
}

void SegmentedStore::rotate_locked() {
  active_.reset();  // closes the fd; the segment is now sealed
  const std::uint64_t next = active_meta_.first_index + active_meta_.records;
  sealed_.push_back(active_meta_);
  open_active_locked(next);
}

bool SegmentedStore::append(const std::vector<std::byte>& record) {
  return append_batch({&record, 1});
}

bool SegmentedStore::append_batch(
    std::span<const std::vector<std::byte>> records) {
  if (records.empty()) return true;
  const std::lock_guard<std::mutex> lk(mu_);
  // Rotation happens between batches only: one batch = one durability
  // point = one segment, so a torn batch tears inside a single file.
  if (active_meta_.records > 0 && active_meta_.bytes >= options_.segment_bytes)
    rotate_locked();
  if (!active_->append_batch(records)) return false;
  active_meta_.records += records.size();
  active_meta_.bytes += framed_size(records);
  written_ += records.size();
  ++flushes_;
  return true;
}

std::uint64_t SegmentedStore::records_written() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

std::uint64_t SegmentedStore::flushes() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return flushes_;
}

std::vector<std::vector<std::byte>> SegmentedStore::scan_all() const {
  std::vector<std::string> paths;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    paths.reserve(sealed_.size() + 1);
    for (const Segment& seg : sealed_) paths.push_back(seg.path);
    paths.push_back(active_meta_.path);
  }
  std::vector<std::vector<std::byte>> out;
  std::uint64_t bytes = 0;
  for (const std::string& path : paths) {
    bytes += FileStableStore::visit(path, [&out](std::span<const std::byte> r) {
               out.emplace_back(r.begin(), r.end());
             }).bytes_read;
  }
  const std::lock_guard<std::mutex> lk(mu_);
  bytes_read_ += bytes;
  return out;
}

std::uint64_t SegmentedStore::truncate_below(std::uint64_t index) {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t reclaimed = 0;
  auto it = sealed_.begin();
  while (it != sealed_.end() && it->first_index + it->records <= index) {
    if (::unlink(it->path.c_str()) != 0 && errno != ENOENT) {
      TART_ERROR << "segmented store: unlink " << it->path
                 << " failed: " << errno;
      break;  // keep the segment; retry at the next checkpoint
    }
    reclaimed += it->records;
    ++segments_deleted_;
    it = sealed_.erase(it);
  }
  records_reclaimed_ += reclaimed;
  return reclaimed;
}

std::uint64_t SegmentedStore::first_retained_index() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sealed_.empty() ? active_meta_.first_index
                         : sealed_.front().first_index;
}

std::uint64_t SegmentedStore::next_index() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return active_meta_.first_index + active_meta_.records;
}

std::uint64_t SegmentedStore::segment_count() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sealed_.size() + 1;
}

std::uint64_t SegmentedStore::bytes_on_disk() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = active_meta_.bytes;
  for (const Segment& seg : sealed_) n += seg.bytes;
  return n;
}

std::uint64_t SegmentedStore::segments_deleted() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return segments_deleted_;
}

std::uint64_t SegmentedStore::records_reclaimed() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return records_reclaimed_;
}

std::uint64_t SegmentedStore::bytes_read() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return bytes_read_;
}

}  // namespace tart::log
