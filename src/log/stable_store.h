// Append-only file-backed stable storage.
//
// The paper gives two durability options for external input (§II.C/§II.E):
// a passive replica on another machine (ReplicaStore / in-memory logs) or
// "a stable storage device for holding checkpoints". This is the stable
// storage device: length-and-checksum framed records appended to a file,
// synced on every append, and scanned back on recovery. A torn final
// record (crash mid-write) is detected by the checksum and dropped —
// everything before it is intact.
//
// Durability granularity is the *flush*, not the record: append() writes
// and fsyncs one record; append_batch() frames N records into one write
// and one fsync — the group-commit primitive the HTTP ingress gateway
// uses so durability does not cost one fsync per request. A crash during
// a batched write tears at a record boundary exactly like a single
// append: scan() recovers the intact prefix of the batch.
//
// ExternalMessageLog and DeterminismFaultLog can attach a store for
// write-through persistence and be reloaded from one after a process
// restart.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace tart::log {

/// Receives one intact record of a scan as a view into the scan's buffer;
/// the view is valid only during the call.
using RecordVisitor = std::function<void(std::span<const std::byte>)>;

/// Anything a log can write through to for durability. FileStableStore is
/// the single-file implementation; SegmentedStore (segmented_store.h)
/// rotates across files so checkpoint-gated compaction can reclaim whole
/// prefixes by deleting sealed segments.
class StableSink {
 public:
  virtual ~StableSink() = default;
  virtual bool append(const std::vector<std::byte>& record) = 0;
  virtual bool append_batch(
      std::span<const std::vector<std::byte>> records) = 0;
  [[nodiscard]] virtual std::uint64_t records_written() const = 0;
  [[nodiscard]] virtual std::uint64_t flushes() const = 0;
};

class FileStableStore final : public StableSink {
 public:
  /// Opens (creating if absent) the store for appending.
  explicit FileStableStore(std::string path);
  ~FileStableStore();

  FileStableStore(const FileStableStore&) = delete;
  FileStableStore& operator=(const FileStableStore&) = delete;

  /// Appends one record durably (framed + checksummed + fsynced). Returns
  /// false on I/O failure.
  bool append(const std::vector<std::byte>& record) override;

  /// Appends N records with ONE write and ONE fsync: the records become
  /// durable together, for the cost of a single flush. Returns false on
  /// I/O failure (no record of the batch should then be trusted durable,
  /// though an intact prefix may still survive a scan). The store is
  /// fail-stop: after a failed write or fsync every later append returns
  /// false. An empty batch is a no-op that succeeds without flushing.
  bool append_batch(std::span<const std::vector<std::byte>> records) override;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_written() const override {
    return written_.load(std::memory_order_relaxed);
  }
  /// Durability flushes issued (fsync calls): one per append(), one per
  /// non-empty append_batch(). records_written / flushes is the achieved
  /// group-commit factor.
  [[nodiscard]] std::uint64_t flushes() const override {
    return flushes_.load(std::memory_order_relaxed);
  }

  /// Reads every intact record from a store file, stopping at the first
  /// torn or corrupted frame. Missing file yields an empty list. When
  /// `intact_bytes` is non-null it receives the byte length of the intact
  /// prefix, so a writer reopening the file can truncate a torn tail
  /// before appending past it.
  [[nodiscard]] static std::vector<std::vector<std::byte>> scan(
      const std::string& path, std::uint64_t* intact_bytes = nullptr);

  struct ScanResult {
    std::uint64_t records = 0;       ///< intact records visited
    std::uint64_t intact_bytes = 0;  ///< length of the intact prefix
    std::uint64_t bytes_read = 0;    ///< bytes read from the file
  };

  /// The scan under scan(): reads the whole file with one read into a
  /// buffer, checksums each frame in place and hands every intact record to
  /// `on_record` as a view into that buffer, valid only during the call.
  /// A frame whose size runs past the end of the file ends the scan like a
  /// torn one; nothing is allocated from a size read off the disk.
  static ScanResult visit(const std::string& path,
                          const RecordVisitor& on_record);

 private:
  std::string path_;
  int fd_ = -1;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

}  // namespace tart::log
