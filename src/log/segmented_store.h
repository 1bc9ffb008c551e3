// Rotated-segment stable storage: the compactable external log.
//
// A FileStableStore grows one file forever, so the only way to reclaim
// space would be to rewrite it in place — unsafe under the log-before-ack
// contract. SegmentedStore keeps the same framing and group-commit
// semantics but rotates to a fresh file once the active segment exceeds
// `segment_bytes`. Sealed segments are immutable; checkpoint-gated
// compaction (src/durability) deletes a sealed segment only when every
// record in it lies below the newest durable checkpoint's covered offset —
// the gating invariant documented in docs/RECOVERY.md. Records carry
// global indices (append order across all segments); a segment file is
// named `<base>.<first_index>.seg` so a scan can reconstruct the index of
// every surviving record after any number of deletions.
//
// A legacy single-file `<base>.log` (written by FileStableStore before the
// durability subsystem existed) is adopted on open by renaming it to the
// index-0 segment; cold restarts across the format change keep working.
//
// Thread-safe: appends (gateway group commit), truncation (checkpoint
// manager) and size queries (gauge sweeps) race by design.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "log/stable_store.h"

namespace tart::log {

class SegmentedStore final : public StableSink {
 public:
  struct Options {
    /// Seal the active segment and rotate once it reaches this many bytes.
    std::uint64_t segment_bytes = 4ull << 20;
  };

  /// Opens (creating if needed) the segment set `<dir>/<base>.*.seg`. The
  /// highest-index segment becomes the active one; if its tail is torn
  /// (crash mid-write) the file is truncated back to the intact prefix so
  /// later appends stay scannable. Opening reads and checksums every
  /// segment once; `on_record`, when set, receives each intact record of
  /// that scan in global append order (the first has index
  /// first_retained_index()), so a caller that needs the log's contents
  /// does not read it a second time with scan_all().
  SegmentedStore(std::string dir, std::string base, Options options,
                 const RecordVisitor& on_record = nullptr);
  SegmentedStore(std::string dir, std::string base);

  bool append(const std::vector<std::byte>& record) override;
  bool append_batch(std::span<const std::vector<std::byte>> records) override;
  [[nodiscard]] std::uint64_t records_written() const override;
  [[nodiscard]] std::uint64_t flushes() const override;

  /// Every intact record across all surviving segments, in global append
  /// order. The first returned record has index first_retained_index().
  [[nodiscard]] std::vector<std::vector<std::byte>> scan_all() const;

  /// Deletes every sealed segment whose records all have index < `index`
  /// (the active segment is never deleted). Returns records reclaimed.
  std::uint64_t truncate_below(std::uint64_t index);

  /// Global index of the earliest record still on disk.
  [[nodiscard]] std::uint64_t first_retained_index() const;
  /// Global index the next appended record will get.
  [[nodiscard]] std::uint64_t next_index() const;
  [[nodiscard]] std::uint64_t segment_count() const;
  [[nodiscard]] std::uint64_t bytes_on_disk() const;
  [[nodiscard]] std::uint64_t segments_deleted() const;
  [[nodiscard]] std::uint64_t records_reclaimed() const;
  /// Bytes read from segment files so far, by the open-time scan and by
  /// every scan_all().
  [[nodiscard]] std::uint64_t bytes_read() const;

 private:
  struct Segment {
    std::uint64_t first_index = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    std::string path;
  };

  [[nodiscard]] std::string segment_path(std::uint64_t first_index) const;
  /// Seals the active segment and opens a fresh one. Requires mu_.
  void rotate_locked();
  void open_active_locked(std::uint64_t first_index);

  const std::string dir_;
  const std::string base_;
  const Options options_;

  mutable std::mutex mu_;
  std::vector<Segment> sealed_;
  Segment active_meta_;
  std::unique_ptr<FileStableStore> active_;

  std::uint64_t written_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t segments_deleted_ = 0;
  std::uint64_t records_reclaimed_ = 0;
  mutable std::uint64_t bytes_read_ = 0;
};

}  // namespace tart::log
