#ifndef SSJOIN_SERVE_MEMTABLE_H_
#define SSJOIN_SERVE_MEMTABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "data/record_view.h"
#include "index/posting_list.h"

namespace ssjoin {

/// One token-range shard's memtable: the records inserted since the
/// shard's last compaction, scored and indexed online, one record at a
/// time — the build-and-probe of paper §3.2 — and probed as the head link
/// of the shard's segment chain. An Append costs O(the record), whatever
/// the memtable already holds; nothing is ever rebuilt.
///
/// One writer (the service's write-mutex holder) appends while any number
/// of readers probe, without locks. Published bytes never move: records,
/// texts and postings live in a per-generation arena, and a structure
/// that outgrows its block (a posting list, the record table, the token
/// directory) is copied into a block twice the size, which is then
/// published with one release store; the old block is retired, not freed,
/// so a reader still holding it reads a consistent prefix. Everything is
/// freed together when the last snapshot of this generation drops, after
/// the compaction that froze it into a segment.
///
/// Readers see a prefix: a published snapshot records the visible record
/// count, and every reader call takes it and never looks past it. Posting
/// lists are trimmed to local ids below it; a list's max score may cover
/// later appends too, which only loosens the merge bound. Deletes are not
/// applied here — the caller filters tombstoned records at probe time.
class MemtableShard {
 public:
  MemtableShard() = default;
  MemtableShard(const MemtableShard&) = delete;
  MemtableShard& operator=(const MemtableShard&) = delete;

  // ---- Writer side: the single writer only. ----

  /// Appends a prepared record (and its retained text, possibly empty)
  /// under the next local id and indexes it; `global_id` must exceed
  /// every earlier one. `is_short` adds it to the short-record pool.
  /// Returns the local id. Readers see it once the caller publishes a
  /// visible count above it.
  RecordId Append(RecordView record, std::string_view text,
                  RecordId global_id, bool is_short);

  /// Records appended so far.
  RecordId size() const { return size_; }
  /// Minimum norm over the appended records; +inf when empty.
  double min_norm() const { return min_norm_; }
  /// Local id of the record with corpus id `global_id`, or size() when it
  /// is not here.
  RecordId FindGlobal(RecordId global_id) const;

  // ---- Reader side: any thread, local ids below a published count. ----

  RecordView record(RecordId local) const {
    const Entry& e = entry(local);
    return RecordView(e.tokens, e.scores, e.size, e.norm, e.text_length);
  }
  std::string_view text(RecordId local) const {
    const Entry& e = entry(local);
    return std::string_view(e.text, e.text_size);
  }
  RecordId global_id(RecordId local) const { return entry(local).global_id; }

  /// Token `t`'s postings among local ids below `visible` (empty view when
  /// none). The max score covers at least those postings.
  PostingListView list(TokenId t, RecordId visible) const;

  /// The short-record pool among local ids below `visible`, as postings
  /// whose ids are the members' local ids.
  PostingListView short_ids(RecordId visible) const {
    return Bounded(shorts_.load(std::memory_order_acquire), visible);
  }

 private:
  struct Entry {
    const TokenId* tokens;
    const double* scores;
    const char* text;
    uint32_t size;
    uint32_t text_size;
    uint32_t text_length;
    RecordId global_id;
    double norm;
  };
  // Block headers; the payload follows the header in the same allocation.
  struct PostingBlock {
    std::atomic<uint32_t> size;
    uint32_t capacity;
    std::atomic<double> max_score;
    Posting* postings() { return reinterpret_cast<Posting*>(this + 1); }
    const Posting* postings() const {
      return reinterpret_cast<const Posting*>(this + 1);
    }
  };
  struct RecordBlock {
    uint64_t capacity;
    Entry* entries() { return reinterpret_cast<Entry*>(this + 1); }
    const Entry* entries() const {
      return reinterpret_cast<const Entry*>(this + 1);
    }
  };
  struct Directory {
    uint64_t capacity;
    std::atomic<PostingBlock*>* slots() {
      return reinterpret_cast<std::atomic<PostingBlock*>*>(this + 1);
    }
    const std::atomic<PostingBlock*>* slots() const {
      return reinterpret_cast<const std::atomic<PostingBlock*>*>(this + 1);
    }
  };

  const Entry& entry(RecordId local) const {
    return records_.load(std::memory_order_acquire)->entries()[local];
  }
  static PostingListView Bounded(const PostingBlock* block,
                                 RecordId visible);

  /// Bump allocation from the generation's arena (16-byte aligned).
  void* Allocate(size_t bytes);
  PostingBlock* NewPostingBlock(uint32_t capacity);
  /// Appends one posting to the list rooted at `slot`, growing its block
  /// when full; publishes the (possibly new) block through `slot`.
  void AppendPosting(std::atomic<PostingBlock*>* slot, RecordId id,
                     double score);
  /// The directory slot of token `t`, growing the directory to cover it.
  std::atomic<PostingBlock*>* SlotFor(TokenId t);

  std::atomic<RecordBlock*> records_{nullptr};
  std::atomic<Directory*> directory_{nullptr};
  std::atomic<PostingBlock*> shorts_{nullptr};

  // Writer-only state.
  RecordId size_ = 0;
  double min_norm_ = std::numeric_limits<double>::infinity();
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* chunk_next_ = nullptr;
  size_t chunk_left_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_MEMTABLE_H_
