#include "serve/memtable.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "util/logging.h"

namespace ssjoin {

namespace {

constexpr uint32_t kFirstListCapacity = 2;
constexpr uint64_t kFirstRecordCapacity = 16;
constexpr uint64_t kFirstDirectoryCapacity = 64;
constexpr size_t kFirstChunkBytes = size_t{4} << 10;
constexpr size_t kMaxChunkBytes = size_t{256} << 10;

}  // namespace

void* MemtableShard::Allocate(size_t bytes) {
  bytes = (bytes + 15) & ~size_t{15};
  if (bytes > chunk_left_) {
    // Chunks double up to a cap, so a small memtable stays small; a block
    // bigger than the cap gets a chunk of its own. The tail of the old
    // chunk is abandoned.
    size_t chunk = kFirstChunkBytes << std::min<size_t>(chunks_.size(), 6);
    chunk = std::max(std::min(chunk, kMaxChunkBytes), bytes);
    chunks_.emplace_back(new char[chunk]);
    chunk_next_ = chunks_.back().get();
    chunk_left_ = chunk;
  }
  void* out = chunk_next_;
  chunk_next_ += bytes;
  chunk_left_ -= bytes;
  return out;
}

MemtableShard::PostingBlock* MemtableShard::NewPostingBlock(uint32_t capacity) {
  void* memory = Allocate(sizeof(PostingBlock) + capacity * sizeof(Posting));
  PostingBlock* block = new (memory) PostingBlock;
  block->size.store(0, std::memory_order_relaxed);
  block->capacity = capacity;
  block->max_score.store(0.0, std::memory_order_relaxed);
  return block;
}

void MemtableShard::AppendPosting(std::atomic<PostingBlock*>* slot,
                                  RecordId id, double score) {
  PostingBlock* block = slot->load(std::memory_order_relaxed);
  const uint32_t n =
      block == nullptr ? 0 : block->size.load(std::memory_order_relaxed);
  if (block != nullptr && n < block->capacity) {
    // In place: the slot past the published size is invisible until the
    // release store of the new size.
    new (&block->postings()[n]) Posting{id, score};
    if (score > block->max_score.load(std::memory_order_relaxed)) {
      block->max_score.store(score, std::memory_order_relaxed);
    }
    block->size.store(n + 1, std::memory_order_release);
    return;
  }
  // Full (or absent): copy into a block twice the size and publish it.
  // The old block stays as it is for readers that already hold it.
  PostingBlock* bigger =
      NewPostingBlock(block == nullptr ? kFirstListCapacity
                                       : block->capacity * 2);
  double max_score = score;
  if (block != nullptr) {
    std::memcpy(static_cast<void*>(bigger->postings()), block->postings(),
                n * sizeof(Posting));
    max_score = std::max(
        max_score, block->max_score.load(std::memory_order_relaxed));
  }
  new (&bigger->postings()[n]) Posting{id, score};
  bigger->max_score.store(max_score, std::memory_order_relaxed);
  bigger->size.store(n + 1, std::memory_order_relaxed);
  slot->store(bigger, std::memory_order_release);
}

std::atomic<MemtableShard::PostingBlock*>* MemtableShard::SlotFor(TokenId t) {
  Directory* dir = directory_.load(std::memory_order_relaxed);
  if (dir == nullptr || t >= dir->capacity) {
    const uint64_t old_capacity = dir == nullptr ? 0 : dir->capacity;
    uint64_t capacity =
        dir == nullptr ? kFirstDirectoryCapacity : dir->capacity;
    while (capacity <= t) capacity *= 2;
    void* memory = Allocate(sizeof(Directory) +
                            capacity * sizeof(std::atomic<PostingBlock*>));
    Directory* bigger = new (memory) Directory{capacity};
    for (uint64_t i = 0; i < capacity; ++i) {
      PostingBlock* head =
          i < old_capacity ? dir->slots()[i].load(std::memory_order_relaxed)
                           : nullptr;
      new (&bigger->slots()[i]) std::atomic<PostingBlock*>(head);
    }
    directory_.store(bigger, std::memory_order_release);
    dir = bigger;
  }
  return &dir->slots()[t];
}

RecordId MemtableShard::Append(RecordView record, std::string_view text,
                               RecordId global_id, bool is_short) {
  SSJOIN_DCHECK(size_ == 0 || global_id > this->global_id(size_ - 1));
  const RecordId local = size_;
  const size_t n = record.size();
  TokenId* tokens = static_cast<TokenId*>(Allocate(n * sizeof(TokenId)));
  double* scores = static_cast<double*>(Allocate(n * sizeof(double)));
  std::copy(record.tokens().begin(), record.tokens().end(), tokens);
  std::copy(record.scores().begin(), record.scores().end(), scores);
  char* text_bytes = nullptr;
  if (!text.empty()) {
    text_bytes = static_cast<char*>(Allocate(text.size()));
    std::memcpy(text_bytes, text.data(), text.size());
  }

  RecordBlock* table = records_.load(std::memory_order_relaxed);
  const bool grow = table == nullptr || local == table->capacity;
  if (grow) {
    const uint64_t capacity =
        table == nullptr ? kFirstRecordCapacity : table->capacity * 2;
    RecordBlock* bigger = new (Allocate(
        sizeof(RecordBlock) + capacity * sizeof(Entry))) RecordBlock{capacity};
    if (table != nullptr) {
      std::memcpy(static_cast<void*>(bigger->entries()), table->entries(),
                  local * sizeof(Entry));
    }
    table = bigger;
  }
  new (&table->entries()[local])
      Entry{tokens,
            scores,
            text_bytes,
            static_cast<uint32_t>(n),
            static_cast<uint32_t>(text.size()),
            record.text_length(),
            global_id,
            record.norm()};
  if (grow) records_.store(table, std::memory_order_release);

  for (size_t i = 0; i < n; ++i) {
    AppendPosting(SlotFor(record.token(i)), local, record.score(i));
  }
  if (is_short) AppendPosting(&shorts_, local, 0.0);
  min_norm_ = std::min(min_norm_, record.norm());
  ++size_;
  return local;
}

RecordId MemtableShard::FindGlobal(RecordId global_id) const {
  if (size_ == 0) return size_;
  const Entry* begin = records_.load(std::memory_order_relaxed)->entries();
  const Entry* end = begin + size_;
  const Entry* it = std::lower_bound(
      begin, end, global_id,
      [](const Entry& e, RecordId id) { return e.global_id < id; });
  return it != end && it->global_id == global_id
             ? static_cast<RecordId>(it - begin)
             : size_;
}

PostingListView MemtableShard::list(TokenId t, RecordId visible) const {
  const Directory* dir = directory_.load(std::memory_order_acquire);
  if (dir == nullptr || t >= dir->capacity) return PostingListView();
  return Bounded(dir->slots()[t].load(std::memory_order_acquire), visible);
}

PostingListView MemtableShard::Bounded(const PostingBlock* block,
                                       RecordId visible) {
  if (block == nullptr) return PostingListView();
  const Posting* postings = block->postings();
  size_t n = block->size.load(std::memory_order_acquire);
  // Postings arrive in local-id order; drop the ones the writer appended
  // after this reader's snapshot was published.
  if (n > 0 && postings[n - 1].id >= visible) {
    n = static_cast<size_t>(
        std::lower_bound(postings, postings + n, visible,
                         [](const Posting& p, RecordId id) {
                           return p.id < id;
                         }) -
        postings);
  }
  if (n == 0) return PostingListView();
  return PostingListView(postings, n,
                         block->max_score.load(std::memory_order_relaxed));
}

}  // namespace ssjoin
