#ifndef SSJOIN_SERVE_SNAPSHOT_H_
#define SSJOIN_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "data/record_set.h"
#include "data/record_view.h"
#include "index/inverted_index.h"
#include "serve/memtable.h"
#include "util/mmap_file.h"

namespace ssjoin {

class Predicate;

/// One token-range shard's slice of ONE corpus segment: the segment
/// members whose routing token falls in the shard's range, under
/// part-local ids. The index is a complete CSR inverted index over just
/// these members, carved by InvertedIndex::PlanFromRecordsSubset, so a
/// shard probe walks one small index per segment instead of one big one.
struct SegmentShardPart {
  /// Segment-local positions of the part's members in the owning
  /// segment's records arena, strictly increasing. The index speaks
  /// PART-local ids (positions in this vector).
  std::vector<RecordId> member_ids;
  /// Global corpus ids of the members, parallel to member_ids (derived
  /// from the segment's global_ids table; stable, never reused).
  std::vector<RecordId> global_ids;
  /// Flat CSR index over the part members under part-local ids.
  InvertedIndex index;
  /// Part-local ids of members with norm below the predicate's
  /// ShortRecordNormBound (the edit-distance brute-force side pool).
  std::vector<RecordId> short_ids;
};

/// One immutable link of the serving tier's segment chain: a prepared
/// CSR record arena covering one compaction delta (or a merge of
/// several), its global-id table, and one SegmentShardPart per
/// token-range shard. Segments are built once, shared by shared_ptr
/// across every later snapshot, and never mutated — compaction APPENDS a
/// new segment instead of rewriting the corpus, which is what makes
/// steady-state compaction O(delta). Deletes are masked per snapshot
/// (ShardChainLink::dead), not carved out of the segment.
struct CorpusSegment {
  /// Durable identity: names the on-disk segment-<id>.sseg file and is
  /// unique across the lifetime of a service data directory.
  uint64_t id = 0;
  /// The prepared records (scores installed, texts retained). Shared so
  /// snapshots, SegmentedCorpus views and checkpoints alias it.
  std::shared_ptr<const RecordSet> records;  // never null
  /// Global corpus id per segment-local position, strictly increasing.
  /// Chain invariant: segments hold DISJOINT, increasing global-id
  /// ranges (a folded memtable's ids exceed every already-folded id, and
  /// merges only coalesce adjacent segments), so gid -> segment is a
  /// range binary search.
  std::vector<RecordId> global_ids;
  /// One part per token-range shard (size = the service's shard count).
  std::vector<SegmentShardPart> shards;
  /// Approximate in-memory bytes (arena + postings), computed at build
  /// time so stats never rescan the chain. For a mapped segment this
  /// counts only the heap-resident tables — the mapped body is page
  /// cache, accounted by mapped_bytes instead.
  uint64_t approx_bytes = 0;
  /// Non-null iff this segment serves from a mapped `.sseg` body (the
  /// out-of-core base tier): records/shard indexes are views into this
  /// mapping, and the residency-budget policy issues madvise hints
  /// through it. Segments built in memory (memtable folds before their
  /// first checkpoint, cosine, non-durable mode) leave it null.
  std::shared_ptr<const MappedFile> mapping;
  /// Size of the mapped file (0 when mapping is null).
  uint64_t mapped_bytes = 0;
};

/// One shard's view of one segment inside a published snapshot: the part
/// to probe, the offset that places its part-local ids into the shard's
/// chain-wide id space, and the copy-on-write mask of members deleted
/// since the segment was built (sorted part-local ids; null when none).
/// The segment links are the chain's immutable body; the shard's
/// MemtableHead is its last link, at offset ShardedBaseTier::num_entities.
struct ShardChainLink {
  std::shared_ptr<const CorpusSegment> segment;
  const SegmentShardPart* part = nullptr;  // &segment->shards[shard]
  RecordId id_offset = 0;
  std::shared_ptr<const std::vector<RecordId>> dead;  // may be null
};

/// One token-range shard's segment links: the ordered chain of
/// per-segment parts this shard probes as one id space (ProbeChain),
/// followed at probe time by the shard's MemtableHead. Immutable after
/// construction and shared across snapshots until a compaction folds a
/// dirty memtable or tombstone set, appends a segment, or merges the
/// chain.
struct ShardedBaseTier {
  std::vector<ShardChainLink> links;  // oldest segment first
  /// Total part members across the chain (masked-dead ones included —
  /// they still hold postings until a merge drops them physically). The
  /// memtable head's ids start here.
  size_t num_entities = 0;
  /// Minimum record norm over every link's index (+inf when empty); the
  /// probe floor bound T(r, I) of the chain. Masked-dead members may hold
  /// the minimum — a lower floor is always a valid bound.
  double min_norm = 0;
};

/// One shard's memtable as one snapshot sees it: the chain's head link.
/// The append-only MemtableShard is shared by every snapshot of its
/// generation; what a snapshot adds is the published prefix — the
/// visible record count and that prefix's minimum norm — plus the
/// shard's pending tombstones. Readers bound every posting list by
/// `visible`, so an Insert publishes by bumping one count, and they
/// filter tombstoned records (base members and memtable residents alike)
/// at probe time, so a Delete publishes by swapping one list.
struct MemtableHead {
  std::shared_ptr<const MemtableShard> memtable;  // never null
  RecordId visible = 0;
  double min_norm = std::numeric_limits<double>::infinity();
  /// Global ids tombstoned in this shard since its last compaction,
  /// sorted increasing; null when none. Compact() folds the chain-
  /// resident ones into the owning segments' dead masks and drops the
  /// memtable-resident ones with their records.
  std::shared_ptr<const std::vector<RecordId>> tombstones;

  /// The ProbePart source interface: token `t`'s visible postings.
  PostingListView list(TokenId t) const { return memtable->list(t, visible); }
};

/// One epoch's immutable view of the service corpus: the shared segment
/// chain, one per-shard chain view and one memtable head per token range,
/// and the epoch number. Readers copy the owning shared_ptr under the
/// service's snapshot mutex and then run entirely lock-free; writers
/// publish a NEW snapshot instead of ever mutating one — the memtables
/// they append to are shared, but only past every published visible
/// count — so a query keeps a consistent view for as long as it holds
/// the pointer, across any number of concurrent inserts and
/// compactions.
struct IndexSnapshot {
  /// The segment chain, oldest first; never empty (construction folds
  /// the initial corpus into segment 0, possibly zero-record).
  std::vector<std::shared_ptr<const CorpusSegment>> segments;
  std::vector<std::shared_ptr<const ShardedBaseTier>> base;  // per shard
  std::vector<MemtableHead> heads;                           // per shard
  uint64_t epoch = 0;
  /// Surviving (non-deleted) records visible to queries, base + memtable.
  size_t live_records = 0;
  /// Tombstones awaiting their fold into segment dead masks.
  size_t pending_tombstones = 0;

  size_t num_shards() const { return base.size(); }

  /// The statistics reference for PrepareIncremental staging. Corpus-
  /// statistics predicates (TF-IDF cosine) full-rebuild at every
  /// compaction, so their chain has exactly one segment and this IS the
  /// whole prepared corpus; every other predicate ignores the reference.
  const RecordSet& stats_reference() const {
    return *segments.front()->records;
  }

  /// Backing-arena records across the chain; >= live base records
  /// (masked-dead members linger in their segment until a merge).
  size_t base_size() const {
    size_t n = 0;
    for (const std::shared_ptr<const CorpusSegment>& s : segments) {
      n += s->records->size();
    }
    return n;
  }
  /// Memtable records awaiting compaction (tombstoned ones included —
  /// they still occupy memtable slots until folded away).
  size_t memtable_size() const {
    size_t n = 0;
    for (const MemtableHead& head : heads) n += head.visible;
    return n;
  }
  /// Records a query can answer with: live base + live memtable records.
  size_t size() const { return live_records; }
};

/// Writer-side bookkeeping for one chain entry: the shared segment, its
/// per-shard copy-on-write dead masks (sorted part-local ids; null when
/// clean) and the surviving-member count that drives the merge policy.
struct SegmentChainEntry {
  std::shared_ptr<const CorpusSegment> segment;
  std::vector<std::shared_ptr<const std::vector<RecordId>>> dead;  // per shard
  size_t live = 0;
};
using SegmentChain = std::vector<SegmentChainEntry>;

/// Carves the vocabulary into `num_shards` contiguous token ranges
/// balanced by the given per-token mass, returning the num_shards - 1
/// exclusive upper bounds. Tokens beyond the planning vocabulary fall
/// into the last shard. Empty for num_shards <= 1.
std::vector<TokenId> ComputeShardBounds(const std::vector<uint64_t>& mass,
                                        size_t num_shards);

/// Per-token routing mass of a record set: each record contributes its
/// token count at its routing token (see RouteToShard). Feeding this to
/// ComputeShardBounds balances the indexed posting volume across shards.
/// (Balancing on raw document frequencies would not: the routing token is
/// one specific token per record, so the bounds must weigh the mass where
/// records actually land.)
std::vector<uint64_t> RoutingMassHistogram(const RecordSet& records);

/// The routing rule: a record belongs to the shard whose token range
/// contains its LARGEST token (tokens are strictly increasing within a
/// record, so that is the last one). With frequency-ordered token ids the
/// maximum is a record's rarest token, which spreads records far more
/// evenly than the minimum — the min is almost always a stopword-like
/// token near id 0, which would funnel the whole corpus into one shard.
/// Empty records go to shard 0. Any deterministic key preserves
/// correctness; the choice only affects balance.
size_t RouteToShard(RecordView record, const std::vector<TokenId>& bounds);

/// Approximate in-memory bytes of a fully built segment: the record
/// arena, id tables and per-shard postings. Used by BuildCorpusSegment
/// and the checkpoint loader to fill CorpusSegment::approx_bytes.
uint64_t ComputeSegmentApproxBytes(const CorpusSegment& segment);

/// Builds one immutable segment over already-prepared `records`: routes
/// every record to its token-range shard and builds each shard's part
/// (extent-carved CSR index under part-local ids plus the short-record
/// pool). `global_ids` is the per-position corpus id table, strictly
/// increasing. Preparation is NOT run here — the service prepares
/// records before folding them, so corpus-statistics weights are
/// identical across shard counts AND across segmentations.
std::shared_ptr<const CorpusSegment> BuildCorpusSegment(
    uint64_t id, RecordSet records, std::vector<RecordId> global_ids,
    const std::vector<TokenId>& shard_bounds, size_t num_shards,
    double short_norm_bound);

/// Builds shard `shard`'s chain view over `chain`: one link per segment
/// (empty parts included — their probes are free and offsets stay
/// aligned), with chain-local id offsets assigned in chain order.
std::shared_ptr<const ShardedBaseTier> BuildShardChainView(
    const SegmentChain& chain, size_t shard);

}  // namespace ssjoin

#endif  // SSJOIN_SERVE_SNAPSHOT_H_
