#include "core/probe_join.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/probe_common.h"
#include "data/token_bitmap.h"
#include "util/function_ref.h"
#include "util/logging.h"

namespace ssjoin {

using probe_internal::BuildStopwordPlan;
using probe_internal::ProbeOne;
using probe_internal::ProbeScratch;
using probe_internal::ReducedThreshold;
using probe_internal::StopwordPlan;

Result<JoinStats> ProbeJoin(const RecordSet& records, const Predicate& pred,
                            const ProbeJoinOptions& options,
                            const PairSink& sink) {
  JoinStats stats;
  const size_t n = records.size();

  std::vector<RecordId> order;
  if (options.presort) {
    order = records.IdsByDecreasingNorm();
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }

  StopwordPlan stop_plan;
  if (options.stopwords) {
    std::optional<double> constant = pred.ConstantThreshold();
    if (!constant.has_value()) {
      return Status::InvalidArgument(
          "Probe-stopWords requires a constant-threshold predicate; '" +
          pred.name() + "' has a pair-dependent threshold");
    }
    stop_plan = BuildStopwordPlan(records, *constant);
  }
  const std::vector<bool>* skip =
      options.stopwords ? &stop_plan.is_stop : nullptr;

  // The index is keyed by processing position so posting ids stay strictly
  // increasing under any processing order; `order` maps back to RecordIds.
  // Every record is inserted exactly once in both two-pass and online
  // mode, so the corpus document frequencies bound each token's extent.
  InvertedIndex index;
  index.PlanFromRecords(records);

  if (!options.online) {
    for (uint32_t pos = 0; pos < n; ++pos) {
      index.Insert(pos, records.record(order[pos]), skip);
    }
  }

  auto verify_and_emit = [&](RecordId a, RecordId b) {
    ++stats.candidates_verified;
    if (pred.Matches(records, a, b)) {
      ++stats.pairs;
      sink(std::min(a, b), std::max(a, b));
    }
  };

  MergeOptions merge_options;
  merge_options.split_lists = options.optimized_merge;
  merge_options.apply_filter = options.apply_filter;

  // Emit-level bitmap gate, stopword mode only: there the merger holds
  // candidates to the REDUCED threshold while verification runs the full
  // constant threshold, so the bitmap bound gets a cut at the gap. Each
  // common token contributes at most probe-score times corpus-max-score,
  // so ub * probe_pair_max bounds the pair's exact overlap; below the
  // full threshold, Matches() must fail, and the verification is skipped
  // without changing the emitted pairs. (The non-stopword paths need no
  // gate: their merger already holds candidates to the exact per-pair
  // threshold.) Entries are indexed by processing position, like the
  // index, and built only when the gate is armed.
  const bool emit_gated = options.bitmap_filter && options.stopwords &&
                          pred.supports_bitmap_pruning();
  std::vector<TokenBitmapEntry> bitmaps;
  if (emit_gated) {
    bitmaps.reserve(n);
    for (uint32_t pos = 0; pos < n; ++pos) {
      bitmaps.push_back(BuildTokenBitmap(records.record(order[pos])));
    }
  }

  // Probe-loop scratch, allocated once and reused: no per-record heap
  // allocations inside the loop.
  ProbeScratch scratch;

  for (uint32_t pos = 0; pos < n; ++pos) {
    RecordId probe_id = order[pos];
    const RecordView probe = records.record(probe_id);
    double probe_pair_max = 0;
    if (emit_gated) {
      for (size_t i = 0; i < probe.size(); ++i) {
        probe_pair_max =
            std::max(probe_pair_max,
                     probe.score(i) * stop_plan.max_score[probe.token(i)]);
      }
    }
    auto emit_gate_prunes = [&](uint32_t m) {
      const TokenBitmapEntry& a = bitmaps[pos];
      const TokenBitmapEntry& b = bitmaps[m];
      ++stats.merge.bitmap_checked;
      const uint32_t ub = TokenBitmapOverlapBound(
          a.bits, static_cast<uint32_t>(a.tokens), b.bits,
          static_cast<uint32_t>(b.tokens), kTokenBitmapWords);
      if (static_cast<double>(ub) * probe_pair_max <
          PruneBound(stop_plan.threshold)) {
        ++stats.merge.bitmap_pruned;
        return true;
      }
      return false;
    };

    if (index.num_entities() > 0) {
      double floor;
      auto required_fn = [&](RecordId m) {
        return pred.ThresholdForNorms(probe.norm(),
                                      records.record(order[m]).norm());
      };
      FunctionRef<double(RecordId)> required;
      if (options.stopwords) {
        double reduced = ReducedThreshold(probe, stop_plan);
        if (reduced <= 0) {
          // Degenerate probe: its own stopwords could carry the whole
          // threshold, so every indexed record is a candidate.
          uint32_t limit = options.online ? pos : static_cast<uint32_t>(n);
          for (uint32_t m = 0; m < limit; ++m) {
            if (!options.online && m >= pos) break;
            if (emit_gated && emit_gate_prunes(m)) continue;
            verify_and_emit(order[m], probe_id);
          }
          if (options.online) index.Insert(pos, probe, skip);
          continue;
        }
        floor = reduced;
      } else {
        floor = pred.ThresholdForNorms(probe.norm(), index.min_norm());
        required = required_fn;
      }
      auto filter_fn = [&](RecordId m) {
        return pred.NormFilter(probe.norm(),
                               records.record(order[m]).norm());
      };
      FunctionRef<bool(RecordId)> filter;
      if (options.apply_filter && pred.has_norm_filter()) {
        filter = filter_fn;
      }
      ProbeOne(
          index, probe, floor, required, filter, merge_options, &stats.merge,
          &scratch,
          [&](const MergeCandidate& candidate) {
            if (!options.online && candidate.id >= pos) {
              // Two-pass mode indexes every record: skip self matches
              // and emit each unordered pair from its later endpoint
              // only.
              return;
            }
            if (emit_gated && emit_gate_prunes(candidate.id)) return;
            verify_and_emit(order[candidate.id], probe_id);
          });
    }

    if (options.online) index.Insert(pos, probe, skip);
  }

  stats.index_postings = index.total_postings();
  return stats;
}

}  // namespace ssjoin
