// batch_join: the paper's own operation — a single-threaded in-process
// Probe-Cluster self-join (Section 3.4) under Jaccard over a
// duplicate-heavy citation corpus, with no serving or network layer.

#include <algorithm>
#include <unordered_set>

#include "core/jaccard_predicate.h"
#include "core/join.h"
#include "data/corpus_builder.h"
#include "inputs.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRecords = 50000;
constexpr size_t kCompletenessSample = 400;

using Pairs = std::vector<std::pair<ssjoin::RecordId, ssjoin::RecordId>>;

uint64_t PairKey(uint32_t a, uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Soundness: every emitted pair is distinct, ordered and reaches the
/// threshold when recomputed. Completeness: for a seeded sample of
/// records, every partner a full scan finds was emitted.
bool PairsAreCorrect(const Pairs& pairs, const std::vector<TokenSet>& sets,
                     uint64_t seed) {
  std::unordered_set<uint64_t> emitted;
  emitted.reserve(pairs.size() * 2);
  bool ok = true;
  for (const auto& [a, b] : pairs) {
    size_t overlap = 0;
    if (a >= b || b >= sets.size() || !emitted.insert(PairKey(a, b)).second ||
        !JaccardMatch(sets[a], sets[b], &overlap)) {
      ok = false;
    }
  }
  Rng rng = StreamFor(seed, 4);
  for (size_t s = 0; s < kCompletenessSample; ++s) {
    uint32_t probe = static_cast<uint32_t>(rng.Below(sets.size()));
    for (uint32_t other = 0; other < sets.size(); ++other) {
      size_t overlap = 0;
      if (other != probe && JaccardMatch(sets[probe], sets[other], &overlap) &&
          emitted.count(PairKey(probe, other)) == 0) {
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

ThreadBudget BatchJoinThreads() {
  ThreadBudget budget;
  budget.client_threads = 1;  // the join runs on the calling thread
  budget.pool_threads = 1;
  return budget;
}

RunResult RunBatchJoin(const RunConfig& config) {
  using namespace ssjoin;
  RunResult result;
  std::vector<std::string> texts;
  {
    CitationModel model;
    Rng rng = StreamFor(config.seed, 3);
    texts = GenerateCorpus(model, &rng, kRecords).texts;
  }

  // What the runner holds before the program is first called (the corpus
  // texts, the binaries); peak_rss_mb is the peak above it.
  const double baseline_mb = ResidentMb();
  JaccardPredicate pred(static_cast<double>(kThresholdNum) / kThresholdDen);
  JoinOptions options;
  options.num_threads = 1;
  // Each join starts from its own set-up: tokenizing the corpus into a
  // fresh RecordSet, timed as one setup_s sample, so the set-up samples
  // spread over the whole run. A traced join also times Prepare on a
  // copy of that RecordSet.
  std::vector<double> setup_s;
  std::vector<double> prepare_s;
  auto join = [&](bool traced, Pairs* pairs, JoinStats* stats) -> double {
    RecordSet records;
    {
      TokenDictionary dict;
      Clock::time_point start = Clock::now();
      records = BuildWordCorpus(texts, &dict);
      setup_s.push_back(SecondsSince(start));
    }
    if (traced) {
      RecordSet copy = records;
      Clock::time_point start = Clock::now();
      pred.Prepare(&copy);
      prepare_s.push_back(SecondsSince(start));
    }
    pairs->clear();
    Clock::time_point start = Clock::now();
    Result<JoinStats> joined =
        RunJoin(&records, pred, JoinAlgorithm::kProbeCluster, options,
                [pairs](RecordId a, RecordId b) { pairs->push_back({a, b}); });
    double seconds = SecondsSince(start);
    if (!joined.ok()) return -1;
    *stats = joined.value();
    return seconds;
  };

  // Warm-up join, untimed, checked against the oracle, whose token sets
  // live only for the check so that they stay out of the joins' peak
  // memory. Every timed join must emit the same pair set, so the warm-up
  // verdict carries over.
  Pairs reference;
  JoinStats stats;
  bool reference_ok = join(false, &reference, &stats) >= 0;
  if (reference_ok) {
    Oracle oracle;
    std::vector<TokenSet> sets;
    sets.reserve(texts.size());
    for (const std::string& text : texts) sets.push_back(oracle.Tokenize(text));
    reference_ok = PairsAreCorrect(reference, sets, config.seed);
  }
  std::sort(reference.begin(), reference.end());
  auto tally = [&](bool ok) {
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      result.correct = false;
    }
  };
  tally(reference_ok);

  // Timed joins; a traced run alternates untraced and traced joins.
  std::vector<double> join_s[2];
  double timed_s = 0;
  Pairs pairs;
  for (int j = 0; timed_s < config.seconds || (config.trace && j < 2); ++j) {
    int traced = config.trace && j % 2 == 1 ? 1 : 0;
    double seconds = join(traced, &pairs, &stats);
    std::sort(pairs.begin(), pairs.end());
    tally(seconds >= 0 && reference_ok && pairs == reference);
    if (seconds < 0) break;
    join_s[traced].push_back(seconds);
    timed_s += setup_s.back() + seconds;
  }

  double records_n = static_cast<double>(texts.size());
  if (!config.trace) {
    result.metrics.Set("setup_s", Median(setup_s), "s");
    result.metrics.Set("throughput_ops_s", records_n / Median(join_s[0]),
                       "1/s");
    result.metrics.Set("op_p50_us", Median(join_s[0]) * 1e6, "us");
    result.metrics.Set("op_p99_us", Quantile(join_s[0], 0.99) * 1e6, "us");
    result.metrics.Set("peak_rss_mb", PeakRssMb() - baseline_mb, "MB");
    return result;
  }
  result.metrics.Set("text.corpus_build_s", Median(setup_s), "s");
  result.metrics.Set("data.prepare_s", Median(prepare_s), "s");
  result.metrics.Set("core.join_algorithm_s",
                     Median(join_s[1]) - Median(prepare_s), "s");
  result.metrics.Set("core.candidates_verified",
                     static_cast<double>(stats.candidates_verified), "count");
  result.metrics.Set(
      "core.verify_yield",
      static_cast<double>(stats.pairs) /
          static_cast<double>(std::max<uint64_t>(1, stats.candidates_verified)),
      "ratio");
  result.metrics.Set("core.heap_pops",
                     static_cast<double>(stats.merge.heap_pops), "count");
  result.metrics.Set("core.gallop_probes",
                     static_cast<double>(stats.merge.gallop_probes), "count");
  result.metrics.Set("index.postings_peak",
                     static_cast<double>(stats.index_postings), "count");
  result.metrics.Set("trace.overhead_pct",
                     TraceOverheadPct(records_n / Median(join_s[0]),
                                      records_n / Median(join_s[1])),
                     "%");
  return result;
}

}  // namespace perfbench
