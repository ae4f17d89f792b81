// ingest_mixed: one caller drives an in-process durable SimilarityService
// (data dir, WalSyncPolicy::kNever) with a seeded write-heavy mix — 50%
// inserts, 10% deletes of ids it inserted earlier, 40% queries. The
// default memtable limit makes compactions, segment merges and
// checkpoints recur within each round; each round ends by reopening the
// data dir with SimilarityService::Open.

#include <sys/stat.h>

#include <filesystem>
#include <memory>

#include "core/jaccard_predicate.h"
#include "data/corpus_builder.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/similarity_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBaseRecords = 12000;
constexpr size_t kOpsPerRound = 4800;
constexpr size_t kCheckEvery = 4;      // warm-up: brute-force every 4th query
constexpr size_t kReopenQueries = 40;  // answers compared across Open

enum class OpKind { kInsert, kDelete, kQuery };

struct Op {
  OpKind kind;
  uint32_t arg;  // insert: text index; delete: record id; query: query index
};

struct Inputs {
  std::vector<std::string> base;
  std::vector<std::string> inserts;
  std::vector<std::string> queries;
  std::vector<Op> ops;
  std::vector<TokenSet> sets;  // by record id: base, then inserts in order
  std::vector<TokenSet> query_sets;
  uint64_t insert_bytes = 0;
};

Inputs MakeInputs(uint64_t seed) {
  CitationModel model;
  Rng rng = StreamFor(seed, 5);
  CitationCorpus corpus = GenerateCorpus(model, &rng, kBaseRecords);
  Inputs in;
  in.base = corpus.texts;
  std::vector<Paper> papers = corpus.papers;
  std::vector<uint32_t> paper_of = corpus.paper_of;  // by record id
  std::vector<bool> live(kBaseRecords, true);
  std::vector<uint32_t> live_inserted;

  Rng op_rng = StreamFor(seed, 6);
  for (size_t i = 0; i < kOpsPerRound; ++i) {
    double roll = op_rng.Real();
    if (roll < 0.10 && !live_inserted.empty()) {
      size_t pick = op_rng.Below(live_inserted.size());
      uint32_t id = live_inserted[pick];
      live_inserted[pick] = live_inserted.back();
      live_inserted.pop_back();
      live[id] = false;
      in.ops.push_back({OpKind::kDelete, id});
    } else if (roll < 0.60) {
      // A re-citation of a known paper, or a citation of a new one.
      uint32_t paper;
      if (op_rng.Chance(0.7)) {
        paper = static_cast<uint32_t>(op_rng.Below(papers.size()));
      } else {
        paper = static_cast<uint32_t>(papers.size());
        papers.push_back(model.NewPaper(&op_rng));
      }
      uint32_t id = static_cast<uint32_t>(live.size());
      in.ops.push_back(
          {OpKind::kInsert, static_cast<uint32_t>(in.inserts.size())});
      in.inserts.push_back(model.Render(papers[paper], &op_rng, 0.03));
      in.insert_bytes += in.inserts.back().size();
      live.push_back(true);
      live_inserted.push_back(id);
      paper_of.push_back(paper);
    } else {
      // A near-duplicate of some live record.
      uint32_t id;
      do {
        id = static_cast<uint32_t>(op_rng.Below(live.size()));
      } while (!live[id]);
      in.ops.push_back(
          {OpKind::kQuery, static_cast<uint32_t>(in.queries.size())});
      in.queries.push_back(model.Render(papers[paper_of[id]], &op_rng, 0.03));
    }
  }
  Oracle oracle;
  for (const std::string& text : in.base) in.sets.push_back(oracle.Tokenize(text));
  for (const std::string& text : in.inserts) {
    in.sets.push_back(oracle.Tokenize(text));
  }
  for (const std::string& text : in.queries) {
    in.query_sets.push_back(oracle.Tokenize(text));
  }
  return in;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// The warm-up round's query answers and their verdicts. Later rounds
/// replay the same schedule from the same state, so each must repeat
/// these answers exactly, and inherits their verdicts.
struct QueryReference {
  bool filled = false;
  std::vector<std::vector<ssjoin::QueryMatch>> answers;
  std::vector<bool> verdict;
};

/// What one round measured.
struct Round {
  double setup_s = 0;
  double reopen_s = 0;
  std::vector<double> op_us;
  double op_s = 0;
  // The schedule's ops, then the checks of the final state: size() before
  // closing, the reopen, size() after it and each reopened answer.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Read from the service and the data dir at the end of the round.
  double compactions = 0, segments_merged = 0, segments = 0;
  double candidates = 0, results = 0, point_queries = 0;
  uint64_t written = 0, data_dir_bytes = 0, segment_files = 0;
};

Round RunRound(const Inputs& in, const std::string& dir,
               QueryReference* reference, Trace* trace) {
  using namespace ssjoin;
  Round round;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  JaccardPredicate pred(static_cast<double>(kThresholdNum) / kThresholdDen);
  ServiceOptions options;
  options.num_threads = 1;
  options.data_dir = dir;
  options.wal_sync = WalSyncPolicy::kNever;

  if (trace->enabled()) {
    // Layer costs of the set-up, each on its own pass.
    TokenDictionary scratch_dict;
    RecordSet scratch = Timed(trace, "corpus_build", [&] {
      return BuildWordCorpus(in.base, &scratch_dict);
    });
    Timed(trace, "prepare", [&] {
      pred.Prepare(&scratch);
      return 0;
    });
  }
  TokenDictionary dict;
  Clock::time_point start = Clock::now();
  RecordSet corpus = BuildWordCorpus(in.base, &dict);
  Clock::time_point built = Clock::now();
  auto service =
      std::make_unique<SimilarityService>(std::move(corpus), pred, options);
  round.setup_s = SecondsSince(start);
  trace->AddSample("build", MicrosSince(built));

  std::vector<bool> live(in.sets.size(), false);
  std::fill(live.begin(), live.begin() + kBaseRecords, true);
  ServiceStats stats_before = service->stats();
  uint64_t written_before = WrittenChars();
  const std::string wal_path = dir + "/wal.log";
  size_t inserted = 0;
  const bool warm_up = !reference->filled;
  if (warm_up) {
    reference->answers.resize(in.queries.size());
    reference->verdict.assign(in.queries.size(), true);
  }
  auto tokenize = [&](const std::string& text) {
    return Timed(trace, "tokenize", [&] {
      return BuildWordCorpus(std::vector<std::string>{text}, &dict);
    });
  };
  for (const Op& op : in.ops) {
    uint64_t compactions_before = 0, wal_before = 0;
    if (trace->enabled()) {
      compactions_before = service->stats().compactions;
      wal_before = FileSize(wal_path);
    }
    bool ok = true;
    std::vector<QueryMatch> matches;
    Clock::time_point op_start = Clock::now();
    switch (op.kind) {
      case OpKind::kInsert: {
        RecordSet staged = tokenize(in.inserts[op.arg]);
        RecordId id = Timed(trace, "insert", [&] {
          return service->Insert(staged.record(0), staged.text(0));
        });
        ok = id == kBaseRecords + inserted;
        break;
      }
      case OpKind::kDelete:
        ok = Timed(trace, "delete", [&] { return service->Delete(op.arg); });
        break;
      case OpKind::kQuery: {
        RecordSet staged = tokenize(in.queries[op.arg]);
        matches = Timed(trace, "query", [&] {
          return service->Query(staged.record(0), staged.text(0));
        });
        break;
      }
    }
    double micros = MicrosSince(op_start);
    round.op_us.push_back(micros);
    round.op_s += micros / 1e6;

    // Bookkeeping and checks, outside the op's time.
    if (trace->enabled()) {
      bool compacted = service->stats().compactions > compactions_before;
      if (compacted) trace->AddSample("compacting_op", micros);
      uint64_t wal_after = FileSize(wal_path);
      if (!compacted && op.kind != OpKind::kQuery && wal_after >= wal_before) {
        trace->AddSample("wal_bytes", static_cast<double>(wal_after -
                                                          wal_before));
      }
    }
    if (op.kind == OpKind::kInsert) live[kBaseRecords + inserted++] = true;
    if (op.kind == OpKind::kDelete) live[op.arg] = false;
    if (op.kind == OpKind::kQuery && warm_up) {
      if (op.arg % kCheckEvery == 0) {
        reference->verdict[op.arg] = MatchesOracle(
            matches,
            BruteForceMatches(in.query_sets[op.arg], in.sets, live));
      }
      reference->answers[op.arg] = std::move(matches);
      ok = reference->verdict[op.arg];
    } else if (op.kind == OpKind::kQuery) {
      ok = reference->verdict[op.arg] &&
           SameAnswers(matches, reference->answers[op.arg]);
    }
    ++round.attempted;
    if (!ok) ++round.failed;
  }
  reference->filled = true;
  round.written = WrittenChars() - written_before;
  ServiceStats stats_after = service->stats();
  round.compactions =
      static_cast<double>(stats_after.compactions - stats_before.compactions);
  round.segments_merged = static_cast<double>(stats_after.segments_merged -
                                              stats_before.segments_merged);
  round.segments = static_cast<double>(stats_after.segments);
  round.candidates =
      static_cast<double>(stats_after.candidates - stats_before.candidates);
  round.results =
      static_cast<double>(stats_after.results - stats_before.results);
  round.point_queries = static_cast<double>(stats_after.point_queries -
                                            stats_before.point_queries);
  round.data_dir_bytes = DirBytes(dir);
  round.segment_files = CountFilesWithSuffix(dir, ".sseg");

  // The final state must survive a reopen: same size, same answers.
  auto check = [&round](bool ok) {
    ++round.attempted;
    if (!ok) ++round.failed;
  };
  size_t live_count = 0;
  for (bool alive : live) live_count += alive ? 1 : 0;
  check(service->size() == live_count);
  size_t first_query = in.queries.size() > kReopenQueries
                           ? in.queries.size() - kReopenQueries
                           : 0;
  std::vector<RecordSet> probes;
  std::vector<std::vector<QueryMatch>> before_close;
  for (size_t q = first_query; q < in.queries.size(); ++q) {
    probes.push_back(BuildWordCorpus(std::vector<std::string>{in.queries[q]},
                                     &dict));
    before_close.push_back(
        service->Query(probes.back().record(0), probes.back().text(0)));
  }
  service.reset();
  start = Clock::now();
  Result<std::unique_ptr<SimilarityService>> reopened =
      SimilarityService::Open(pred, options);
  round.reopen_s = SecondsSince(start);
  check(reopened.ok());
  if (!reopened.ok()) {
    std::fprintf(stderr, "ingest_mixed: reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    // The size and answer checks of the reopened service fail with it.
    for (size_t p = 0; p <= probes.size(); ++p) check(false);
    return round;
  }
  const SimilarityService& restored = *reopened.value();
  check(restored.size() == live_count);
  for (size_t p = 0; p < probes.size(); ++p) {
    check(SameAnswers(before_close[p], restored.Query(probes[p].record(0),
                                                      probes[p].text(0))));
  }
  return round;
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

}  // namespace

ThreadBudget IngestMixedThreads() {
  ThreadBudget budget;
  budget.client_threads = 1;
  budget.pool_threads = 1;
  return budget;
}

RunResult RunIngestMixed(const RunConfig& config) {
  RunResult result;
  Inputs in = MakeInputs(config.seed);
  // What the runner holds before the program is first called (the inputs,
  // the oracle's token sets, the binaries); peak_rss_mb is the peak above
  // it.
  const double baseline_mb = ResidentMb();
  const std::string dir = config.work_dir + "/ingest_data";
  Trace untraced(false);
  Trace traced(config.trace);

  auto tally = [&](const Round& round) {
    result.attempted += round.attempted;
    result.failed += round.failed;
    if (round.failed > 0) result.correct = false;
  };
  // One untimed warm-up round (checked like the rest), then whole rounds
  // until `seconds` of measured time (set-up, ops and reopen); a traced
  // run alternates untraced and traced rounds. Every round starts from a
  // fresh data dir.
  QueryReference reference;
  tally(RunRound(in, dir, &reference, &untraced));
  std::vector<Round> rounds[2];
  double timed_s = 0;
  for (int r = 0; timed_s < config.seconds || (config.trace && r < 2); ++r) {
    int is_traced = config.trace && r % 2 == 1 ? 1 : 0;
    Round round =
        RunRound(in, dir, &reference, is_traced ? &traced : &untraced);
    timed_s += round.setup_s + round.op_s + round.reopen_s;
    tally(round);
    rounds[is_traced].push_back(std::move(round));
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  auto samples = [&](const std::vector<Round>& rs) {
    RoundSamples out(in.ops.size());
    for (const Round& round : rs) {
      for (size_t i = 0; i < round.op_us.size(); ++i) {
        out.Add(i, round.op_us[i]);
      }
      out.EndRound();
    }
    return out;
  };
  RoundSamples untraced_ops = samples(rounds[0]);
  if (!config.trace) {
    std::vector<double> setup_s;
    for (const Round& round : rounds[0]) setup_s.push_back(round.setup_s);
    result.metrics.Set("setup_s", Median(setup_s), "s");
    result.metrics.Set("throughput_ops_s", untraced_ops.Throughput(), "1/s");
    result.metrics.Set("op_p50_us", untraced_ops.OpQuantile(0.50), "us");
    result.metrics.Set("op_p99_us", untraced_ops.OpQuantile(0.99), "us");
    result.metrics.Set("peak_rss_mb", PeakRssMb() - baseline_mb, "MB");
    return result;
  }

  std::vector<double> reopen_s;
  for (const auto& rs : rounds) {
    for (const Round& round : rs) reopen_s.push_back(round.reopen_s);
  }
  const Round& last = rounds[1].back();  // counts repeat in every round
  result.metrics.Set("text.tokenize_p50_us",
                     traced.SampleQuantile("tokenize", 0.5), "us");
  result.metrics.Set("text.corpus_build_s",
                     traced.SampleQuantile("corpus_build", 0.5) / 1e6, "s");
  result.metrics.Set("data.prepare_s",
                     traced.SampleQuantile("prepare", 0.5) / 1e6, "s");
  result.metrics.Set("serve.build_s",
                     traced.SampleQuantile("build", 0.5) / 1e6, "s");
  result.metrics.Set("serve.query_p50_us",
                     traced.SampleQuantile("query", 0.5), "us");
  result.metrics.Set("serve.query_p99_us",
                     traced.SampleQuantile("query", 0.99), "us");
  result.metrics.Set("serve.chain_segments", last.segments, "count");
  result.metrics.Set("serve.candidates_per_query",
                     last.candidates / std::max(1.0, last.point_queries),
                     "count");
  result.metrics.Set("serve.results_per_candidate",
                     last.results / std::max(1.0, last.candidates), "ratio");
  result.metrics.Set("serve.insert_p50_us",
                     traced.SampleQuantile("insert", 0.5), "us");
  result.metrics.Set("serve.insert_p99_us",
                     traced.SampleQuantile("insert", 0.99), "us");
  result.metrics.Set("serve.delete_p50_us",
                     traced.SampleQuantile("delete", 0.5), "us");
  result.metrics.Set("serve.compactions", last.compactions, "count");
  result.metrics.Set("serve.compacting_op_p50_us",
                     traced.SampleQuantile("compacting_op", 0.5), "us");
  result.metrics.Set("serve.segments_merged", last.segments_merged, "count");
  result.metrics.Set("serve.reopen_s", Median(reopen_s), "s");
  result.metrics.Set("storage.bytes_written_per_user_byte",
                     static_cast<double>(last.written) /
                         static_cast<double>(std::max<uint64_t>(
                             1, in.insert_bytes)),
                     "ratio");
  result.metrics.Set("storage.wal_bytes_per_write",
                     Sum(traced.Samples("wal_bytes")) /
                         std::max<double>(1, traced.Samples("wal_bytes").size()),
                     "bytes");
  result.metrics.Set("storage.segment_files",
                     static_cast<double>(last.segment_files), "count");
  result.metrics.Set("storage.data_dir_mb",
                     static_cast<double>(last.data_dir_bytes) / (1 << 20),
                     "MB");
  result.metrics.Set("trace.overhead_pct",
                     TraceOverheadPct(untraced_ops.Throughput(),
                                      samples(rounds[1]).Throughput()),
                     "%");
  return result;
}

}  // namespace perfbench
