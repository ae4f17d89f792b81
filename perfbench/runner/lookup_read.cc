// lookup_read: ssjoin_server (memory-only, Jaccard over words) answers
// near-duplicate citation lookups from one closed-loop client at pipeline
// depth 1. Set-up grows the served corpus over the wire into a segment
// chain; the timed phase sends only queries.

#include <fstream>
#include <memory>
#include <unordered_set>

#include "core/jaccard_predicate.h"
#include "data/corpus_builder.h"
#include "inputs.h"
#include "oracle.h"
#include "serve/protocol.h"
#include "serve/similarity_service.h"
#include "wire_client.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kBaseRecords = 24000;   // the server's --corpus file
constexpr size_t kGrowthRecords = 1200;  // inserted over the wire
constexpr size_t kQueries = 3000;        // one round
constexpr size_t kCheckEvery = 10;       // brute-force every 10th query
constexpr int kShards = 4;
constexpr int kMemtableLimit = 256;

struct Inputs {
  std::vector<std::string> base;
  std::vector<std::string> growth;
  std::vector<std::string> queries;
  std::vector<TokenSet> corpus_sets;  // base then growth, by record id
  std::vector<TokenSet> query_sets;
};

Inputs MakeInputs(uint64_t seed) {
  CitationModel model;
  Rng rng = StreamFor(seed, 1);
  CitationCorpus corpus =
      GenerateCorpus(model, &rng, kBaseRecords + kGrowthRecords);
  Inputs in;
  in.base.assign(corpus.texts.begin(), corpus.texts.begin() + kBaseRecords);
  in.growth.assign(corpus.texts.begin() + kBaseRecords, corpus.texts.end());
  std::unordered_set<std::string> seen;
  for (const std::string& text : corpus.texts) {
    for (std::string& word : Words(text)) seen.insert(std::move(word));
  }
  // Held-out near-duplicates of cited papers, each with one or two
  // misspelled title words the corpus never contained.
  Rng query_rng = StreamFor(seed, 2);
  for (size_t q = 0; q < kQueries; ++q) {
    size_t record = query_rng.Below(corpus.texts.size());
    const Paper& paper = corpus.papers[corpus.paper_of[record]];
    int typos = 1 + static_cast<int>(query_rng.Below(2));
    in.queries.push_back(
        model.RenderWithUnseenTypos(paper, &query_rng, typos, seen));
  }
  Oracle oracle;
  for (const std::string& text : corpus.texts) {
    in.corpus_sets.push_back(oracle.Tokenize(text));
  }
  for (const std::string& text : in.queries) {
    in.query_sets.push_back(oracle.Tokenize(text));
  }
  return in;
}

std::vector<std::string> ServerArgs(const std::string& corpus_path) {
  return {"--corpus=" + corpus_path,
          "--predicate=jaccard",
          std::string("--threshold=") + kThresholdText,
          "--tokens=words",
          "--threads=1",
          "--net-threads=1",
          "--shards=" + std::to_string(kShards),
          "--memtable-limit=" + std::to_string(kMemtableLimit),
          "--port=0"};
}

/// A started server with its corpus grown over the wire.
struct LiveServer {
  std::unique_ptr<ServerProcess> process;
  std::unique_ptr<WireClient> client;
};

bool StartAndGrow(const RunConfig& config, const Inputs& in,
                  const std::string& corpus_path, LiveServer* server,
                  std::string* error) {
  server->process = std::make_unique<ServerProcess>();
  if (!server->process->Start(config.server_path, ServerArgs(corpus_path),
                              config.work_dir + "/server.log", error)) {
    return false;
  }
  server->client = std::make_unique<WireClient>();
  if (!server->client->Connect(server->process->port(), error)) return false;
  bool ok = false;
  std::string payload;
  for (size_t g = 0; g < in.growth.size(); ++g) {
    std::string expected = "inserted " + std::to_string(kBaseRecords + g);
    if (!server->client->Call("+ " + in.growth[g], &ok, &payload) || !ok ||
        payload.rfind(expected, 0) != 0) {
      *error = "insert " + std::to_string(g) + " answered: " + payload;
      return false;
    }
  }
  if (!server->client->Call("! compact", &ok, &payload) || !ok) {
    *error = "compact answered: " + payload;
    return false;
  }
  return true;
}

/// Answer properties every query must have, plus an exact comparison with
/// the brute-force scan when `expected` is given.
bool AnswerIsCorrect(const std::string& payload,
                     const std::vector<ExpectedMatch>* expected) {
  std::vector<ssjoin::QueryMatch> matches;
  if (!ParseMatches(payload, &matches)) return false;
  for (size_t i = 1; i < matches.size(); ++i) {
    if (matches[i].id <= matches[i - 1].id) return false;
  }
  return expected == nullptr || MatchesOracle(matches, *expected);
}

struct WireCounters {
  double point_queries = 0, candidates = 0, results = 0, heap_pops = 0,
         gallop_probes = 0, bitmap_checked = 0, bitmap_pruned = 0,
         segments = 0;
};

bool ReadStats(WireClient* client, WireCounters* out) {
  bool ok = false;
  std::string json;
  if (!client->Call("? stats", &ok, &json) || !ok) return false;
  out->point_queries = JsonNumber(json, "point_queries");
  out->candidates = JsonNumber(json, "candidates");
  out->results = JsonNumber(json, "results");
  out->heap_pops = JsonNumber(json, "heap_pops");
  out->gallop_probes = JsonNumber(json, "gallop_probes");
  out->bitmap_checked = JsonNumber(json, "candidates_bitmap_checked");
  out->bitmap_pruned = JsonNumber(json, "candidates_bitmap_pruned");
  out->segments = JsonNumber(json, "segments");
  return true;
}

/// The traced run's in-process replica of the server's state: same
/// corpus, same wire-grown chain, same options, driven through
/// ParseRequest and ServiceDispatcher::Execute with the query stream.
struct Replica {
  ssjoin::TokenDictionary dict;
  ssjoin::JaccardPredicate pred{static_cast<double>(kThresholdNum) /
                                kThresholdDen};
  std::unique_ptr<ssjoin::SimilarityService> service;
  std::unique_ptr<ssjoin::ServiceDispatcher> dispatcher;
};

/// Builds the replica, timing its set-up layers, then replays one pass of
/// the read-only queries: they should leave the dictionary alone, and
/// must answer exactly as the server did. Each comparison counts as one
/// operation.
std::unique_ptr<Replica> BuildReplica(const Inputs& in,
                                      const std::vector<std::string>& answers,
                                      RunResult* result, Trace* trace) {
  using namespace ssjoin;
  auto replica = std::make_unique<Replica>();
  RecordSet corpus = Timed(trace, "corpus_build", [&] {
    return BuildWordCorpus(in.base, &replica->dict);
  });
  RecordSet copy = corpus;
  Timed(trace, "prepare", [&] {
    replica->pred.Prepare(&copy);
    return 0;
  });

  ServiceOptions options;
  options.num_threads = 1;
  options.num_shards = kShards;
  options.memtable_limit = kMemtableLimit;
  replica->service = Timed(trace, "build", [&] {
    return std::make_unique<SimilarityService>(std::move(corpus),
                                               replica->pred, options);
  });
  TokenDictionary* dict = &replica->dict;
  replica->dispatcher = std::make_unique<ServiceDispatcher>(
      replica->service.get(), [dict](const std::vector<std::string>& lines) {
        return BuildWordCorpus(lines, dict);
      });
  for (const std::string& text : in.growth) {
    replica->dispatcher->Execute(ParseRequest("+ " + text));
  }
  replica->dispatcher->Execute(ParseRequest("! compact"));

  size_t dict_before = dict->size();
  for (size_t q = 0; q < in.queries.size(); ++q) {
    Response response =
        replica->dispatcher->Execute(ParseRequest(in.queries[q]));
    ++result->attempted;
    if (!response.ok || response.payload != answers[q]) {
      std::fprintf(stderr, "in-process replica disagrees on query %zu\n", q);
      ++result->failed;
      result->correct = false;
    }
  }
  trace->AddSample("dict_growth",
                   static_cast<double>(dict->size() - dict_before));
  return replica;
}

/// Runs one query through each layer of the replica on its own.
void TraceLayers(Replica* replica, const std::string& line, size_t q,
                 RoundSamples* execute, Trace* trace) {
  using namespace ssjoin;
  Request request = Timed(trace, "parse", [&] { return ParseRequest(line); });
  Clock::time_point start = Clock::now();
  replica->dispatcher->Execute(request);
  double execute_us = MicrosSince(start);
  execute->Add(q, execute_us);
  trace->AddSample("execute", execute_us);
  RecordSet staged = Timed(trace, "tokenize", [&] {
    return BuildWordCorpus(std::vector<std::string>{line}, &replica->dict);
  });
  Timed(trace, "query", [&] {
    return replica->service->Query(staged.record(0), staged.text(0));
  });
}

}  // namespace

ThreadBudget LookupReadThreads() {
  ThreadBudget budget;
  budget.client_threads = 1;
  budget.server_net_threads = 1;
  budget.server_acceptor_threads = 1;
  budget.pool_threads = 1;
  return budget;
}

RunResult RunLookupRead(const RunConfig& config) {
  RunResult result;
  Trace trace(config.trace);
  Inputs in = MakeInputs(config.seed);
  std::string corpus_path = config.work_dir + "/lookup_corpus.txt";
  {
    std::ofstream out(corpus_path, std::ios::trunc);
    for (const std::string& text : in.base) out << text << '\n';
    std::ofstream log(config.work_dir + "/server.log", std::ios::trunc);
  }

  // Every round runs on a server of its own: its set-up (server start to
  // handshake plus the chain growth) is one setup_s sample, so the samples
  // spread over the whole run. A round's operations are the set-up, the
  // kQueries queries and a stop that must exit cleanly; after a transport
  // failure the rest of the round fails and the run ends.
  //
  // The first round is the warm-up, untimed: every answer is checked for
  // increasing ids, every kCheckEvery-th against the brute-force scan. A
  // query's verdict holds for each later round, whose answers must repeat
  // the warm-up's byte for byte. A traced run alternates untraced and
  // traced rounds; it reads the service counters over the wire around each
  // traced round and follows it, outside the timed window, with an
  // in-process replica of the server's state whose layer calls are timed
  // one by one.
  std::vector<std::string> answers(kQueries);
  std::vector<bool> verdict(kQueries, false);
  std::vector<double> setup_s;
  std::vector<double> server_rss_mb;
  RoundSamples execute(kQueries);
  RoundSamples rtt[2] = {RoundSamples(kQueries), RoundSamples(kQueries)};
  WireCounters traced_delta;
  uint64_t traced_bytes = 0;
  double timed_s = 0;
  bool transport_ok = true;
  for (int round = -1; transport_ok && (round < 0 || timed_s < config.seconds ||
                                        (config.trace && round < 2));
       ++round) {
    const bool warm_up = round < 0;
    const int traced = config.trace && round % 2 == 1 ? 1 : 0;
    std::vector<bool> round_ok(kQueries + 2, false);
    LiveServer server;
    std::string error;
    Clock::time_point start = Clock::now();
    transport_ok = StartAndGrow(config, in, corpus_path, &server, &error);
    double setup = SecondsSince(start);
    if (!transport_ok) {
      std::fprintf(stderr, "lookup_read set-up failed: %s\n", error.c_str());
    } else if (!warm_up) {
      setup_s.push_back(setup);
      timed_s += setup;
    }
    round_ok[0] = transport_ok;
    WireClient* client = server.client.get();
    WireCounters before, after;
    if (traced && transport_ok) transport_ok = ReadStats(client, &before);
    uint64_t bytes_before =
        transport_ok ? client->bytes_sent() + client->bytes_received() : 0;
    std::string payload;
    for (size_t q = 0; q < kQueries && transport_ok; ++q) {
      bool ok = false;
      start = Clock::now();
      transport_ok = client->Call(in.queries[q], &ok, &payload);
      double micros = MicrosSince(start);
      if (!transport_ok) break;
      if (warm_up) {
        std::vector<ExpectedMatch> expected;
        if (q % kCheckEvery == 0) {
          expected = BruteForceMatches(in.query_sets[q], in.corpus_sets, {});
        }
        verdict[q] = ok && AnswerIsCorrect(payload, q % kCheckEvery == 0
                                                        ? &expected
                                                        : nullptr);
        answers[q] = payload;
      } else {
        rtt[traced].Add(q, micros);
        timed_s += micros / 1e6;
      }
      round_ok[1 + q] = verdict[q] && ok && payload == answers[q];
    }
    if (!warm_up && transport_ok) rtt[traced].EndRound();
    if (traced && transport_ok) {
      traced_bytes +=
          client->bytes_sent() + client->bytes_received() - bytes_before;
      transport_ok = ReadStats(client, &after);
      traced_delta.point_queries += after.point_queries - before.point_queries;
      traced_delta.candidates += after.candidates - before.candidates;
      traced_delta.results += after.results - before.results;
      traced_delta.heap_pops += after.heap_pops - before.heap_pops;
      traced_delta.gallop_probes += after.gallop_probes - before.gallop_probes;
      traced_delta.bitmap_checked +=
          after.bitmap_checked - before.bitmap_checked;
      traced_delta.bitmap_pruned += after.bitmap_pruned - before.bitmap_pruned;
      traced_delta.segments = after.segments;
    }
    if (transport_ok) server_rss_mb.push_back(PeakRssMb(server.process->pid()));
    server.client.reset();
    bool stopped = server.process->Stop();
    if (!stopped) {
      std::fprintf(stderr, "lookup_read: the server did not exit cleanly\n");
    }
    round_ok[kQueries + 1] = transport_ok && stopped;
    if (!transport_ok) {
      std::fprintf(stderr, "lookup_read: the connection failed mid-run\n");
    }
    for (bool ok : round_ok) {
      ++result.attempted;
      if (!ok) {
        ++result.failed;
        result.correct = false;
      }
    }
    if (traced && transport_ok) {
      std::unique_ptr<Replica> replica =
          BuildReplica(in, answers, &result, &trace);
      for (size_t q = 0; q < kQueries; ++q) {
        TraceLayers(replica.get(), in.queries[q], q, &execute, &trace);
      }
    }
  }

  if (!config.trace) {
    result.metrics.Set("setup_s", Median(setup_s), "s");
    result.metrics.Set("throughput_ops_s", rtt[0].Throughput(), "1/s");
    result.metrics.Set("op_p50_us", rtt[0].OpQuantile(0.50), "us");
    result.metrics.Set("op_p99_us", rtt[0].OpQuantile(0.99), "us");
    result.metrics.Set("peak_rss_mb", Median(server_rss_mb), "MB");
    return result;
  }

  double queries = std::max(1.0, traced_delta.point_queries);
  // Per query: typical round trip minus typical in-process Execute.
  std::vector<double> overhead = rtt[1].Typical();
  std::vector<double> typical_execute = execute.Typical();
  for (size_t q = 0; q < overhead.size() && q < typical_execute.size(); ++q) {
    overhead[q] -= typical_execute[q];
  }
  result.metrics.Set("net.overhead_p50_us", Median(overhead), "us");
  result.metrics.Set("text.corpus_build_s",
                     trace.SampleQuantile("corpus_build", 0.5) / 1e6, "s");
  result.metrics.Set("data.prepare_s",
                     trace.SampleQuantile("prepare", 0.5) / 1e6, "s");
  result.metrics.Set("serve.build_s",
                     trace.SampleQuantile("build", 0.5) / 1e6, "s");
  result.metrics.Set("text.dict_growth_tokens",
                     trace.SampleQuantile("dict_growth", 0.5), "count");
  result.metrics.Set("net.bytes_per_request",
                     static_cast<double>(traced_bytes) /
                         static_cast<double>(kQueries * rtt[1].rounds()),
                     "bytes");
  result.metrics.Set("protocol.parse_p50_us",
                     trace.SampleQuantile("parse", 0.5), "us");
  result.metrics.Set("protocol.execute_p50_us",
                     trace.SampleQuantile("execute", 0.5), "us");
  result.metrics.Set("protocol.execute_p99_us",
                     trace.SampleQuantile("execute", 0.99), "us");
  result.metrics.Set("text.tokenize_p50_us",
                     trace.SampleQuantile("tokenize", 0.5), "us");
  result.metrics.Set("serve.query_p50_us",
                     trace.SampleQuantile("query", 0.5), "us");
  result.metrics.Set("serve.query_p99_us",
                     trace.SampleQuantile("query", 0.99), "us");
  result.metrics.Set("serve.chain_segments", traced_delta.segments, "count");
  result.metrics.Set("serve.candidates_per_query",
                     traced_delta.candidates / queries, "count");
  result.metrics.Set("serve.results_per_candidate",
                     traced_delta.results /
                         std::max(1.0, traced_delta.candidates),
                     "ratio");
  result.metrics.Set("core.heap_pops_per_query",
                     traced_delta.heap_pops / queries, "count");
  result.metrics.Set("core.gallop_probes_per_query",
                     traced_delta.gallop_probes / queries, "count");
  result.metrics.Set("core.bitmap_prune_ratio",
                     traced_delta.bitmap_pruned /
                         std::max(1.0, traced_delta.bitmap_checked),
                     "ratio");
  result.metrics.Set(
      "trace.overhead_pct",
      TraceOverheadPct(rtt[0].Throughput(), rtt[1].Throughput()),
      "%");
  return result;
}

}  // namespace perfbench
