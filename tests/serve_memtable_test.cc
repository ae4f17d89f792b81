// The serving tier's memtable head: an append-only per-shard index that
// readers probe as the last link of the shard's segment chain while one
// writer appends to it.
//
//   * MemtableShardTest pins the structure itself: a reader bounded by a
//     published length sees exactly that prefix, across record-table,
//     posting-block and token-directory growth.
//   * MemtableHeadDifferentialTest holds every predicate's answers from
//     the head (Insert/Delete, no compaction) byte-identical to a service
//     that ran the same operations and then Compact()ed, for Query,
//     BatchQuery and QueryTopK, on 1 and 4 shards; the edit-distance and
//     Hamming legs exercise the short-record pool.
//   * MemtableConcurrencyTest runs query threads against one writer and
//     holds every answer to a brute-force oracle over the records live at
//     that answer's epoch. It is part of tools/run_tsan_tests.sh.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cosine_predicate.h"
#include "core/dice_predicate.h"
#include "core/edit_distance_predicate.h"
#include "core/hamming_predicate.h"
#include "core/jaccard_predicate.h"
#include "core/overlap_coefficient_predicate.h"
#include "core/overlap_predicate.h"
#include "data/corpus_builder.h"
#include "serve/memtable.h"
#include "serve/similarity_service.h"
#include "test_util.h"
#include "util/rng.h"

namespace ssjoin {
namespace {

void ExpectSameMatches(const std::vector<QueryMatch>& expected,
                       const std::vector<QueryMatch>& actual,
                       const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].id, actual[i].id) << context << " position " << i;
    EXPECT_EQ(expected[i].score, actual[i].score)
        << context << " position " << i << " id " << actual[i].id;
  }
}

bool SameMatches(const std::vector<QueryMatch>& a,
                 const std::vector<QueryMatch>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const QueryMatch& x, const QueryMatch& y) {
                      return x.id == y.id && x.score == y.score;
                    });
}

// ---------------------------------------------------------------------
// The structure.

TEST(MemtableShardTest, ReadersSeeExactlyThePublishedPrefix) {
  RecordSet records = testing_util::MakeRandomRecordSet(
      {.num_records = 300, .vocabulary = 5000, .zipf_exponent = 0.6}, 3);
  MemtableShard memtable;
  std::vector<std::vector<Posting>> expected_lists(records.vocabulary_size());
  std::vector<RecordId> expected_shorts;
  for (RecordId id = 0; id < records.size(); ++id) {
    const RecordView r = records.record(id);
    const bool is_short = r.size() < 4;
    EXPECT_EQ(memtable.Append(r, records.text(id), 1000 + 2 * id, is_short),
              id);
    for (size_t i = 0; i < r.size(); ++i) {
      expected_lists[r.token(i)].push_back({id, r.score(i)});
    }
    if (is_short) expected_shorts.push_back(id);
  }
  ASSERT_EQ(memtable.size(), records.size());
  for (RecordId visible : {0u, 1u, 17u, 150u, 300u}) {
    for (TokenId t = 0; t < records.vocabulary_size() + 10; ++t) {
      const PostingListView list = memtable.list(t, visible);
      std::vector<Posting> want;
      if (t < expected_lists.size()) {
        for (const Posting& p : expected_lists[t]) {
          if (p.id < visible) want.push_back(p);
        }
      }
      ASSERT_EQ(list.size(), want.size()) << "token " << t;
      double max_score = 0;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(list[i].id, want[i].id);
        EXPECT_EQ(list[i].score, want[i].score);
        max_score = std::max(max_score, want[i].score);
      }
      if (!want.empty()) EXPECT_GE(list.max_score(), max_score);
    }
    const PostingListView shorts = memtable.short_ids(visible);
    size_t want_shorts = 0;
    for (RecordId id : expected_shorts) want_shorts += id < visible ? 1 : 0;
    ASSERT_EQ(shorts.size(), want_shorts);
    for (size_t i = 0; i < shorts.size(); ++i) {
      EXPECT_EQ(shorts[i].id, expected_shorts[i]);
    }
  }
  for (RecordId id = 0; id < records.size(); ++id) {
    const RecordView want = records.record(id);
    const RecordView got = memtable.record(id);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(want.tokens().begin(), want.tokens().end(),
                           got.tokens().begin()));
    EXPECT_EQ(got.norm(), want.norm());
    EXPECT_EQ(got.text_length(), want.text_length());
    EXPECT_EQ(memtable.text(id), records.text(id));
    EXPECT_EQ(memtable.global_id(id), 1000 + 2 * id);
    EXPECT_EQ(memtable.FindGlobal(1000 + 2 * id), id);
    EXPECT_EQ(memtable.FindGlobal(1001 + 2 * id), memtable.size());
  }
}

// ---------------------------------------------------------------------
// Head answers against the compacted service.

struct Workload {
  RecordSet corpus;   // construction corpus, global ids 0..n-1
  RecordSet inserts;  // inserted in order
  RecordSet queries;  // probe contents
};

Workload WordWorkload(uint64_t seed) {
  Workload w;
  RecordSet all = testing_util::MakeRandomRecordSet(
      {.num_records = 260, .vocabulary = 90, .min_tokens = 1}, seed);
  for (RecordId id = 0; id < all.size(); ++id) {
    RecordSet& into = id < 120 ? w.corpus : w.inserts;
    into.Add(all.record(id), all.text(id));
    w.queries.Add(all.record(id), all.text(id));
  }
  return w;
}

/// Short and long strings over a small alphabet, as 2-gram records, so
/// the edit-distance short pool and its zero-overlap matches occur.
Workload QGramWorkload(uint64_t seed, TokenDictionary* dict) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (int i = 0; i < 240; ++i) {
    std::string text;
    if (!texts.empty() && rng.Bernoulli(0.4)) {
      text = texts[rng.UniformU32(static_cast<uint32_t>(texts.size()))];
      if (!text.empty()) {
        text[rng.UniformU32(static_cast<uint32_t>(text.size()))] =
            static_cast<char>('a' + rng.UniformU32(4));
      }
    } else {
      const int len = rng.Bernoulli(0.3) ? rng.UniformInt(1, 3)
                                         : rng.UniformInt(4, 12);
      for (int c = 0; c < len; ++c) {
        text += static_cast<char>('a' + rng.UniformU32(4));
      }
    }
    texts.push_back(text);
  }
  RecordSet all = BuildQGramCorpus(texts, 2, dict);
  Workload w;
  for (RecordId id = 0; id < all.size(); ++id) {
    RecordSet& into = id < 110 ? w.corpus : w.inserts;
    into.Add(all.record(id), all.text(id));
    w.queries.Add(all.record(id), all.text(id));
  }
  return w;
}

/// Runs the insert/delete schedule on `service`: every insert in order,
/// deleting every 7th construction record and every 5th inserted one
/// along the way.
void RunSchedule(SimilarityService* service, const Workload& w) {
  for (RecordId i = 0; i < w.inserts.size(); ++i) {
    service->Insert(w.inserts.record(i), w.inserts.text(i));
    if (i % 3 == 0) {
      const RecordId victim = (i / 3) * 7;
      if (victim < w.corpus.size()) ASSERT_TRUE(service->Delete(victim));
    }
    if (i % 5 == 4) {
      ASSERT_TRUE(service->Delete(
          static_cast<RecordId>(w.corpus.size() + i - 2)));
    }
  }
}

void ExpectHeadMatchesCompacted(const Predicate& pred, const Workload& w,
                                const std::string& name) {
  for (size_t shards : {1u, 4u}) {
    const std::string context = name + " shards=" + std::to_string(shards);
    ServiceOptions options;
    options.num_shards = shards;
    options.memtable_limit = 0;
    options.num_threads = 2;
    SimilarityService head(w.corpus, pred, options);
    SimilarityService compacted(w.corpus, pred, options);
    RunSchedule(&head, w);
    RunSchedule(&compacted, w);
    compacted.Compact();
    ASSERT_EQ(head.memtable_size(), w.inserts.size()) << context;
    ASSERT_GT(head.tombstone_count(), 0u) << context;
    ASSERT_EQ(compacted.memtable_size(), 0u) << context;
    ASSERT_EQ(head.size(), compacted.size()) << context;

    size_t nonempty = 0;
    for (RecordId q = 0; q < w.queries.size(); ++q) {
      const std::vector<QueryMatch> expected =
          compacted.Query(w.queries.record(q), w.queries.text(q));
      nonempty += expected.empty() ? 0 : 1;
      ExpectSameMatches(expected,
                        head.Query(w.queries.record(q), w.queries.text(q)),
                        context + " query " + std::to_string(q));
      ExpectSameMatches(
          compacted.QueryTopK(w.queries.record(q), 6, w.queries.text(q)),
          head.QueryTopK(w.queries.record(q), 6, w.queries.text(q)),
          context + " top-k " + std::to_string(q));
    }
    EXPECT_GT(nonempty, w.queries.size() / 4) << context;
    const std::vector<std::vector<QueryMatch>> expected_batch =
        compacted.BatchQuery(w.queries);
    const std::vector<std::vector<QueryMatch>> batch =
        head.BatchQuery(w.queries);
    ASSERT_EQ(batch.size(), expected_batch.size()) << context;
    for (size_t q = 0; q < batch.size(); ++q) {
      ExpectSameMatches(expected_batch[q], batch[q],
                        context + " batch " + std::to_string(q));
    }
  }
}

TEST(MemtableHeadDifferentialTest, WordPredicatesAnswerLikeCompactedService) {
  const Workload w = WordWorkload(21);
  ExpectHeadMatchesCompacted(OverlapPredicate(3), w, "overlap");
  ExpectHeadMatchesCompacted(JaccardPredicate(0.5), w, "jaccard");
  ExpectHeadMatchesCompacted(DicePredicate(0.6), w, "dice");
  ExpectHeadMatchesCompacted(OverlapCoefficientPredicate(0.8), w,
                             "overlap-coefficient");
  ExpectHeadMatchesCompacted(HammingPredicate(3), w, "hamming");
}

TEST(MemtableHeadDifferentialTest, EditDistanceShortPoolAnswersLikeCompacted) {
  TokenDictionary dict;
  const Workload w = QGramWorkload(5, &dict);
  ExpectHeadMatchesCompacted(EditDistancePredicate(2, 2), w, "edit-distance");
}

/// Which ids RunSchedule leaves live (construction records, then
/// inserts).
std::vector<bool> LiveAfterSchedule(const Workload& w) {
  const size_t n = w.corpus.size();
  std::vector<bool> live(n + w.inserts.size(), true);
  for (RecordId i = 0; i < w.inserts.size(); ++i) {
    if (i % 3 == 0 && (i / 3) * 7 < n) live[(i / 3) * 7] = false;
    if (i % 5 == 4) live[n + i - 2] = false;
  }
  return live;
}

/// Brute-force thresholded answer: every live record of `all` (prepared,
/// indexed by global id) the predicate accepts against queries.record(q).
std::vector<QueryMatch> OracleQuery(const Predicate& pred,
                                    const RecordSet& all,
                                    const std::vector<bool>& live,
                                    const RecordSet& queries, RecordId q) {
  std::vector<QueryMatch> out;
  for (RecordId id = 0; id < live.size(); ++id) {
    if (live[id] && pred.MatchesCross(all, id, queries, q)) {
      out.push_back({id, all.record(id).OverlapWith(queries.record(q))});
    }
  }
  return out;
}

/// Brute-force top-k: live records sharing a token, by match amount
/// descending, ties by id.
std::vector<QueryMatch> OracleTopK(const RecordSet& all,
                                   const std::vector<bool>& live,
                                   const RecordSet& queries, RecordId q,
                                   size_t k) {
  std::vector<QueryMatch> out;
  const RecordView probe = queries.record(q);
  for (RecordId id = 0; id < live.size(); ++id) {
    if (live[id] && all.record(id).IntersectionSize(probe) > 0) {
      out.push_back({id, all.record(id).OverlapWith(probe)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.score != b.score ? a.score > b.score : a.id < b.id;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

/// The construction corpus prepared as the service prepares it, then the
/// inserts and `queries` weighted against it, as the service's staging
/// does between compactions.
RecordSet PrepareLikeService(const Predicate& pred, const RecordSet& corpus,
                             const RecordSet& inserts, RecordSet* queries) {
  RecordSet all = corpus;
  pred.Prepare(&all);
  const RecordSet reference = all;
  RecordSet staged = inserts;
  pred.PrepareIncremental(reference, &staged);
  for (RecordId i = 0; i < staged.size(); ++i) {
    all.Add(staged.record(i), staged.text(i));
  }
  pred.PrepareIncremental(reference, queries);
  return all;
}

/// Cosine re-weights every record when Compact() re-Prepares the
/// survivors, so its head is held to the frozen-statistics oracle
/// instead: construction records prepared over the construction corpus,
/// inserts and probes weighted against it, brute force over survivors.
TEST(MemtableHeadDifferentialTest, CosineHeadMatchesFrozenStatisticsOracle) {
  CosinePredicate pred(0.6);
  const Workload w = WordWorkload(22);
  RecordSet queries = w.queries;
  const RecordSet all = PrepareLikeService(pred, w.corpus, w.inserts, &queries);
  const std::vector<bool> live = LiveAfterSchedule(w);
  for (size_t shards : {1u, 4u}) {
    const std::string context = "cosine shards=" + std::to_string(shards);
    ServiceOptions options;
    options.num_shards = shards;
    options.memtable_limit = 0;
    SimilarityService head(w.corpus, pred, options);
    RunSchedule(&head, w);
    ASSERT_EQ(head.memtable_size(), w.inserts.size()) << context;
    for (RecordId q = 0; q < queries.size(); ++q) {
      ExpectSameMatches(OracleQuery(pred, all, live, queries, q),
                        head.Query(w.queries.record(q), w.queries.text(q)),
                        context + " query " + std::to_string(q));
      ExpectSameMatches(
          OracleTopK(all, live, queries, q, 6),
          head.QueryTopK(w.queries.record(q), 6, w.queries.text(q)),
          context + " top-k " + std::to_string(q));
    }
  }
}

// ---------------------------------------------------------------------
// Readers against one writer.

/// One reader's logged answer: the epochs read just before and just
/// after the call bracket the snapshot the call used.
struct LoggedAnswer {
  uint64_t epoch_before;
  uint64_t epoch_after;
  RecordId query;
  bool topk;
  std::vector<QueryMatch> matches;
};

/// Query threads probe while one writer inserts and deletes; afterwards
/// every logged answer must equal the brute-force oracle over the records
/// live at some epoch its call could have seen. `memtable_limit` 0 keeps
/// every insert in the head (its record table, posting blocks and token
/// directory grow several times over); a positive limit adds
/// auto-compactions, which freeze the head into a segment mid-run.
void RunReadersAgainstWriter(const Predicate& pred, size_t memtable_limit,
                             const std::string& context) {
  RecordSet generated = testing_util::MakeRandomRecordSet(
      {.num_records = 520, .vocabulary = 3000, .zipf_exponent = 0.8}, 77);
  RecordSet corpus;
  RecordSet inserts;
  for (RecordId id = 0; id < generated.size(); ++id) {
    (id < 120 ? corpus : inserts).Add(generated.record(id),
                                      generated.text(id));
  }
  RecordSet queries = generated;
  const RecordSet all = PrepareLikeService(pred, corpus, inserts, &queries);

  ServiceOptions options;
  options.num_shards = 2;
  options.num_threads = 2;
  options.memtable_limit = memtable_limit;
  SimilarityService service(corpus, pred, options);

  // Epoch at which each id became live and, once deleted, stopped being
  // live (UINT64_MAX: never). Only the writer publishes, so the epoch it
  // reads before an op plus one is the op's epoch.
  std::vector<uint64_t> born(all.size(), 0);
  std::vector<uint64_t> died(all.size(), UINT64_MAX);
  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  constexpr size_t kReaders = 2;
  constexpr size_t kMaxLogged = 2000;
  std::vector<std::vector<LoggedAnswer>> logs(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      while (!stop.load(std::memory_order_acquire) &&
             logs[t].size() < kMaxLogged) {
        LoggedAnswer answer;
        answer.query = rng.UniformU32(static_cast<uint32_t>(queries.size()));
        answer.topk = rng.UniformU32(4) == 0;
        answer.epoch_before = service.epoch();
        const RecordView r = generated.record(answer.query);
        const std::string& text = generated.text(answer.query);
        answer.matches = answer.topk ? service.QueryTopK(r, 5, text)
                                     : service.Query(r, text);
        answer.epoch_after = service.epoch();
        logs[t].push_back(std::move(answer));
        answered.fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::thread writer([&] {
    Rng rng(91);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    // Pace the writer so reads interleave with the whole schedule: one
    // answer logged per insert, on average, counted from the writer's
    // start (readers may get far ahead before it is first scheduled).
    const size_t start = answered.load(std::memory_order_acquire);
    for (RecordId i = 0; i < inserts.size(); ++i) {
      while (answered.load(std::memory_order_acquire) < start + i &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      const RecordId id = static_cast<RecordId>(corpus.size() + i);
      born[id] = service.epoch() + 1;
      EXPECT_EQ(service.Insert(inserts.record(i), inserts.text(i)), id);
      if (i % 4 == 3) {
        // Delete a live construction record or a recent insert.
        const RecordId victim =
            rng.Bernoulli(0.5)
                ? rng.UniformU32(static_cast<uint32_t>(corpus.size()))
                : id - rng.UniformU32(3);
        if (died[victim] == UINT64_MAX) {
          const uint64_t at = service.epoch() + 1;
          EXPECT_TRUE(service.Delete(victim));
          died[victim] = at;
        }
      }
    }
    stop.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();

  size_t checked = 0;
  size_t nonempty = 0;
  size_t memtable_epochs = 0;  // answers taken past the construction epoch
  for (const std::vector<LoggedAnswer>& log : logs) {
    for (const LoggedAnswer& answer : log) {
      bool matched = false;
      for (uint64_t e = answer.epoch_before;
           e <= answer.epoch_after && !matched; ++e) {
        std::vector<bool> live(all.size());
        for (RecordId id = 0; id < all.size(); ++id) {
          live[id] = born[id] <= e && e < died[id];
        }
        matched = SameMatches(
            answer.topk ? OracleTopK(all, live, queries, answer.query, 5)
                        : OracleQuery(pred, all, live, queries, answer.query),
            answer.matches);
      }
      EXPECT_TRUE(matched) << context << " query " << answer.query
                           << (answer.topk ? " (top-k)" : "") << " epochs "
                           << answer.epoch_before << ".."
                           << answer.epoch_after;
      ++checked;
      nonempty += answer.matches.empty() ? 0 : 1;
      memtable_epochs += answer.epoch_before > 0 ? 1 : 0;
    }
  }
  EXPECT_GE(checked, inserts.size()) << context;
  EXPECT_GT(nonempty, 0u) << context;
  EXPECT_GE(memtable_epochs, inserts.size() / 4) << context;
}

TEST(MemtableConcurrencyTest, ReadersMatchOracleWhileHeadGrows) {
  RunReadersAgainstWriter(JaccardPredicate(0.5), /*memtable_limit=*/0,
                          "jaccard, no compaction");
}

TEST(MemtableConcurrencyTest, ReadersMatchOracleAcrossAutoCompactions) {
  RunReadersAgainstWriter(JaccardPredicate(0.5), /*memtable_limit=*/150,
                          "jaccard, auto-compaction");
}

TEST(MemtableConcurrencyTest, CosineReadersMatchFrozenStatisticsOracle) {
  // No compaction: cosine's statistics reference stays the construction
  // segment, which every query and insert reads concurrently.
  RunReadersAgainstWriter(CosinePredicate(0.6), /*memtable_limit=*/0,
                          "cosine, no compaction");
}

}  // namespace
}  // namespace ssjoin
