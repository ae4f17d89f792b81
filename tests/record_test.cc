#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "data/record.h"
#include "data/record_set.h"

namespace ssjoin {
namespace {

TEST(RecordTest, FromTokensSortsAndDedups) {
  Record r = Record::FromTokens({5, 1, 3, 1, 5, 5});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.token(0), 1u);
  EXPECT_EQ(r.token(1), 3u);
  EXPECT_EQ(r.token(2), 5u);
  for (size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r.score(i), 1.0);
}

TEST(RecordTest, FromWeightedTokensSorts) {
  Record r = Record::FromWeightedTokens({{9, 0.5}, {2, 2.0}, {4, 1.5}});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.token(0), 2u);
  EXPECT_EQ(r.score(0), 2.0);
  EXPECT_EQ(r.token(2), 9u);
  EXPECT_EQ(r.score(2), 0.5);
}

TEST(RecordTest, FindAndContains) {
  Record r = Record::FromTokens({2, 4, 8});
  EXPECT_EQ(r.Find(4), 1u);
  EXPECT_EQ(r.Find(5), SIZE_MAX);
  EXPECT_TRUE(r.Contains(8));
  EXPECT_FALSE(r.Contains(1));
  EXPECT_FALSE(r.Contains(100));
}

TEST(RecordTest, OverlapWithSumsProducts) {
  Record a = Record::FromWeightedTokens({{1, 2.0}, {2, 3.0}, {5, 1.0}});
  Record b = Record::FromWeightedTokens({{2, 4.0}, {5, 2.0}, {7, 9.0}});
  EXPECT_DOUBLE_EQ(a.OverlapWith(b), 3.0 * 4.0 + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(b.OverlapWith(a), a.OverlapWith(b));
}

TEST(RecordTest, OverlapWithDisjoint) {
  Record a = Record::FromTokens({1, 2});
  Record b = Record::FromTokens({3, 4});
  EXPECT_DOUBLE_EQ(a.OverlapWith(b), 0.0);
  Record empty;
  EXPECT_DOUBLE_EQ(a.OverlapWith(empty), 0.0);
}

TEST(RecordTest, IntersectionSize) {
  Record a = Record::FromTokens({1, 2, 3, 4});
  Record b = Record::FromTokens({2, 4, 6});
  EXPECT_EQ(a.IntersectionSize(b), 2u);
  EXPECT_EQ(a.IntersectionSize(a), 4u);
}

TEST(RecordTest, UnionMaxTakesMaxScores) {
  Record a = Record::FromWeightedTokens({{1, 2.0}, {3, 1.0}});
  a.set_norm(5.0);
  a.set_text_length(10);
  Record b = Record::FromWeightedTokens({{1, 1.0}, {2, 4.0}, {3, 3.0}});
  b.set_norm(3.0);
  b.set_text_length(20);
  Record u = Record::UnionMax(a, b);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u.token(0), 1u);
  EXPECT_DOUBLE_EQ(u.score(0), 2.0);  // max(2, 1)
  EXPECT_EQ(u.token(1), 2u);
  EXPECT_DOUBLE_EQ(u.score(1), 4.0);
  EXPECT_DOUBLE_EQ(u.score(2), 3.0);  // max(1, 3)
  EXPECT_DOUBLE_EQ(u.norm(), 3.0);    // min member norm
  EXPECT_EQ(u.text_length(), 10u);    // min text length
}

TEST(RecordTest, UnionMaxSupersetInvariant) {
  // overlap(probe, UnionMax(a, b)) >= max(overlap(probe, a),
  // overlap(probe, b)) — the property that makes J(r) a safe superset.
  Record a = Record::FromWeightedTokens({{1, 2.0}, {4, 1.0}, {6, 3.0}});
  Record b = Record::FromWeightedTokens({{2, 5.0}, {4, 2.0}});
  Record probe = Record::FromWeightedTokens({{1, 1.0}, {2, 1.0}, {4, 1.0}});
  Record u = Record::UnionMax(a, b);
  EXPECT_GE(probe.OverlapWith(u), probe.OverlapWith(a));
  EXPECT_GE(probe.OverlapWith(u), probe.OverlapWith(b));
}

TEST(RecordSetTest, TracksFrequencies) {
  RecordSet set;
  set.Add(Record::FromTokens({1, 2}));
  set.Add(Record::FromTokens({2, 3}));
  set.Add(Record::FromTokens({2}));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.doc_frequency(2), 3u);
  EXPECT_EQ(set.doc_frequency(1), 1u);
  EXPECT_EQ(set.doc_frequency(99), 0u);
  EXPECT_EQ(set.total_token_occurrences(), 5u);
  EXPECT_DOUBLE_EQ(set.average_record_size(), 5.0 / 3.0);
  EXPECT_EQ(set.vocabulary_size(), 4u);  // ids 0..3 allocated
}

TEST(RecordSetTest, KeepsText) {
  RecordSet set;
  RecordId id = set.Add(Record::FromTokens({1}), "hello world");
  EXPECT_EQ(set.text(id), "hello world");
}

TEST(RecordSetTest, IdsByDecreasingSize) {
  RecordSet set;
  set.Add(Record::FromTokens({1}));
  set.Add(Record::FromTokens({1, 2, 3}));
  set.Add(Record::FromTokens({1, 2}));
  std::vector<RecordId> order = set.IdsByDecreasingSize();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
}

TEST(RecordSetTest, IdsByDecreasingNormStableOnTies) {
  RecordSet set;
  for (int i = 0; i < 4; ++i) {
    Record r = Record::FromTokens({static_cast<TokenId>(i)});
    r.set_norm(1.0);
    set.Add(std::move(r));
  }
  std::vector<RecordId> order = set.IdsByDecreasingNorm();
  EXPECT_EQ(order, (std::vector<RecordId>{0, 1, 2, 3}));
}

TEST(RecordSetTest, OneRecordSetCostsItsTokensNotTheDictionary) {
  // A one-record set is what every served query and insert stages; its
  // footprint must not grow with the largest token id it carries.
  RecordSet small_id;
  small_id.Add(Record::FromTokens({1, 7}), "ab");
  RecordSet large_id;
  large_id.Add(Record::FromTokens({1, 1000000}), "ab");
  EXPECT_EQ(large_id.ApproxMemoryBytes(), small_id.ApproxMemoryBytes());
  EXPECT_EQ(large_id.vocabulary_size(), 1000001u);
  EXPECT_EQ(large_id.doc_frequency(1000000), 1u);
}

TEST(RecordSetTest, FrequencyTablesMatchEagerReferenceAcrossAdds) {
  RecordSet set;
  std::vector<uint64_t> df;
  uint64_t seed = 12345;
  auto next = [&seed](uint64_t bound) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (seed >> 33) % bound;
  };
  auto add_random = [&](TokenId vocabulary) {
    std::map<TokenId, double> distinct;
    const size_t size = 1 + next(6);
    for (size_t i = 0; i < size; ++i) {
      distinct[static_cast<TokenId>(next(vocabulary))] =
          0.5 + static_cast<double>(next(8));
    }
    Record r = Record::FromWeightedTokens({distinct.begin(), distinct.end()});
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.token(i) >= df.size()) df.resize(r.token(i) + 1, 0);
      ++df[r.token(i)];
    }
    set.Add(std::move(r));
  };
  auto expect_reference = [&](const char* context) {
    EXPECT_EQ(set.vocabulary_size(), df.size()) << context;
    EXPECT_EQ(set.doc_frequencies(), df) << context;
    EXPECT_EQ(set.term_frequencies(), df) << context;
    std::vector<double> max_scores(df.size(), 0.0);
    for (RecordId id = 0; id < set.size(); ++id) {
      const RecordView r = set.record(id);
      for (size_t i = 0; i < r.size(); ++i) {
        max_scores[r.token(i)] = std::max(max_scores[r.token(i)], r.score(i));
      }
    }
    std::vector<TokenId> by_frequency(df.size());
    for (TokenId t = 0; t < by_frequency.size(); ++t) by_frequency[t] = t;
    std::stable_sort(by_frequency.begin(), by_frequency.end(),
                     [&df](TokenId a, TokenId b) { return df[a] > df[b]; });
    const TokenStats& stats = set.token_stats();
    EXPECT_EQ(stats.max_token_scores, max_scores) << context;
    EXPECT_EQ(stats.tokens_by_frequency, by_frequency) << context;
  };
  for (int i = 0; i < 40; ++i) add_random(30);
  expect_reference("initial");
  for (int i = 0; i < 25; ++i) add_random(60);  // grows the vocabulary
  expect_reference("after further adds");
  set.Add(Record::FromTokens({}));
  expect_reference("after an empty record");
}

TEST(RecordSetTest, EmptySet) {
  RecordSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.average_record_size(), 0.0);
  EXPECT_TRUE(set.IdsByDecreasingSize().empty());
}

}  // namespace
}  // namespace ssjoin
