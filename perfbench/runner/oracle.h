// The benchmark's independent reference: its own tokenizer and an exact
// brute-force Jaccard scan. Nothing here calls the program's predicates,
// tokenizers or merge code, so a fault there cannot hide in the check.
#ifndef PERFBENCH_RUNNER_ORACLE_H_
#define PERFBENCH_RUNNER_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/similarity_service.h"

namespace perfbench {

/// A record as a sorted vector of distinct word ids.
using TokenSet = std::vector<uint32_t>;

/// The Jaccard threshold every workload uses, as an exact fraction. 61 is
/// prime, so no pair with a union below 100 tokens sits exactly on the
/// threshold and float rounding in the program cannot flip a decision.
constexpr uint64_t kThresholdNum = 61;
constexpr uint64_t kThresholdDen = 100;
constexpr const char kThresholdText[] = "0.61";

class Oracle {
 public:
  /// Tokenizes `text` (lowercase alphanumeric words) into a set.
  TokenSet Tokenize(const std::string& text);

 private:
  std::unordered_map<std::string, uint32_t> ids_;
};

/// Exact test |a ∩ b| / |a ∪ b| >= kThresholdNum / kThresholdDen.
bool JaccardMatch(const TokenSet& a, const TokenSet& b, size_t* overlap);

/// One expected answer: record id and shared-token count (the program's
/// match score under unweighted Jaccard).
struct ExpectedMatch {
  uint32_t id;
  size_t overlap;
};

/// Every record of `corpus` (skipping those with live[id] == false when
/// `live` is non-empty) matching `query`, in increasing id order.
std::vector<ExpectedMatch> BruteForceMatches(
    const TokenSet& query, const std::vector<TokenSet>& corpus,
    const std::vector<bool>& live);

/// The program's answer equals the oracle's: same ids in the same order,
/// and each score equals the shared-token count.
bool MatchesOracle(const std::vector<ssjoin::QueryMatch>& got,
                   const std::vector<ExpectedMatch>& expected);

/// Two answers of the program are identical, ids and scores.
bool SameAnswers(const std::vector<ssjoin::QueryMatch>& a,
                 const std::vector<ssjoin::QueryMatch>& b);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_ORACLE_H_
