#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "inputs.h"

namespace perfbench {

TokenSet Oracle::Tokenize(const std::string& text) {
  TokenSet set;
  for (const std::string& word : Words(text)) {
    auto [it, inserted] =
        ids_.emplace(word, static_cast<uint32_t>(ids_.size()));
    set.push_back(it->second);
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

namespace {

size_t IntersectionSize(const TokenSet& a, const TokenSet& b) {
  size_t i = 0, j = 0, shared = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace

bool JaccardMatch(const TokenSet& a, const TokenSet& b, size_t* overlap) {
  // |a ∩ b| / |a ∪ b| >= num/den  <=>  den |a ∩ b| >= num |a ∪ b|; the
  // union is at least the larger set, so a size gap alone can rule out.
  size_t small = std::min(a.size(), b.size());
  size_t large = std::max(a.size(), b.size());
  if (kThresholdDen * small < kThresholdNum * large) return false;
  size_t shared = IntersectionSize(a, b);
  size_t unioned = a.size() + b.size() - shared;
  if (unioned == 0) return false;
  *overlap = shared;
  return kThresholdDen * shared >= kThresholdNum * unioned;
}

std::vector<ExpectedMatch> BruteForceMatches(
    const TokenSet& query, const std::vector<TokenSet>& corpus,
    const std::vector<bool>& live) {
  std::vector<ExpectedMatch> out;
  for (size_t id = 0; id < corpus.size(); ++id) {
    if (!live.empty() && !live[id]) continue;
    size_t overlap = 0;
    if (JaccardMatch(query, corpus[id], &overlap)) {
      out.push_back({static_cast<uint32_t>(id), overlap});
    }
  }
  return out;
}

bool MatchesOracle(const std::vector<ssjoin::QueryMatch>& got,
                   const std::vector<ExpectedMatch>& expected) {
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != expected[i].id ||
        std::fabs(got[i].score - static_cast<double>(expected[i].overlap)) >
            1e-6) {
      return false;
    }
  }
  return true;
}

bool SameAnswers(const std::vector<ssjoin::QueryMatch>& a,
                 const std::vector<ssjoin::QueryMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

}  // namespace perfbench
