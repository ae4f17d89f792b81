#ifndef SSJOIN_TEXT_TFIDF_H_
#define SSJOIN_TEXT_TFIDF_H_

#include <cstdint>
#include <vector>

#include "text/token_dictionary.h"

namespace ssjoin {

class RecordSet;

/// TF-IDF weighting used by the cosine predicate (Section 5.2.2):
///
///   TF-IDF(w, r) = (1 + log fr(w, r)) * log(1 + N / fr(w))
///
/// where fr(w, r) is the within-record frequency, fr(w) is the total
/// frequency of w over the corpus, and N is the number of records.
class TfIdfWeighter {
 public:
  /// Takes ownership of a corpus-frequency table. `token_frequency[t]`
  /// must hold the total occurrences of token t across all records.
  TfIdfWeighter(std::vector<uint64_t> token_frequency, uint64_t num_records);

  /// Borrows `records`' frequency table instead of copying it, so
  /// weighting a one-record staging set against a large reference costs
  /// O(that record), not O(dictionary). `records` must outlive the
  /// weighter and must not grow while it is in use.
  static TfIdfWeighter FromRecordSet(const RecordSet& records);

  // Move-only: a borrowed or owned table is addressed through frequency_.
  TfIdfWeighter(TfIdfWeighter&&) = default;
  TfIdfWeighter& operator=(TfIdfWeighter&&) = default;
  TfIdfWeighter(const TfIdfWeighter&) = delete;
  TfIdfWeighter& operator=(const TfIdfWeighter&) = delete;

  /// Raw TF-IDF score of token `t` appearing `tf` times in a record.
  double Weight(TokenId t, uint32_t tf) const;

  uint64_t num_records() const { return num_records_; }

 private:
  TfIdfWeighter(const uint64_t* frequency, size_t size, uint64_t num_records)
      : frequency_(frequency), size_(size), num_records_(num_records) {}

  std::vector<uint64_t> owned_;  // empty when borrowed
  // The table in use: owned_.data() (a moved vector keeps its buffer) or
  // the borrowed RecordSet table.
  const uint64_t* frequency_ = nullptr;
  size_t size_ = 0;
  uint64_t num_records_ = 0;
};

}  // namespace ssjoin

#endif  // SSJOIN_TEXT_TFIDF_H_
