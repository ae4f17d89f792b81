#include "text/tfidf.h"

#include <cmath>

#include "data/record_set.h"
#include "util/logging.h"

namespace ssjoin {

TfIdfWeighter::TfIdfWeighter(std::vector<uint64_t> token_frequency,
                             uint64_t num_records)
    : owned_(std::move(token_frequency)),
      frequency_(owned_.data()),
      size_(owned_.size()),
      num_records_(num_records) {}

TfIdfWeighter TfIdfWeighter::FromRecordSet(const RecordSet& records) {
  const std::vector<uint64_t>& frequency = records.term_frequencies();
  return TfIdfWeighter(frequency.data(), frequency.size(), records.size());
}

double TfIdfWeighter::Weight(TokenId t, uint32_t tf) const {
  SSJOIN_DCHECK(tf > 0);
  uint64_t corpus_freq = t < size_ ? frequency_[t] : 0;
  // Unseen tokens get the maximum IDF, matching fr(w) -> 0.
  double idf = std::log(
      1.0 + static_cast<double>(num_records_) /
                (corpus_freq > 0 ? static_cast<double>(corpus_freq) : 1.0));
  double tf_part = 1.0 + std::log(static_cast<double>(tf));
  return tf_part * idf;
}

}  // namespace ssjoin
