#include "core/predicate.h"

namespace ssjoin {

bool Predicate::NormFilter(double /*norm_r*/, double /*norm_s*/) const {
  return true;
}

void Predicate::PrepareForJoin(RecordSet* left, RecordSet* right) const {
  Prepare(left);
  Prepare(right);
}

void Predicate::PrepareIncremental(const RecordSet& /*reference*/,
                                   RecordSet* staging) const {
  Prepare(staging);
}

bool Predicate::MatchesCross(const RecordSet& set_a, RecordId a,
                             const RecordSet& set_b, RecordId b) const {
  return MatchesRecords(set_a.record(a), {}, set_b.record(b), {});
}

bool Predicate::MatchesRecords(RecordView ra, std::string_view /*text_a*/,
                               RecordView rb,
                               std::string_view /*text_b*/) const {
  if (!NormFilter(ra.norm(), rb.norm())) return false;
  return ra.OverlapWith(rb) >= ThresholdForNorms(ra.norm(), rb.norm());
}

double Predicate::StaticTokenWeight(TokenId /*t*/) const { return 1.0; }

double Predicate::MinMatchOverlap(double /*norm_r*/) const { return 0; }

}  // namespace ssjoin
