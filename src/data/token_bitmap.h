#ifndef SSJOIN_DATA_TOKEN_BITMAP_H_
#define SSJOIN_DATA_TOKEN_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "data/record_view.h"

namespace ssjoin {

/// Fixed-width per-record token bitmaps (the Bitmap Filter idea): every
/// record carries kTokenBitmapBits parity bits, bit h(t) FLIPPED once per
/// token, so a bit is set iff an odd number of the record's tokens hash
/// to it. For two records r, s,
///
///   popcount(B_r XOR B_s) <= |r Δ s| = |r| + |s| - 2 |r ∩ s|,
///
/// because every bit set in the XOR needs at least one symmetric-
/// difference token hashing to it (tokens common to both flip both sides
/// and cancel). Rearranged, that yields the candidate-pruning upper bound
///
///   |r ∩ s| <= (|r| + |s| - popcount(B_r XOR B_s)) / 2.
///
/// (The naive AND-of-bitmaps popcount is NOT a bound in either direction
/// once distinct tokens collide on a bit, which is why the filter is
/// parity/XOR based.) The bound degrades gracefully under saturation: a
/// fully saturated or fully zeroed XOR just returns the vacuous
/// (|r| + |s|) / 2 bound and prunes nothing — never a wrong answer.
///
/// Any PREFIX of the words keeps the inequality (dropping words can only
/// shrink the popcount), so a narrower consult is always sound, only
/// weaker.
inline constexpr size_t kTokenBitmapWords = 4;
inline constexpr size_t kTokenBitmapBits = kTokenBitmapWords * 64;

/// One record's filter input: the parity words plus the record's token
/// count, padded to exactly one cache line. The bound needs both
/// ((|r| + |s| - xor_pop) / 2), so a consult resolves its whole input
/// with a single aligned 64-byte load — the consult runs once per
/// candidate, so its memory traffic is the filter's entire cost.
struct alignas(64) TokenBitmapEntry {
  uint64_t bits[kTokenBitmapWords] = {};
  uint64_t tokens = 0;  // the record's token count
  uint64_t pad[8 - kTokenBitmapWords - 1] = {};
};
static_assert(sizeof(TokenBitmapEntry) == 64,
              "a consult relies on one entry per cache line");

/// Bit position of token `t`: multiplicative (Fibonacci) hashing by the
/// 64-bit golden ratio, top bits kept — adjacent token ids (the common
/// case: dictionary-assigned, dense) scatter across the whole bitmap.
inline uint32_t TokenBitmapBit(TokenId t) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull) >>
      (64 - std::bit_width(kTokenBitmapBits - 1)));
}

/// Flips token `t`'s parity bit in `words` (kTokenBitmapWords wide).
inline void TokenBitmapFlip(uint64_t* words, TokenId t) {
  const uint32_t bit = TokenBitmapBit(t);
  words[bit >> 6] ^= uint64_t{1} << (bit & 63);
}

/// popcount(a XOR b) over the first `words` words (1..kTokenBitmapWords).
inline uint32_t TokenBitmapXorPopcount(const uint64_t* a, const uint64_t* b,
                                       size_t words) {
  uint32_t pop = 0;
  for (size_t w = 0; w < words; ++w) {
    pop += static_cast<uint32_t>(std::popcount(a[w] ^ b[w]));
  }
  return pop;
}

/// The filter's overlap bound: an UPPER bound on the number of distinct
/// common tokens of two records with `tokens_a`/`tokens_b` tokens and
/// parity bitmaps `a`/`b`, using the first `words` words of each.
inline uint32_t TokenBitmapOverlapBound(const uint64_t* a, uint32_t tokens_a,
                                        const uint64_t* b, uint32_t tokens_b,
                                        size_t words) {
  const uint32_t xor_pop = TokenBitmapXorPopcount(a, b, words);
  // xor_pop <= |a Δ b| <= tokens_a + tokens_b, so this never wraps.
  return (tokens_a + tokens_b - xor_pop) / 2;
}

/// Builds `record`'s filter input. Bitmaps depend only on token SETS,
/// never on scores, so re-weighting a record cannot stale its entry.
inline TokenBitmapEntry BuildTokenBitmap(RecordView record) {
  TokenBitmapEntry entry;
  for (size_t i = 0; i < record.size(); ++i) {
    TokenBitmapFlip(entry.bits, record.token(i));
  }
  entry.tokens = record.size();
  return entry;
}

}  // namespace ssjoin

#endif  // SSJOIN_DATA_TOKEN_BITMAP_H_
