// Seeded generator of the benchmark's citation-style inputs. The
// vocabulary (title words, names, venues) is fixed; the seed picks the
// papers, how often each is cited and how each citation is spelled, so
// the corpora are duplicate-heavy the way the paper's CiteSeer data is.
#ifndef PERFBENCH_RUNNER_INPUTS_H_
#define PERFBENCH_RUNNER_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Real() < p; }

 private:
  uint64_t state_;
};

/// An independent stream for (seed, purpose): streams never overlap.
Rng StreamFor(uint64_t seed, uint64_t purpose);

/// One cited paper: the fields every citation of it is rendered from.
struct Paper {
  std::vector<uint32_t> authors;  // indexes into the name tables
  std::vector<uint32_t> title;    // indexes into the title vocabulary
  uint32_t venue = 0;
  int year = 0;
  int first_page = 0;
  int last_page = 0;
};

/// The fixed vocabulary and the rendering rules.
class CitationModel {
 public:
  CitationModel();

  Paper NewPaper(Rng* rng) const;

  /// One citation of `paper`: author names full or abbreviated, title
  /// words occasionally dropped or mistyped (`typo_prob` per word), venue
  /// spelled out or abbreviated, pages present or not.
  std::string Render(const Paper& paper, Rng* rng, double typo_prob) const;

  /// A citation of `paper` in which `typos` title words are replaced by
  /// misspellings absent from `seen`: a near-duplicate carrying tokens
  /// the corpus never contained.
  std::string RenderWithUnseenTypos(const Paper& paper, Rng* rng, int typos,
                                    const std::unordered_set<std::string>&
                                        seen) const;

 private:
  uint32_t ZipfWord(Rng* rng) const;
  /// Renders authors, the given title words, venue, year and pages.
  std::string Compose(const Paper& paper,
                      const std::vector<std::string>& title, Rng* rng) const;
  static std::string Misspell(const std::string& word, Rng* rng);

  std::vector<std::string> title_words_;
  std::vector<double> title_cdf_;
  std::vector<std::string> surnames_;
  std::vector<std::string> first_names_;
  std::vector<std::string> venue_long_;
  std::vector<std::string> venue_short_;
};

/// A duplicate-heavy corpus: `texts[i]` cites `papers[paper_of[i]]`.
struct CitationCorpus {
  std::vector<Paper> papers;
  std::vector<std::string> texts;
  std::vector<uint32_t> paper_of;
};

/// `num_records` citations: each paper is cited 1 to 12 times (mean about
/// 2.4), and the citations are shuffled.
CitationCorpus GenerateCorpus(const CitationModel& model, Rng* rng,
                              size_t num_records);

/// The lowercase alphanumeric words of `text` — the normalization the
/// program documents (punctuation becomes a space, case folds).
std::vector<std::string> Words(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_INPUTS_H_
