#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

namespace {

constexpr const char* kFunctionWords[] = {
    "of",     "the",      "for",    "and",     "in",       "a",
    "on",     "with",     "to",     "an",      "using",    "by",
    "from",   "towards",  "data",   "query",   "efficient", "systems",
    "based",  "approach", "model",  "database", "analysis", "large",
    "scale",  "learning", "network", "search",  "fast",     "algorithms"};

constexpr const char* kOnsets[] = {"b", "c", "d", "f", "g", "h", "j", "k",
                                   "l", "m", "n", "p", "r", "s", "t", "v",
                                   "w", "z", "br", "ch", "st", "tr", "pl",
                                   "gr", "sh", "th"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u", "ai", "ou", "ea"};
constexpr const char* kCodas[] = {"", "", "", "n", "r", "s", "l", "t", "x",
                                  "m", "nd", "rk"};

template <size_t N>
const char* Pick(const char* const (&table)[N], Rng* rng) {
  return table[rng->Below(N)];
}

std::string Syllables(Rng* rng, int count) {
  std::string word;
  for (int i = 0; i < count; ++i) {
    word += Pick(kOnsets, rng);
    word += Pick(kVowels, rng);
    if (i + 1 == count) word += Pick(kCodas, rng);
  }
  return word;
}

// Distinct generated words; a duplicate spelling is re-drawn.
std::vector<std::string> DistinctWords(Rng* rng, size_t count, int min_syl,
                                       int max_syl,
                                       std::unordered_set<std::string>* used) {
  std::vector<std::string> words;
  words.reserve(count);
  while (words.size() < count) {
    std::string word = Syllables(rng, rng->Between(min_syl, max_syl));
    if (used->insert(word).second) words.push_back(std::move(word));
  }
  return words;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng StreamFor(uint64_t seed, uint64_t purpose) {
  Rng mix(seed * 0x100000001b3ULL ^ (purpose + 0x51ed270b27fULL));
  return Rng(mix.Next());
}

CitationModel::CitationModel() {
  // Fixed vocabulary: the same words for every seed.
  Rng rng(0x7e57c0de);
  std::unordered_set<std::string> used;
  for (const char* word : kFunctionWords) {
    title_words_.push_back(word);
    used.insert(word);
  }
  std::vector<std::string> more = DistinctWords(&rng, 14000, 2, 4, &used);
  title_words_.insert(title_words_.end(), more.begin(), more.end());
  // Zipf(1.0) over title-word ranks.
  double total = 0;
  title_cdf_.reserve(title_words_.size());
  for (size_t rank = 0; rank < title_words_.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    title_cdf_.push_back(total);
  }
  for (double& c : title_cdf_) c /= total;

  surnames_ = DistinctWords(&rng, 3000, 2, 3, &used);
  first_names_ = DistinctWords(&rng, 500, 1, 2, &used);
  std::vector<std::string> venue_words = DistinctWords(&rng, 120, 2, 3, &used);
  for (int v = 0; v < 160; ++v) {
    std::string full = rng.Chance(0.5) ? "proceedings of the" : "journal of";
    std::string acronym;
    int words = rng.Between(2, 4);
    for (int w = 0; w < words; ++w) {
      const std::string& word = venue_words[rng.Below(venue_words.size())];
      full += " " + word;
      acronym += word.substr(0, 1);
    }
    venue_long_.push_back(full);
    venue_short_.push_back(acronym + std::to_string(v));
  }
}

uint32_t CitationModel::ZipfWord(Rng* rng) const {
  double u = rng->Real();
  auto it = std::lower_bound(title_cdf_.begin(), title_cdf_.end(), u);
  if (it == title_cdf_.end()) --it;
  return static_cast<uint32_t>(it - title_cdf_.begin());
}

Paper CitationModel::NewPaper(Rng* rng) const {
  Paper paper;
  int authors = rng->Between(1, 4);
  for (int a = 0; a < authors; ++a) {
    paper.authors.push_back(static_cast<uint32_t>(rng->Below(surnames_.size())));
  }
  int words = rng->Between(6, 13);
  while (static_cast<int>(paper.title.size()) < words) {
    uint32_t word = ZipfWord(rng);
    if (std::find(paper.title.begin(), paper.title.end(), word) ==
        paper.title.end()) {
      paper.title.push_back(word);
    }
  }
  paper.venue = static_cast<uint32_t>(rng->Below(venue_long_.size()));
  paper.year = rng->Between(1975, 2024);
  paper.first_page = rng->Between(1, 900);
  paper.last_page = paper.first_page + rng->Between(5, 25);
  return paper;
}

std::string CitationModel::Misspell(const std::string& word, Rng* rng) {
  std::string out = word;
  size_t at = rng->Below(out.size());
  char letter = static_cast<char>('a' + rng->Below(26));
  switch (rng->Below(4)) {
    case 0:
      out[at] = letter;
      break;
    case 1:
      if (out.size() > 2) out.erase(at, 1);
      break;
    case 2:
      out.insert(at, 1, letter);
      break;
    default:
      if (at + 1 < out.size()) std::swap(out[at], out[at + 1]);
      break;
  }
  return out;
}

std::string CitationModel::Compose(const Paper& paper,
                                   const std::vector<std::string>& title,
                                   Rng* rng) const {
  std::string text;
  bool full_names = rng->Chance(0.5);
  for (size_t a = 0; a < paper.authors.size(); ++a) {
    uint32_t id = paper.authors[a];
    const std::string& first = first_names_[id % first_names_.size()];
    if (a) text += ", ";
    text += full_names ? first : first.substr(0, 1) + ".";
    text += " " + surnames_[id];
  }
  text += ".";
  for (const std::string& word : title) text += " " + word;
  text += ". ";
  text += rng->Chance(0.5) ? venue_long_[paper.venue]
                           : venue_short_[paper.venue];
  text += ", " + std::to_string(paper.year);
  if (rng->Chance(0.6)) {
    text += ", pp. " + std::to_string(paper.first_page) + "-" +
            std::to_string(paper.last_page);
  }
  return text;
}

std::string CitationModel::Render(const Paper& paper, Rng* rng,
                                  double typo_prob) const {
  std::vector<std::string> title;
  for (size_t w = 0; w < paper.title.size(); ++w) {
    // Drop words now and then, but keep at least four.
    bool must_keep = title.size() + (paper.title.size() - w) <= 4;
    if (!must_keep && rng->Chance(0.08)) continue;
    const std::string& spelled = title_words_[paper.title[w]];
    title.push_back(rng->Chance(typo_prob) ? Misspell(spelled, rng)
                                           : spelled);
  }
  return Compose(paper, title, rng);
}

std::string CitationModel::RenderWithUnseenTypos(
    const Paper& paper, Rng* rng, int typos,
    const std::unordered_set<std::string>& seen) const {
  std::vector<std::string> title;
  for (uint32_t word : paper.title) title.push_back(title_words_[word]);
  for (int t = 0; t < typos; ++t) {
    size_t at = rng->Below(title.size());
    std::string typo = Misspell(title[at], rng);
    while (seen.count(typo) > 0 || typo == title[at]) {
      typo += static_cast<char>('a' + rng->Below(26));
    }
    title[at] = typo;
  }
  return Compose(paper, title, rng);
}

CitationCorpus GenerateCorpus(const CitationModel& model, Rng* rng,
                              size_t num_records) {
  CitationCorpus corpus;
  while (corpus.texts.size() < num_records) {
    uint32_t paper_id = static_cast<uint32_t>(corpus.papers.size());
    corpus.papers.push_back(model.NewPaper(rng));
    // 45% cited once, the rest 2..12 times (geometric-ish tail).
    int copies = 1;
    if (!rng->Chance(0.45)) {
      copies = 2;
      while (copies < 12 && rng->Chance(0.45)) ++copies;
    }
    for (int c = 0; c < copies && corpus.texts.size() < num_records; ++c) {
      corpus.texts.push_back(model.Render(corpus.papers.back(), rng, 0.03));
      corpus.paper_of.push_back(paper_id);
    }
  }
  // Fisher-Yates shuffle of the citations (texts and labels together).
  for (size_t i = corpus.texts.size(); i > 1; --i) {
    size_t j = rng->Below(i);
    std::swap(corpus.texts[i - 1], corpus.texts[j]);
    std::swap(corpus.paper_of[i - 1], corpus.paper_of[j]);
  }
  return corpus;
}

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> words;
  std::string current;
  for (char raw : text) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else if (!current.empty()) {
      words.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

}  // namespace perfbench
