// The bursty-document search engine (paper §5).
//
// score(q, d) = sum over query terms t of relevance(d,t) * burstiness(d,t),
// with relevance(d,t) = log(freq(t,d) + 1) (the paper's best-performing
// choice) and burstiness(d,t) = the maximum score among the term's mined
// patterns that the document overlaps (ditto). Documents overlapping no
// pattern for a term contribute nothing for that term (the paper's -inf
// convention, applied per term so multi-term queries degrade gracefully).
//
// The engine is pattern-type agnostic: build it with STComb patterns for a
// combinatorial instance, STLocal windows for a regional instance, or
// temporal-only intervals for the TB baseline (tb_engine.h).

#ifndef STBURST_INDEX_SEARCH_ENGINE_H_
#define STBURST_INDEX_SEARCH_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stburst/index/inverted_index.h"
#include "stburst/index/pattern_index.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/collection.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/tokenizer.h"

namespace stburst {

struct SearchEngineOptions {
  /// Use the Threshold Algorithm; otherwise exhaustively merge postings
  /// (for differential testing and small corpora).
  bool use_threshold_algorithm = true;
};

/// Immutable once built. Holds a score-sorted inverted index whose per-term
/// entries are relevance * burstiness products, so top-k retrieval is a TA
/// run away.
class BurstySearchEngine {
 public:
  /// Indexes every document of `collection` against `patterns`. Documents
  /// that overlap no pattern for a term get no posting for that term.
  static BurstySearchEngine Build(const Collection& collection,
                                  const PatternIndex& patterns,
                                  SearchEngineOptions options = {});

  /// Top-k for a raw query string (tokenized against the collection's
  /// frozen vocabulary; unknown words are dropped).
  TopKResult Search(const std::string& query, size_t k) const;

  /// Top-k for pre-resolved term ids.
  TopKResult Search(const std::vector<TermId>& query, size_t k) const;

  const InvertedIndex& index() const { return index_; }

 private:
  BurstySearchEngine(const Collection* collection, SearchEngineOptions options);

  const Collection* collection_;  // not owned; must outlive the engine
  SearchEngineOptions options_;
  Tokenizer tokenizer_;
  InvertedIndex index_;
};

/// relevance(d, t) of Eq. 10 for a raw term frequency.
double Relevance(double term_frequency);

/// Recomputes the search postings of one term, term-major: every retained
/// document containing `term` — found through the frequency index's sparse
/// postings and the collection's per-(stream, timestamp) document lists —
/// is scored relevance × max pattern overlap, and the positive (doc, score)
/// entries are appended to `out`, unsorted (TermPostings::Freeze sorts).
/// This is the path a live maintainer (FeedRuntime's search serving) takes
/// when a term's patterns change: the postings are identical to the ones
/// BurstySearchEngine::Build derives doc-major from the same pattern state
/// (tested). `freq` must be in sync with `collection` (same windowed
/// feed). O(Σ docs at the term's nonzero cells × tokens per doc).
void ScoreTermDocuments(const Collection& collection,
                        const FrequencyIndex& freq, TermId term,
                        std::span<const TermPattern> patterns,
                        std::vector<Posting>* out);

}  // namespace stburst

#endif  // STBURST_INDEX_SEARCH_ENGINE_H_
