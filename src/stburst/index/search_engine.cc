#include "stburst/index/search_engine.h"

#include <algorithm>
#include <cmath>

namespace stburst {

double Relevance(double term_frequency) { return std::log(term_frequency + 1.0); }

BurstySearchEngine::BurstySearchEngine(const Collection* collection,
                                       SearchEngineOptions options)
    : collection_(collection), options_(options) {}

BurstySearchEngine BurstySearchEngine::Build(const Collection& collection,
                                             const PatternIndex& patterns,
                                             SearchEngineOptions options) {
  BurstySearchEngine engine(&collection, options);

  std::vector<TermId> distinct;
  for (const Document& doc : collection.documents()) {
    // Distinct terms of the document with their frequencies.
    distinct = doc.tokens;
    std::sort(distinct.begin(), distinct.end());
    for (size_t i = 0; i < distinct.size();) {
      size_t j = i;
      while (j < distinct.size() && distinct[j] == distinct[i]) ++j;
      TermId term = distinct[i];
      double burst_score;
      if (patterns.MaxOverlapScore(term, doc.stream, doc.time, &burst_score)) {
        double entry = Relevance(static_cast<double>(j - i)) * burst_score;
        if (entry > 0.0) engine.index_.Add(term, doc.id, entry);
      }
      i = j;
    }
  }
  engine.index_.Finalize();
  return engine;
}

void ScoreTermDocuments(const Collection& collection,
                        const FrequencyIndex& freq, TermId term,
                        std::span<const TermPattern> patterns,
                        std::vector<Posting>* out) {
  if (patterns.empty()) return;  // no pattern can overlap: no postings
  for (const TermPosting& cell : freq.postings(term)) {
    double burst_score;
    if (!MaxOverlapScore(patterns, cell.stream, cell.time, &burst_score)) {
      continue;
    }
    for (DocId id : collection.DocumentsAt(cell.stream, cell.time)) {
      const Document& doc = collection.document(id);
      size_t count = 0;
      for (TermId token : doc.tokens) count += token == term ? 1 : 0;
      if (count == 0) continue;  // another doc of the cell carries the term
      const double entry =
          Relevance(static_cast<double>(count)) * burst_score;
      if (entry > 0.0) out->push_back(Posting{id, entry});
    }
  }
}

TopKResult BurstySearchEngine::Search(const std::string& query, size_t k) const {
  return Search(tokenizer_.TokenizeFrozen(query, collection_->vocabulary()), k);
}

TopKResult BurstySearchEngine::Search(const std::vector<TermId>& query,
                                      size_t k) const {
  if (options_.use_threshold_algorithm) {
    return ThresholdTopK(index_, query, k);
  }
  return ExhaustiveTopK(index_, query, k);
}

}  // namespace stburst
