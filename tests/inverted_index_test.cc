// Tests for index/inverted_index and index/pattern_index.

#include "stburst/index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stburst/common/parallel.h"
#include "stburst/common/random.h"
#include "stburst/index/pattern_index.h"
#include "index_test_util.h"

namespace stburst {
namespace {

TEST(InvertedIndex, PostingsSortedByScoreDescending) {
  InvertedIndex idx;
  idx.Add(0, 10, 1.0);
  idx.Add(0, 11, 3.0);
  idx.Add(0, 12, 2.0);
  idx.Finalize();
  const auto& p = idx.postings(0);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0].doc, 11u);
  EXPECT_EQ(p[1].doc, 12u);
  EXPECT_EQ(p[2].doc, 10u);
}

TEST(InvertedIndex, TieBreakByDocId) {
  InvertedIndex idx;
  idx.Add(0, 9, 1.0);
  idx.Add(0, 3, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.postings(0)[0].doc, 3u);
}

TEST(InvertedIndex, RandomAccess) {
  InvertedIndex idx;
  idx.Add(2, 5, 1.5);
  idx.Finalize();
  double score = 0.0;
  EXPECT_TRUE(idx.Score(2, 5, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  EXPECT_FALSE(idx.Score(2, 6, &score));
  EXPECT_FALSE(idx.Score(99, 5, &score));
}

TEST(InvertedIndex, UnknownTermEmpty) {
  InvertedIndex idx;
  idx.Finalize();
  EXPECT_TRUE(idx.postings(42).empty());
  EXPECT_EQ(idx.total_postings(), 0u);
}

TEST(InvertedIndex, CountsAndFinalizeIdempotent) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(1, 2, 2.0);
  idx.Finalize();
  idx.Finalize();
  EXPECT_EQ(idx.total_postings(), 2u);
  EXPECT_EQ(idx.num_terms(), 2u);
  EXPECT_TRUE(idx.finalized());
}

// Freezes `postings` as one term's shared list (the scoring workers' step).
InvertedIndex::TermList List(std::vector<Posting> postings) {
  return TermPostings::Freeze(std::move(postings));
}

TEST(InvertedIndex, SuccessorMatchesFromScratch) {
  // Live-feed shape: freeze, then derive a successor that replaces one
  // term's list and adds a brand-new term. The successor must be
  // indistinguishable from an index built in one shot, and share the list
  // it did not touch.
  InvertedIndex base;
  base.Add(0, 1, 1.0);
  base.Add(0, 2, 5.0);
  base.Add(1, 1, 2.0);
  base.Finalize();

  const std::vector<TermId> terms = {0, 2};
  std::vector<InvertedIndex::TermList> lists;
  lists.push_back(List({{1, 1.0}, {2, 5.0}, {3, 3.0}}));  // existing term
  lists.push_back(List({{9, 0.5}}));                      // brand new term
  const InvertedIndex next =
      base.Successor(terms, std::move(lists), /*min_live_doc=*/0, nullptr);

  InvertedIndex reference;
  reference.Add(0, 1, 1.0);
  reference.Add(0, 2, 5.0);
  reference.Add(1, 1, 2.0);
  reference.Add(0, 3, 3.0);
  reference.Add(2, 9, 0.5);
  reference.Finalize();

  ASSERT_EQ(next.num_terms(), reference.num_terms());
  ExpectIdenticalIndexes(next, reference);
  double score = 0.0;
  EXPECT_TRUE(next.Score(0, 3, &score));
  EXPECT_DOUBLE_EQ(score, 3.0);
  EXPECT_EQ(next.term_list(1), base.term_list(1));  // shared, not copied
  EXPECT_NE(next.term_list(0), base.term_list(0));
  // The predecessor is untouched.
  EXPECT_EQ(base.postings(0).size(), 2u);
  EXPECT_TRUE(base.postings(2).empty());
  EXPECT_EQ(base.total_postings(), 3u);
}

TEST(InvertedIndex, GenerationBumpsOnEveryFreeze) {
  InvertedIndex idx;
  EXPECT_EQ(idx.generation(), 0u);
  idx.Add(0, 1, 1.0);
  idx.Finalize();
  EXPECT_EQ(idx.generation(), 1u);
  idx.Finalize();  // idempotent: no state change, no bump
  EXPECT_EQ(idx.generation(), 1u);

  const std::vector<TermId> terms = {0};
  std::vector<InvertedIndex::TermList> lists;
  lists.push_back(List({{1, 1.0}, {2, 2.0}}));
  const InvertedIndex next = idx.Successor(terms, std::move(lists), 0, nullptr);
  EXPECT_EQ(next.generation(), 2u);  // exactly one bump per successor
  EXPECT_EQ(idx.generation(), 1u);   // the predecessor keeps its own
  EXPECT_EQ(next.postings(0).size(), 2u);
  // Even an edit-free successor is a new generation: the caller decides
  // whether a tick publishes one at all.
  EXPECT_EQ(next.Successor({}, {}, 0, nullptr).generation(), 3u);
}

TEST(InvertedIndex, SuccessorOfEmptyIndexIsGenerationOne) {
  // A never-frozen index nobody added to is the empty generation 0, so a
  // runtime's first snapshot is a successor like every later one.
  InvertedIndex empty;
  const std::vector<TermId> terms = {0, 1};
  std::vector<InvertedIndex::TermList> lists;
  lists.push_back(List({{1, 1.0}}));
  lists.push_back(List({}));  // a term with no postings has no list
  const InvertedIndex first =
      empty.Successor(terms, std::move(lists), 0, nullptr);
  EXPECT_TRUE(first.finalized());
  EXPECT_EQ(first.generation(), 1u);
  EXPECT_EQ(first.total_postings(), 1u);
  EXPECT_EQ(first.term_list(1), nullptr);
  EXPECT_TRUE(first.postings(1).empty());
}

TEST(InvertedIndex, SuccessorDropsEvictedDocs) {
  InvertedIndex idx;
  idx.Add(0, 1, 4.0);
  idx.Add(0, 5, 2.0);
  idx.Add(0, 2, 3.0);
  idx.Add(1, 2, 1.0);   // term whose postings are wholly evicted
  idx.Add(2, 9, 0.5);   // term untouched by the eviction
  idx.Finalize();
  ASSERT_EQ(idx.generation(), 1u);

  const InvertedIndex next =
      idx.Successor({}, {}, /*min_live_doc=*/3, nullptr);
  EXPECT_EQ(next.generation(), 2u);  // the edit batch is one new freeze

  // Only docs >= 3 survive, still in descending-score order, and the
  // random-access tables forgot the evicted docs.
  ASSERT_EQ(next.postings(0).size(), 1u);
  EXPECT_EQ(next.postings(0)[0].doc, 5u);
  EXPECT_TRUE(next.postings(1).empty());
  EXPECT_EQ(next.term_list(1), nullptr);
  ASSERT_EQ(next.postings(2).size(), 1u);
  EXPECT_EQ(next.term_list(2), idx.term_list(2));  // no dead doc: shared
  EXPECT_EQ(next.total_postings(), 2u);
  double score = 0.0;
  EXPECT_FALSE(next.Score(0, 1, &score));
  EXPECT_FALSE(next.Score(0, 2, &score));
  EXPECT_TRUE(next.Score(0, 5, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);
  EXPECT_FALSE(next.Score(1, 2, &score));
  // The predecessor still serves the evicted docs to readers pinning it.
  EXPECT_TRUE(idx.Score(0, 1, &score));
  EXPECT_EQ(idx.total_postings(), 5u);
}

TEST(InvertedIndex, SuccessorReplacesTermLists) {
  InvertedIndex idx;
  idx.Add(0, 1, 1.0);
  idx.Add(0, 2, 2.0);
  idx.Add(1, 1, 9.0);
  idx.Finalize();

  // The live maintainer's per-term refresh: drop and re-derive one term.
  std::vector<TermId> terms = {0};
  std::vector<InvertedIndex::TermList> lists;
  lists.push_back(List({{3, 7.0}}));
  const InvertedIndex next = idx.Successor(terms, std::move(lists), 0, nullptr);

  ASSERT_EQ(next.postings(0).size(), 1u);
  EXPECT_EQ(next.postings(0)[0].doc, 3u);
  EXPECT_EQ(next.total_postings(), 2u);
  double score = 0.0;
  EXPECT_FALSE(next.Score(0, 1, &score));  // old table entries are gone
  EXPECT_TRUE(next.Score(0, 3, &score));
  EXPECT_TRUE(next.Score(1, 1, &score));   // untouched term unaffected

  // Replacing a term with nothing leaves a clean empty slot.
  terms = {1};
  lists.clear();
  lists.push_back(nullptr);
  const InvertedIndex emptied =
      next.Successor(terms, std::move(lists), 0, nullptr);
  EXPECT_TRUE(emptied.postings(1).empty());
  EXPECT_FALSE(emptied.Score(1, 1, &score));
  EXPECT_EQ(emptied.total_postings(), 1u);
}

TEST(InvertedIndex, RandomizedAppendEvictInterleavingsMatchRebuild) {
  // The live-feed shape, randomized: rounds of "evict an id prefix, append
  // postings for fresh docs, re-score a few standing terms", each round
  // one successor generation (appended and re-scored terms swap in freshly
  // frozen lists; evicted-from terms re-freeze inside Successor, across a
  // pool). After every round the successor must be indistinguishable from
  // an index rebuilt from scratch over the surviving postings, bump the
  // generation exactly once, and share every list the round left alone.
  constexpr size_t kTerms = 12;
  Rng rng(2024);
  ThreadPool pool(ThreadPoolOptions{2, false});
  InvertedIndex incremental;
  std::vector<std::vector<Posting>> live(kTerms);  // per-term surviving docs

  DocId next_doc = 0;
  DocId min_live = 0;
  for (int round = 0; round < 40; ++round) {
    // Evict: advance the live floor past a random slice of current docs.
    DocId evict_before = 0;
    if (round > 0 && rng.Bernoulli(0.7)) {
      min_live += static_cast<DocId>(rng.NextUint64(4));
      evict_before = min_live;
      for (auto& plist : live) {
        std::erase_if(plist,
                      [&](const Posting& p) { return p.doc < min_live; });
      }
    }

    // Append: a few new docs, each scoring on a few random distinct terms
    // (each (term, doc) pair at most once — colliding draws are dropped).
    std::vector<bool> touched(kTerms, false);
    const size_t docs = 1 + rng.NextUint64(3);
    std::vector<TermId> doc_terms;
    for (size_t d = 0; d < docs; ++d) {
      const DocId doc = next_doc++;
      if (doc < min_live) continue;
      const size_t hits = 1 + rng.NextUint64(3);
      doc_terms.clear();
      for (size_t h = 0; h < hits; ++h) {
        const TermId term = static_cast<TermId>(rng.NextUint64(kTerms));
        if (std::find(doc_terms.begin(), doc_terms.end(), term) !=
            doc_terms.end()) {
          continue;
        }
        doc_terms.push_back(term);
        live[term].push_back(Posting{doc, rng.Uniform(0.1, 5.0)});
        touched[term] = true;
      }
    }
    // Replace: re-score every surviving posting of a random term.
    if (rng.Bernoulli(0.5)) {
      const TermId term = static_cast<TermId>(rng.NextUint64(kTerms));
      for (Posting& p : live[term]) p.score = rng.Uniform(0.1, 5.0);
      touched[term] = true;
    }

    std::vector<TermId> terms;
    std::vector<InvertedIndex::TermList> lists;
    for (TermId t = 0; t < kTerms; ++t) {
      if (!touched[t]) continue;
      terms.push_back(t);
      lists.push_back(List(live[t]));
    }
    const InvertedIndex next = incremental.Successor(
        terms, std::move(lists), evict_before, &pool);
    ASSERT_EQ(next.generation(), incremental.generation() + 1)
        << "round " << round;

    InvertedIndex rebuilt;
    for (TermId t = 0; t < kTerms; ++t) {
      for (const Posting& p : live[t]) rebuilt.Add(t, p.doc, p.score);
    }
    rebuilt.Finalize();
    ExpectIdenticalIndexes(next, rebuilt);

    for (TermId t = 0; t < kTerms; ++t) {
      const TermPostings* before = incremental.term_list(t);
      const bool evicted_from =
          before != nullptr && before->min_doc() < evict_before;
      if (!touched[t] && !evicted_from) {
        EXPECT_EQ(next.term_list(t), before) << "round " << round;
      }
    }
    incremental = next;
  }
}

TEST(InvertedIndex, FlatScoreAgreesWithPostings) {
  // The flat random-access table against the sorted list, for every
  // (term, doc) pair of a doc range that includes absent docs: dense
  // consecutive ids (a time-ordered feed), sparse random ids, long lists
  // (many probe chains), and one-posting lists (the smallest table).
  Rng rng(77);
  InvertedIndex idx;
  constexpr DocId kDocs = 30000;
  constexpr TermId kTerms = 6;
  for (DocId doc = 0; doc < kDocs; ++doc) {
    if (rng.Bernoulli(0.9)) idx.Add(0, doc, rng.Uniform(0.1, 5.0));  // dense
    if (rng.Bernoulli(0.05)) idx.Add(1, doc, rng.Uniform(0.1, 5.0));
    if (doc % 97 == 0) idx.Add(2, doc, 1.0);  // all-tied scores
  }
  idx.Add(3, kDocs / 2, 2.5);  // single posting
  idx.Add(4, 0, 0.25);         // single posting at doc 0
  idx.Finalize();

  std::vector<double> truth(kDocs + 16);
  for (TermId t = 0; t < kTerms; ++t) {
    std::fill(truth.begin(), truth.end(), -1.0);
    for (const Posting& p : idx.postings(t)) truth[p.doc] = p.score;
    for (DocId doc = 0; doc < truth.size(); ++doc) {
      double score = -1.0;
      const bool found = idx.Score(t, doc, &score);
      ASSERT_EQ(found, truth[doc] >= 0.0) << "term " << t << " doc " << doc;
      if (found) EXPECT_EQ(score, truth[doc]) << "term " << t << " doc " << doc;
    }
    double unused = 0.0;
    EXPECT_FALSE(idx.Score(t, kInvalidDoc - 1, &unused));
  }
  EXPECT_EQ(idx.term_list(5), nullptr);
}

TEST(PatternIndex, OverlapSemantics) {
  PatternIndex pidx;
  pidx.Add(7, TermPattern{{2, 5, 9}, Interval{10, 20}, 1.5});

  double score = 0.0;
  // Stream and time both inside.
  EXPECT_TRUE(pidx.MaxOverlapScore(7, 5, 15, &score));
  EXPECT_DOUBLE_EQ(score, 1.5);
  // Wrong stream.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 4, 15, &score));
  // Outside timeframe.
  EXPECT_FALSE(pidx.MaxOverlapScore(7, 5, 21, &score));
  // Unknown term.
  EXPECT_FALSE(pidx.MaxOverlapScore(8, 5, 15, &score));
}

TEST(PatternIndex, MaxScoreAcrossOverlappingPatterns) {
  PatternIndex pidx;
  pidx.Add(0, TermPattern{{1}, Interval{0, 30}, 0.5});
  pidx.Add(0, TermPattern{{1, 2}, Interval{10, 20}, 2.0});
  double score = 0.0;
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 15, &score));
  EXPECT_DOUBLE_EQ(score, 2.0);  // max, not sum or first
  ASSERT_TRUE(pidx.MaxOverlapScore(0, 1, 25, &score));
  EXPECT_DOUBLE_EQ(score, 0.5);  // only the broad pattern covers t=25
}

TEST(PatternIndex, AddersFromMinerOutputs) {
  PatternIndex pidx;
  CombinatorialPattern cp;
  cp.streams = {3, 1};
  cp.timeframe = {5, 8};
  cp.score = 1.0;
  pidx.AddCombinatorial(0, cp);

  SpatiotemporalWindow w;
  w.streams = {2};
  w.timeframe = {1, 2};
  w.score = 0.7;
  pidx.AddWindow(1, w);

  // Streams sorted on insertion, so binary search works.
  double score = 0.0;
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 1, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(0, 3, 6, &score));
  EXPECT_TRUE(pidx.MaxOverlapScore(1, 2, 1, &score));
  EXPECT_EQ(pidx.total_patterns(), 2u);
  EXPECT_EQ(pidx.num_terms_with_patterns(), 2u);
}

}  // namespace
}  // namespace stburst
