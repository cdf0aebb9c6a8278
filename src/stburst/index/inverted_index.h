// Score-sorted inverted index (paper §5): term -> documents ranked by their
// per-term score, supporting both the sorted access the Threshold Algorithm
// scans and the random access it probes. Persistent: generations share
// their immutable per-term lists (see InvertedIndex::Successor).

#ifndef STBURST_INDEX_INVERTED_INDEX_H_
#define STBURST_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "stburst/stream/types.h"

namespace stburst {

class ThreadPool;

/// One entry of a term's posting list.
struct Posting {
  DocId doc = kInvalidDoc;
  double score = 0.0;
};

/// One term's frozen posting list: the postings in descending-score order
/// (ties by ascending DocId) plus a flat open-addressing table for random
/// access — 8-byte (DocId, rank) slots at load <= 0.5 in one allocation.
/// Immutable, so every generation that did not replace the term shares it.
class TermPostings {
 public:
  /// Sorts `postings` into score order and builds the lookup table; each
  /// doc at most once. nullptr for an empty list. O(n log n).
  static std::shared_ptr<const TermPostings> Freeze(
      std::vector<Posting> postings);

  /// This list without the docs < `min_live_doc`, in the same order (no
  /// re-sort); nullptr when nothing survives. O(n).
  std::shared_ptr<const TermPostings> EvictBefore(DocId min_live_doc) const;

  const std::vector<Posting>& postings() const { return postings_; }

  /// Random access: the score of `doc`; false if it has no posting here.
  bool Score(DocId doc, double* score) const;

  /// Smallest DocId in the list.
  DocId min_doc() const { return min_doc_; }

  explicit TermPostings(std::vector<Posting> sorted);  // use Freeze

 private:
  struct Slot {
    DocId doc;      // kInvalidDoc marks an empty slot
    uint32_t rank;  // position of doc in postings_
  };
  static_assert(sizeof(Slot) == 8);

  size_t SlotOf(DocId doc) const;

  std::vector<Posting> postings_;
  std::unique_ptr<Slot[]> table_;
  size_t mask_ = 0;  // table capacity - 1
  DocId min_doc_ = kInvalidDoc;
};

/// A vector of shared per-term lists (nullptr: no postings) plus a
/// generation number. Built in one shot — Add() everything, Finalize() —
/// or by succession from a frozen index (the live read plane; see
/// docs/ARCHITECTURE.md "Snapshot lifecycle"). A frozen index is const and
/// safe from any number of threads, Successor() included; Add/Finalize are
/// writers and must be externally serialized against them.
class InvertedIndex {
 public:
  using TermList = std::shared_ptr<const TermPostings>;

  /// Records that `doc` scores `score` for `term`. Must precede Finalize().
  /// Each (term, doc) pair must be added at most once. Amortized O(1).
  void Add(TermId term, DocId doc, double score);

  /// Freezes every term's postings (sort + lookup table) and bumps
  /// generation(). Idempotent: a second call changes nothing.
  void Finalize();

  /// The next generation (generation() + 1), leaving this one untouched:
  /// a copy of the term-pointer array in which `terms[i]` takes `lists[i]`
  /// and then, when `min_live_doc` > 0, every list holding a doc below it
  /// is re-frozen without those docs across `pool` (nullptr: inline; fault
  /// site `index.evict`). Every other list is shared, not copied. Requires
  /// no pending Add(); an index nobody added to is the empty generation 0.
  /// O(num_terms) pointer copies + O(postings of the lists it builds).
  InvertedIndex Successor(std::span<const TermId> terms,
                          std::vector<TermList> lists, DocId min_live_doc,
                          ThreadPool* pool) const;

  /// 1 after Finalize(), the predecessor's + 1 after Successor(). Cached
  /// query results carry it and are recomputed when it moved.
  uint64_t generation() const { return generation_; }

  /// Sorted postings of a term (empty if none). Requires a frozen index.
  const std::vector<Posting>& postings(TermId term) const;

  /// Random access: the score of `doc` for `term`; false if absent.
  /// Requires a frozen index.
  bool Score(TermId term, DocId doc, double* score) const;

  /// The shared list of `term`, nullptr if it has none; two generations
  /// share a term's list exactly when these pointers are equal.
  const TermPostings* term_list(TermId term) const {
    return term < lists_.size() ? lists_[term].get() : nullptr;
  }

  size_t num_terms() const { return lists_.size(); }
  size_t total_postings() const { return total_postings_; }
  bool finalized() const { return finalized_; }

 private:
  bool finalized_ = false;
  uint64_t generation_ = 0;
  size_t total_postings_ = 0;
  std::vector<TermList> lists_;  // indexed by TermId
  std::vector<std::vector<Posting>> pending_;  // Add()ed, not yet frozen
};

}  // namespace stburst

#endif  // STBURST_INDEX_INVERTED_INDEX_H_
