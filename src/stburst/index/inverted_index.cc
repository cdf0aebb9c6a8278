#include "stburst/index/inverted_index.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "stburst/common/fault_injection.h"
#include "stburst/common/logging.h"
#include "stburst/common/parallel.h"

namespace stburst {

namespace {

const std::vector<Posting> kEmpty;

bool ScoreOrder(const Posting& a, const Posting& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

}  // namespace

TermPostings::TermPostings(std::vector<Posting> sorted)
    : postings_(std::move(sorted)) {
  // Capacity: the power of two >= 2n, so the load stays <= 0.5 and a miss
  // (TA probes absent docs as often as present ones) ends within a couple
  // of slots. Multiplicative hashing spreads the dense, consecutive DocIds
  // of a time-ordered feed evenly over the table.
  const size_t capacity =
      std::bit_ceil(std::max<size_t>(2, 2 * postings_.size()));
  mask_ = capacity - 1;
  table_ = std::make_unique_for_overwrite<Slot[]>(capacity);
  std::fill_n(table_.get(), capacity, Slot{kInvalidDoc, 0});
  for (size_t rank = 0; rank < postings_.size(); ++rank) {
    const DocId doc = postings_[rank].doc;
    min_doc_ = std::min(min_doc_, doc);
    size_t slot = SlotOf(doc);
    while (table_[slot].doc != kInvalidDoc) slot = (slot + 1) & mask_;
    table_[slot] = Slot{doc, static_cast<uint32_t>(rank)};
  }
}

size_t TermPostings::SlotOf(DocId doc) const {
  return ((uint64_t{doc} * 0x9E3779B97F4A7C15ull) >> 32) & mask_;
}

std::shared_ptr<const TermPostings> TermPostings::Freeze(
    std::vector<Posting> postings) {
  if (postings.empty()) return nullptr;
  std::sort(postings.begin(), postings.end(), ScoreOrder);
  return std::make_shared<const TermPostings>(std::move(postings));
}

std::shared_ptr<const TermPostings> TermPostings::EvictBefore(
    DocId min_live_doc) const {
  std::vector<Posting> survivors;
  std::copy_if(postings_.begin(), postings_.end(),
               std::back_inserter(survivors),
               [&](const Posting& p) { return p.doc >= min_live_doc; });
  if (survivors.empty()) return nullptr;
  return std::make_shared<const TermPostings>(std::move(survivors));
}

bool TermPostings::Score(DocId doc, double* score) const {
  for (size_t slot = SlotOf(doc);; slot = (slot + 1) & mask_) {
    const Slot& s = table_[slot];
    if (s.doc == doc) {
      *score = postings_[s.rank].score;
      return true;
    }
    if (s.doc == kInvalidDoc) return false;
  }
}

void InvertedIndex::Add(TermId term, DocId doc, double score) {
  STB_CHECK(!finalized_) << "Add after Finalize";
  if (term >= pending_.size()) pending_.resize(term + 1);
  pending_[term].push_back(Posting{doc, score});
  ++total_postings_;
}

void InvertedIndex::Finalize() {
  if (finalized_) return;
  lists_.resize(pending_.size());
  for (size_t t = 0; t < pending_.size(); ++t) {
    lists_[t] = TermPostings::Freeze(std::move(pending_[t]));
  }
  pending_ = {};
  finalized_ = true;
  ++generation_;
}

InvertedIndex InvertedIndex::Successor(std::span<const TermId> terms,
                                       std::vector<TermList> lists,
                                       DocId min_live_doc,
                                       ThreadPool* pool) const {
  STB_CHECK(pending_.empty()) << "Successor with pending Add()s";
  STB_CHECK(terms.size() == lists.size()) << "terms and lists differ in size";
  InvertedIndex next;
  next.finalized_ = true;
  next.generation_ = generation_ + 1;
  next.total_postings_ = total_postings_;
  next.lists_ = lists_;
  const auto swap_in = [&next](TermId t, TermList list) {
    if (t >= next.lists_.size()) next.lists_.resize(t + 1);
    TermList& slot = next.lists_[t];
    next.total_postings_ -= slot != nullptr ? slot->postings().size() : 0;
    next.total_postings_ += list != nullptr ? list->postings().size() : 0;
    slot = std::move(list);
  };
  for (size_t i = 0; i < terms.size(); ++i) swap_in(terms[i], std::move(lists[i]));
  if (min_live_doc == 0) return next;

  // In a tick the lists still holding evicted docs belong to terms a
  // degraded predecessor deferred: every other term that lost a doc was
  // re-scored and swapped in above. Each re-freeze reads the shared list
  // and writes its own staging slot, so the pool needs no synchronization.
  STBURST_FAULT_POINT_THROW("index.evict");
  std::vector<TermId> stale;
  for (TermId t = 0; t < next.lists_.size(); ++t) {
    const TermList& list = next.lists_[t];
    if (list != nullptr && list->min_doc() < min_live_doc) stale.push_back(t);
  }
  std::vector<TermList> refrozen(stale.size());
  ParallelFor(pool, 0, stale.size(), [&](size_t, size_t i) {
    refrozen[i] = next.lists_[stale[i]]->EvictBefore(min_live_doc);
  });
  for (size_t i = 0; i < stale.size(); ++i) {
    swap_in(stale[i], std::move(refrozen[i]));
  }
  return next;
}

const std::vector<Posting>& InvertedIndex::postings(TermId term) const {
  STB_CHECK(finalized_) << "postings before Finalize";
  const TermPostings* list = term_list(term);
  return list != nullptr ? list->postings() : kEmpty;
}

bool InvertedIndex::Score(TermId term, DocId doc, double* score) const {
  STB_CHECK(finalized_) << "Score before Finalize";
  const TermPostings* list = term_list(term);
  return list != nullptr && list->Score(doc, score);
}

}  // namespace stburst
