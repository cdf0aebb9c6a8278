// Workload definitions and input generation for the end-to-end benchmark.
// Every input is generated before any timing starts, deterministically from
// the workload seed; the runtime under test receives only these inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "stburst/common/random.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/stream/collection.h"

namespace perfbench {

using stburst::Collection;
using stburst::Snapshot;
using stburst::SnapshotDocument;
using stburst::StreamId;
using stburst::TermId;

/// One workload: the runtime, its load shape and its threads. Pool threads
/// plus reader threads never exceed the 4 cores the workloads are sized
/// for. Why each workload exists: README.md, "Workloads".
struct WorkloadSpec {
  const char* name = "";
  bool sharded = false;        ///< ShardedRuntime (K = 4) instead of one
  bool evicting = true;        ///< retention window = the corpus timeline
  /// Snapshots arrive every tick_period_s for the run's seconds (open
  /// loop) instead of back to back; the closed loop ticks exactly
  /// max_snapshots snapshots, however long they take.
  bool open_loop_ticks = false;
  double tick_period_s = 0.0;
  size_t max_snapshots = 0;
  double snapshot_weeks = 1.0;  ///< snapshot size as a share of one week
  size_t pool_threads = 3;     ///< FeedRuntimeOptions::num_threads
  size_t readers = 1;          ///< open-loop query threads
};

inline constexpr size_t kShards = 4;
inline constexpr size_t kTopK = 10;
/// Offered query rate per reader, as a share of one reader's uncached
/// capacity measured on the initial snapshot (README.md, "Load shape").
inline constexpr double kLoadFactor = 0.25;
/// Queries per reader stream; a reader cycles through its stream.
inline constexpr size_t kReaderStream = size_t{1} << 16;
inline constexpr int kSetupRepeats = 3;  ///< Creates; setup_s is the median

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec serving;
    serving.name = "serving";
    // A fixed count, below the corpus timeline (48): every tick of the
    // run evicts out-of-order history, so the per-tick work stays in one
    // regime, and a faster build times the same ticks as its parent.
    serving.max_snapshots = 40;
    w.push_back(serving);

    WorkloadSpec query_heavy;
    query_heavy.name = "query_heavy";
    query_heavy.evicting = false;
    query_heavy.open_loop_ticks = true;
    // About 1.6x the small tick's p50 on the reference host (~300 ms), so
    // the runtime keeps up; an assumption, not a rate taken from a feed.
    query_heavy.tick_period_s = 0.5;
    query_heavy.snapshot_weeks = 0.05;
    query_heavy.pool_threads = 2;
    query_heavy.readers = 2;
    w.push_back(query_heavy);

    WorkloadSpec sharded = serving;
    sharded.name = "sharded";
    sharded.sharded = true;
    w.push_back(sharded);
    return w;
  }();
  return kWorkloads;
}

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The corpus configuration the repository's harnesses share (181 country
/// streams, 48 weeks, ~150k documents, ~20k terms). The corpus is the
/// benchmark's fixed dataset, like the paper's one crawl: its seed does not
/// follow the workload seed, which varies the live feed and the query
/// draws instead. (Across corpus seeds the per-tick work itself moves by
/// ~10%, which would drown the run-to-run comparison.)
inline constexpr uint64_t kCorpusSeed = 7;

inline stburst::TopixOptions CorpusOptions() {
  stburst::TopixOptions o;
  o.seed = kCorpusSeed;
  o.mean_docs_per_week = 6.0;
  o.background_vocab = 20000;
  o.use_mds = true;
  return o;
}

/// The same documents re-filed in nondecreasing time order (what
/// ShardedRuntime::Create requires). Streams, term ids and the order of
/// documents within one timestamp are preserved.
inline Collection TimeSorted(const Collection& corpus) {
  Collection sorted =
      std::move(Collection::Create(corpus.timeline_length())).value();
  for (const auto& info : corpus.streams()) {
    sorted.AddStream(info.name, info.geo, info.position);
  }
  for (size_t t = 0; t < corpus.vocabulary().size(); ++t) {
    sorted.mutable_vocabulary()->Intern(
        corpus.vocabulary().TermOf(static_cast<TermId>(t)));
  }
  std::vector<size_t> order(corpus.num_documents());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus.documents()[a].time < corpus.documents()[b].time;
  });
  for (size_t i : order) {
    const auto& d = corpus.documents()[i];
    if (!sorted.AddDocument(d.stream, d.time, d.tokens, d.event_id).ok()) {
      std::fprintf(stderr, "perfbench: re-filing the corpus failed\n");
      std::exit(1);
    }
  }
  return sorted;
}

/// One generated snapshot plus how many of its documents are malformed
/// (unknown stream or out-of-vocabulary token) and must be quarantined.
struct GeneratedSnapshot {
  Snapshot docs;
  size_t malformed = 0;
};

/// The live feed: snapshot i is a seeded resample (with replacement) of
/// the corpus documents filed at week i mod L, `weeks` of that week's
/// volume, so the feed repeats the corpus's own document lengths, term
/// mix and event bursts. An evicting window then stays statistically
/// stationary as it slides (every tick replaces a week with a resample of
/// the same week), where bench_micro's short synthetic documents would
/// shrink every posting list across a run. Event labels are dropped (a
/// repeated label is a duplicate report). One document in 500 (at least
/// one per snapshot) is malformed: an unknown stream or an
/// out-of-vocabulary token, interleaved at a fixed stride.
inline std::vector<GeneratedSnapshot> MakeSnapshots(const Collection& corpus,
                                                    double weeks, size_t count,
                                                    uint64_t seed) {
  stburst::Rng rng(seed ^ 0x5eedf00dULL);
  const size_t streams = corpus.num_streams();
  const size_t vocab = corpus.vocabulary().size();
  const size_t timeline = static_cast<size_t>(corpus.timeline_length());
  std::vector<std::vector<size_t>> by_week(timeline);
  for (size_t d = 0; d < corpus.num_documents(); ++d) {
    by_week[static_cast<size_t>(corpus.documents()[d].time)].push_back(d);
  }
  std::vector<GeneratedSnapshot> out(count);
  for (size_t i = 0; i < count; ++i) {
    GeneratedSnapshot& snap = out[i];
    const std::vector<size_t>& week = by_week[i % timeline];
    const size_t docs = std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(weeks * static_cast<double>(week.size()))));
    const size_t malformed = std::max<size_t>(1, docs / 500);
    snap.docs.reserve(docs + malformed);
    for (size_t d = 0; d < docs && !week.empty(); ++d) {
      const auto& src = corpus.documents()[week[rng.NextUint64(week.size())]];
      SnapshotDocument doc;
      doc.stream = src.stream;
      doc.tokens = src.tokens;
      snap.docs.push_back(std::move(doc));
    }
    for (size_t m = 0; m < malformed; ++m) {
      SnapshotDocument bad;
      if (m % 2 == 0) {
        bad.stream = static_cast<StreamId>(streams + m);
        bad.tokens = {TermId{0}};
      } else {
        bad.stream = 0;
        bad.tokens = {static_cast<TermId>(vocab + m)};
      }
      const size_t at = (m + 1) * snap.docs.size() / (malformed + 1);
      snap.docs.insert(snap.docs.begin() + static_cast<std::ptrdiff_t>(at),
                       std::move(bad));
    }
    snap.malformed = malformed;
  }
  return out;
}

/// The query panel: the simulator's 18 Major Event queries (the paper's
/// §6 query set) plus 2-3-term queries over the corpus's most frequent
/// terms, in a fixed shuffled order that ranks them for the Zipf draw.
/// Like the corpus, the panel is part of the fixed dataset.
inline std::vector<std::vector<TermId>> MakePanel(
    const stburst::TopixSimulator& sim, size_t size = 256) {
  const Collection& corpus = sim.collection();
  std::vector<std::vector<TermId>> panel;
  std::set<std::vector<TermId>> seen;
  for (size_t e = 0; e < sim.events().size(); ++e) {
    std::vector<TermId> q = sim.QueryTerms(e);
    if (!q.empty() && seen.insert(q).second) panel.push_back(std::move(q));
  }
  std::vector<double> mass(corpus.vocabulary().size(), 0.0);
  for (const auto& doc : corpus.documents()) {
    for (TermId t : doc.tokens) mass[t] += 1.0;
  }
  std::vector<TermId> by_mass(mass.size());
  std::iota(by_mass.begin(), by_mass.end(), TermId{0});
  std::stable_sort(by_mass.begin(), by_mass.end(),
                   [&](TermId a, TermId b) { return mass[a] > mass[b]; });
  const size_t top = std::min<size_t>(64, by_mass.size());
  stburst::Rng rng(kCorpusSeed ^ 0x9a4e1ULL);
  while (panel.size() < size && top >= 3) {
    std::vector<TermId> q;
    const size_t len = 2 + rng.NextUint64(2);
    while (q.size() < len) {
      const TermId t = by_mass[rng.NextUint64(top)];
      if (std::find(q.begin(), q.end(), t) == q.end()) q.push_back(t);
    }
    std::sort(q.begin(), q.end());
    if (seen.insert(q).second) panel.push_back(std::move(q));
  }
  // Seeded ranking: which queries are the hot head of the Zipf draw.
  for (size_t i = panel.size(); i > 1; --i) {
    std::swap(panel[i - 1], panel[rng.NextUint64(i)]);
  }
  return panel;
}

/// A reader's query sequence: panel indices drawn Zipf(1.0) over the
/// panel's ranking, so the head repeats (cache hits within a generation)
/// and the long tail misses.
inline std::vector<uint32_t> ZipfStream(size_t panel_size, size_t count,
                                        uint64_t seed) {
  std::vector<double> cdf(panel_size);
  double total = 0.0;
  for (size_t r = 0; r < panel_size; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  stburst::Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (uint32_t& q : out) {
    const double u = rng.NextDouble() * total;
    q = static_cast<uint32_t>(
        std::min<size_t>(panel_size - 1, static_cast<size_t>(
                                             std::lower_bound(cdf.begin(),
                                                              cdf.end(), u) -
                                             cdf.begin())));
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
