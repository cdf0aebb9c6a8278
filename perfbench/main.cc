// perfbench — end-to-end benchmark of the live burst-search service.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <prefix>]
//
// Generates the workload's inputs from the seed, creates the runtime at the
// serving configuration (combinatorial search serving, in-memory cold tier,
// 1024-entry query cache, refresh budget 64, no tick deadline), measures
// the offered query rate from uncached TA capacity, then runs ticks and
// open-loop readers side by side (a fixed set of snapshots in closed loop,
// the given seconds in open loop) and checks the outputs afterwards. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it re-runs the same load with spans around each layer's
// public calls and reports the per-layer metrics. The last stdout line is
// the result JSON; README.md documents every metric.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/prctl.h>

#include "host.h"
#include "inputs.h"
#include "stats.h"
#include "stburst/common/parallel.h"
#include "stburst/core/batch_miner.h"
#include "stburst/core/discrepancy.h"
#include "stburst/core/expected.h"
#include "stburst/gen/topix_sim.h"
#include "stburst/history/cold_tier.h"
#include "stburst/index/threshold_algorithm.h"
#include "stburst/stream/feed_runtime.h"
#include "stburst/stream/frequency.h"
#include "stburst/stream/shard_map.h"
#include "stburst/stream/sharded_runtime.h"
#include "trace.h"

namespace perfbench {
namespace {

using stburst::BatchMineResult;
using stburst::BatchMinerOptions;
using stburst::FeedRuntime;
using stburst::FeedRuntimeOptions;
using stburst::FeedTickStats;
using stburst::FrequencyIndex;
using stburst::IndexSnapshot;
using stburst::ShardedRuntime;
using stburst::ShardedRuntimeOptions;
using stburst::ShardedSearchView;
using stburst::ShardMap;
using stburst::Status;
using stburst::StatusOr;
using stburst::Timestamp;
using stburst::TopKResult;

constexpr size_t kRefreshBudget = 64;
constexpr double kMinIntervalBurstiness = 0.1;
// Output checks: pinned generations per reader and queries kept per pin.
constexpr size_t kPinsPerReader = 2;
constexpr size_t kQueriesPerPin = 48;
// Passes over the panel that measure one reader's uncached capacity.
constexpr size_t kCalibrationPasses = 11;
// Traced-run extras: snapshots replayed through the layer calls, ticks of
// the 1-thread / N-thread speedup control, TA replay length, regional
// re-mine sample.
constexpr size_t kShadowTicks = 12;
constexpr size_t kSpeedupTicks = 3;
constexpr size_t kTaReplay = 2000;
constexpr size_t kRegionalSample = 256;

// ---------------------------------------------------------------- clock

/// Sleeps through long waits (the open-loop ticker between snapshots) and
/// spins through the last 2 ms: a reader (period 1 ms) never sleeps, so its
/// core stays awake and due times do not inherit wake-up latency, or query
/// latency would measure the scheduler.
void WaitUntilSeconds(double t) {
  for (;;) {
    const double left = t - NowSeconds();
    if (left <= 0.0) return;
    if (left > 2e-3) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 1e-3));
    }
  }
}

struct RealClock {
  double Now() const { return NowSeconds(); }
  void WaitUntil(double t) const { WaitUntilSeconds(t); }
};

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// ------------------------------------------------------ runtime adapters

FeedRuntimeOptions ServingOptions(const WorkloadSpec& spec,
                                  Timestamp timeline, size_t threads) {
  FeedRuntimeOptions o;
  o.miner.stcomb.min_interval_burstiness = kMinIntervalBurstiness;
  o.num_threads = threads;
  o.retention_window = spec.evicting ? timeline : 0;
  o.refresh_budget = kRefreshBudget;
  o.on_invalid = stburst::InvalidDocPolicy::kDropDocument;
  o.history_mode = stburst::HistoryMode::kInMemory;
  o.history_bucket_width = 4;
  o.search_serving = stburst::SearchServing::kCombinatorial;
  o.search_cache_entries = 1024;
  return o;
}

BatchMinerOptions MinerOptions(stburst::ThreadPool* pool) {
  BatchMinerOptions o;
  o.stcomb.min_interval_burstiness = kMinIntervalBurstiness;
  o.pool = pool;
  o.num_threads = 1;
  return o;
}

std::unique_ptr<stburst::ThreadPool> MakePool(size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<stburst::ThreadPool>(threads - 1);
}

// What the benchmark needs from each runtime type, in one place.
template <class R>
struct Adapter;

template <>
struct Adapter<FeedRuntime> {
  using Pinned = std::shared_ptr<const IndexSnapshot>;
  static StatusOr<FeedRuntime> Create(Collection corpus,
                                      const WorkloadSpec& spec,
                                      size_t threads) {
    const Timestamp timeline = corpus.timeline_length();
    return FeedRuntime::Create(std::move(corpus),
                               ServingOptions(spec, timeline, threads));
  }
  static Pinned Pin(const FeedRuntime& rt) { return rt.search_snapshot(); }
  static uint64_t Generation(const Pinned& p) { return p->generation; }
  static TopKResult Reference(const Pinned& p, const std::vector<TermId>& q) {
    return stburst::ExhaustiveTopK(p->index, q, kTopK);
  }
  static TopKResult Uncached(const Pinned& p, const std::vector<TermId>& q) {
    return stburst::ThresholdTopK(p->index, q, kTopK);
  }
  static size_t SearchPostings(const Pinned& p) {
    return p->index.total_postings();
  }
  static const FeedRuntime& Owner(const FeedRuntime& rt, TermId) { return rt; }
  static const stburst::TermPatterns& Patterns(const FeedRuntime& rt,
                                               TermId t) {
    return rt.patterns(t);
  }
  static Timestamp Staleness(const FeedRuntime& rt, TermId t) {
    return rt.staleness(t);
  }
  static size_t NumTerms(const FeedRuntime& rt) {
    return rt.index().num_terms();
  }
  static double PostingsMb(const FeedRuntime& rt) {
    return static_cast<double>(rt.index().PostingsMemoryBytes()) / 1e6;
  }
  static double HistoryRows(const FeedRuntime& rt) {
    const stburst::ColdTier* tier = rt.history();
    return tier == nullptr ? 0.0
                           : static_cast<double>(tier->delta_rows() +
                                                 tier->base_rows());
  }
  // Per-shard (frequency postings, search postings) for the skew figures;
  // an unsharded runtime reports the split a K = 4 ShardMap would make.
  static void ShardLoads(const FeedRuntime& rt, const Pinned& pinned,
                         std::vector<double>* postings,
                         std::vector<double>* search) {
    const ShardMap map(kShards);
    postings->assign(kShards, 0.0);
    search->assign(kShards, 0.0);
    for (TermId t = 0; t < rt.index().num_terms(); ++t) {
      (*postings)[map.shard_of(t)] +=
          static_cast<double>(rt.index().postings(t).size());
    }
    for (TermId t = 0; t < pinned->index.num_terms(); ++t) {
      (*search)[map.shard_of(t)] +=
          static_cast<double>(pinned->index.postings(t).size());
    }
  }
};

template <>
struct Adapter<ShardedRuntime> {
  struct PinnedView {
    std::shared_ptr<const ShardedSearchView> view;
    const ShardMap* map = nullptr;
  };
  using Pinned = PinnedView;
  static StatusOr<ShardedRuntime> Create(Collection corpus,
                                         const WorkloadSpec& spec,
                                         size_t threads) {
    ShardedRuntimeOptions o;
    o.runtime = ServingOptions(spec, corpus.timeline_length(), threads);
    o.num_shards = kShards;
    return ShardedRuntime::Create(std::move(corpus), std::move(o));
  }
  static Pinned Pin(const ShardedRuntime& rt) {
    return PinnedView{rt.search_view(), &rt.shard_map()};
  }
  static uint64_t Generation(const Pinned& p) { return p.view->generation; }
  static std::vector<stburst::ShardedTermList> Lists(
      const Pinned& p, const std::vector<TermId>& q) {
    std::vector<TermId> terms = q;
    std::sort(terms.begin(), terms.end());
    terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
    std::vector<stburst::ShardedTermList> lists;
    for (TermId t : terms) {
      const size_t s = p.map->shard_of(t);
      lists.push_back(stburst::ShardedTermList{t, &p.view->shards[s]->index,
                                               p.view->doc_maps[s].get(),
                                               p.view->local_bases[s]});
    }
    return lists;
  }
  // The exhaustive merge of the translated per-shard lists.
  static TopKResult Reference(const Pinned& p, const std::vector<TermId>& q) {
    std::unordered_map<stburst::DocId, double> scores;
    for (const stburst::ShardedTermList& l : Lists(p, q)) {
      for (const stburst::Posting& post : l.index->postings(l.term)) {
        scores[(*l.doc_map)[post.doc - l.local_base]] += post.score;
      }
    }
    TopKResult r;
    for (const auto& [doc, score] : scores) {
      if (score > 0.0) r.docs.push_back(stburst::ScoredDoc{doc, score});
    }
    std::sort(r.docs.begin(), r.docs.end(),
              [](const stburst::ScoredDoc& a, const stburst::ScoredDoc& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc < b.doc;
              });
    if (r.docs.size() > kTopK) r.docs.resize(kTopK);
    return r;
  }
  static TopKResult Uncached(const Pinned& p, const std::vector<TermId>& q) {
    return stburst::ShardedThresholdTopK(Lists(p, q), kTopK,
                                         p.view->generation);
  }
  static size_t SearchPostings(const Pinned& p) {
    size_t n = 0;
    for (const auto& s : p.view->shards) n += s->index.total_postings();
    return n;
  }
  static const FeedRuntime& Owner(const ShardedRuntime& rt, TermId t) {
    return rt.shard_for(t);
  }
  static const stburst::TermPatterns& Patterns(const ShardedRuntime& rt,
                                               TermId t) {
    return rt.patterns(t);
  }
  static Timestamp Staleness(const ShardedRuntime& rt, TermId t) {
    return rt.staleness(t);
  }
  static size_t NumTerms(const ShardedRuntime& rt) {
    return rt.shard(0).index().num_terms();
  }
  static double PostingsMb(const ShardedRuntime& rt) {
    double mb = 0.0;
    for (size_t s = 0; s < rt.num_shards(); ++s) {
      mb += Adapter<FeedRuntime>::PostingsMb(rt.shard(s));
    }
    return mb;
  }
  static double HistoryRows(const ShardedRuntime& rt) {
    double rows = 0.0;
    for (size_t s = 0; s < rt.num_shards(); ++s) {
      rows += Adapter<FeedRuntime>::HistoryRows(rt.shard(s));
    }
    return rows;
  }
  static void ShardLoads(const ShardedRuntime& rt, const Pinned& pinned,
                         std::vector<double>* postings,
                         std::vector<double>* search) {
    postings->assign(rt.num_shards(), 0.0);
    search->assign(rt.num_shards(), 0.0);
    for (size_t s = 0; s < rt.num_shards(); ++s) {
      const FrequencyIndex& idx = rt.shard(s).index();
      for (TermId t = 0; t < idx.num_terms(); ++t) {
        (*postings)[s] += static_cast<double>(idx.postings(t).size());
      }
      (*search)[s] =
          static_cast<double>(pinned.view->shards[s]->index.total_postings());
    }
  }
};

double Skew(const std::vector<double>& loads) {
  double max = 0.0, sum = 0.0;
  for (double v : loads) {
    max = std::max(max, v);
    sum += v;
  }
  return sum > 0.0 ? max / (sum / static_cast<double>(loads.size())) : 1.0;
}

// The repository's TA-vs-exhaustive rule (read-plane concurrency
// test): the same score sequence to 1e-9 and the same documents, except
// that documents tied at the k-th score may legally differ.
bool SameTopK(const TopKResult& got, const TopKResult& want) {
  if (got.docs.size() != want.docs.size()) return false;
  const double boundary = want.docs.empty() ? 0.0 : want.docs.back().score;
  for (size_t i = 0; i < got.docs.size(); ++i) {
    if (std::abs(got.docs[i].score - want.docs[i].score) >= 1e-9) return false;
    if (got.docs[i].doc != want.docs[i].doc &&
        std::abs(got.docs[i].score - boundary) >= 1e-9) {
      return false;
    }
  }
  return true;
}

bool BitIdentical(const stburst::TermPatterns& a,
                  const stburst::TermPatterns& b) {
  if (a.mined != b.mined || a.combinatorial.size() != b.combinatorial.size()) {
    return false;
  }
  for (size_t i = 0; i < a.combinatorial.size(); ++i) {
    const auto& x = a.combinatorial[i];
    const auto& y = b.combinatorial[i];
    if (x.streams != y.streams || x.timeframe != y.timeframe ||
        x.score != y.score) {
      return false;
    }
  }
  return true;
}

// The same pattern set: equal streams and timeframes, scores within the
// repository's 1e-9 TA tolerance, in any order among patterns. A slot
// mined over an earlier position of a length-preserving window can differ
// from a fresh mine in the last bit of a score and hence in the order of
// tied patterns; BitIdentical counts those separately.
bool SamePatternSet(const stburst::TermPatterns& a,
                    const stburst::TermPatterns& b) {
  if (a.mined != b.mined || a.combinatorial.size() != b.combinatorial.size()) {
    return false;
  }
  auto canonical = [](std::vector<stburst::CombinatorialPattern> v) {
    std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
      if (x.timeframe.start != y.timeframe.start) {
        return x.timeframe.start < y.timeframe.start;
      }
      if (x.timeframe.end != y.timeframe.end) {
        return x.timeframe.end < y.timeframe.end;
      }
      return x.streams < y.streams;
    });
    return v;
  };
  const auto x = canonical(a.combinatorial);
  const auto y = canonical(b.combinatorial);
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].streams != y[i].streams || x[i].timeframe != y[i].timeframe ||
        std::abs(x[i].score - y[i].score) >
            1e-9 * std::max(1.0, std::abs(y[i].score))) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ the inputs

struct Inputs {
  Collection corpus;  // what Create receives (time-sorted for sharded)
  std::vector<GeneratedSnapshot> snapshots;
  std::vector<std::vector<TermId>> panel;
  std::vector<std::vector<uint32_t>> reader_streams;
};

Inputs MakeInputs(const WorkloadSpec& spec, const Args& args) {
  // The simulator (and its copy of the corpus) is dropped once the inputs
  // are built, so it does not count towards rss_mb.peak.
  auto sim = stburst::TopixSimulator::Generate(CorpusOptions());
  if (!sim.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 sim.status().ToString().c_str());
    std::exit(1);
  }
  Inputs in{spec.sharded ? TimeSorted(sim->collection()) : sim->collection(),
            {}, {}, {}};
  const size_t count =
      spec.open_loop_ticks
          ? static_cast<size_t>(std::ceil(args.seconds / spec.tick_period_s)) +
                1
          : spec.max_snapshots;
  in.snapshots =
      MakeSnapshots(in.corpus, spec.snapshot_weeks, count, args.seed);
  in.panel = MakePanel(*sim);
  for (size_t r = 0; r < spec.readers; ++r) {
    in.reader_streams.push_back(ZipfStream(
        in.panel.size(), kReaderStream, args.seed * 1315423911ULL + r + 1));
  }
  return in;
}

// One reader's uncached capacity in queries per second: every panel query
// through uncached TA on the initial snapshot, on one thread, before timing
// starts. The fastest of several passes gives the mean service time; it
// follows the host's speed but not a momentary stall of one pass.
template <class R>
double UncachedCapacityQps(const R& rt, const Inputs& in) {
  using A = Adapter<R>;
  const typename A::Pinned pinned = A::Pin(rt);
  std::vector<double> passes;
  size_t answers = 0;
  for (size_t p = 0; p < kCalibrationPasses; ++p) {
    const double start = NowSeconds();
    for (const std::vector<TermId>& q : in.panel) {
      answers += A::Uncached(pinned, q).docs.size();
    }
    passes.push_back(NowSeconds() - start);
  }
  if (answers == 0) {
    std::fprintf(stderr, "the query panel matched no document\n");
    std::exit(1);
  }
  return static_cast<double>(in.panel.size()) /
         *std::min_element(passes.begin(), passes.end());
}

// --------------------------------------------------------- timed section

struct TickRecord {
  double due = 0.0, start = 0.0, finish = 0.0;
  bool ok = false;
  bool traced = false;
  FeedTickStats stats;
  double prepare_ms = 0.0, candidates_ms = 0.0, stage_ms = 0.0,
         commit_ms = 0.0;
};

template <class Pinned>
struct PinnedQueries {
  Pinned pinned;
  std::vector<std::pair<uint32_t, TopKResult>> queries;
};

template <class Pinned>
struct ReaderResult {
  std::vector<OpenLoopSample> samples;
  std::vector<PinnedQueries<Pinned>> pins;
};

template <class R>
struct TimedResult {
  using Pinned = typename Adapter<R>::Pinned;
  double t0 = 0.0;
  std::vector<TickRecord> ticks;
  std::vector<ReaderResult<Pinned>> readers;
  uint64_t generation_before = 0, generation_after = 0;
};

// One tick through the public phase API with a span per phase — exactly
// the composition FeedRuntime::Tick runs.
Status PhasedTick(FeedRuntime& rt, Snapshot snap, SpanRecorder* rec,
                  TickRecord* tick) {
  const uint32_t root = rec->Begin("runtime.tick");
  uint32_t span = rec->Begin("runtime.prepare", root);
  auto tx = rt.PrepareTickIngest(std::move(snap));
  tick->prepare_ms = rec->End(span) * 1e3;
  if (!tx.ok()) return tx.status();
  span = rec->Begin("runtime.candidates", root);
  std::vector<TermId> targets = FeedRuntime::SelectRefreshTargets(
      rt.RefreshCandidates(*tx), kRefreshBudget);
  tick->candidates_ms = rec->End(span) * 1e3;
  span = rec->Begin("runtime.stage", root);
  const Status staged = rt.StageTickDerived(&*tx, std::move(targets));
  tick->stage_ms = rec->End(span) * 1e3;
  if (!staged.ok()) {
    rt.AbortTick(std::move(*tx));
    return staged;
  }
  span = rec->Begin("runtime.commit", root);
  auto stats = rt.CommitTick(std::move(*tx));
  tick->commit_ms = rec->End(span) * 1e3;
  rec->End(root);
  if (!stats.ok()) return stats.status();
  tick->stats = *stats;
  return Status::OK();
}

// Runs the ticker (this thread) and the open-loop readers side by side,
// each reader offering `qps` queries per second. An open-loop ticker and
// the readers stop after `seconds`; a closed-loop ticker runs every
// snapshot and the readers stop when its last tick returns. With a
// recorder, every other tick is traced (phase API under FeedRuntime, one
// span around Tick under ShardedRuntime) so traced and untraced ticks
// share the same conditions.
template <class R>
TimedResult<R> RunTimed(R& rt, const WorkloadSpec& spec, const Inputs& in,
                        double seconds, double qps, SpanRecorder* rec) {
  using A = Adapter<R>;
  TimedResult<R> out;
  std::vector<Snapshot> snaps;
  snaps.reserve(in.snapshots.size());
  for (const GeneratedSnapshot& s : in.snapshots) snaps.push_back(s.docs);
  out.generation_before = A::Generation(A::Pin(rt));
  out.readers.resize(spec.readers);

  const double t0 = NowSeconds() + 0.02;
  const double t_end = t0 + seconds;
  out.t0 = t0;
  std::atomic<double> readers_end{spec.open_loop_ticks ? t_end : INFINITY};
  std::atomic<size_t> ticks_done{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < spec.readers; ++r) {
    readers.emplace_back([&, r] {
      ReaderResult<typename A::Pinned>& res = out.readers[r];
      const std::vector<uint32_t>& stream = in.reader_streams[r];
      const double period = 1.0 / qps;
      const double start = t0 + period * static_cast<double>(r) /
                                    static_cast<double>(spec.readers);
      // Pins spread over the run's ticks: the generation live at that
      // moment is held, and later answers from the same generation kept.
      const double planned = static_cast<double>(snaps.size());
      double next_pin = planned * (0.3 + 0.1 * static_cast<double>(r));
      TopKResult last;
      RealClock clock;
      res.samples = RunOpenLoop(
          clock, start, period, [&] { return readers_end.load(); },
          SIZE_MAX,
          [&](size_t i) {
            last = rt.Search(in.panel[stream[i % stream.size()]], kTopK);
          },
          [&](size_t i) {
            if (res.pins.size() < kPinsPerReader &&
                static_cast<double>(ticks_done.load()) >= next_pin) {
              res.pins.push_back({A::Pin(rt), {}});
              next_pin += planned * 0.45;
            }
            if (!res.pins.empty()) {
              auto& pin = res.pins.back();
              if (pin.queries.size() < kQueriesPerPin &&
                  last.generation == A::Generation(pin.pinned)) {
                pin.queries.emplace_back(stream[i % stream.size()],
                                         std::move(last));
              }
            }
          });
    });
  }

  WaitUntilSeconds(t0);
  for (size_t i = 0; i < snaps.size(); ++i) {
    TickRecord tick;
    if (spec.open_loop_ticks) {
      tick.due = t0 + spec.tick_period_s * static_cast<double>(i);
      if (tick.due >= t_end) break;
      WaitUntilSeconds(tick.due);
    } else {
      tick.due = NowSeconds();
    }
    tick.start = NowSeconds();
    tick.traced = rec != nullptr && i % 2 == 1;
    if (rec != nullptr) rec->NewTrace();
    Status status;
    if constexpr (std::is_same_v<R, FeedRuntime>) {
      if (tick.traced) {
        status = PhasedTick(rt, std::move(snaps[i]), rec, &tick);
      } else {
        auto stats = rt.Tick(std::move(snaps[i]));
        status = stats.ok() ? Status::OK() : stats.status();
        if (stats.ok()) tick.stats = *stats;
      }
    } else {
      const uint32_t span = tick.traced ? rec->Begin("sharded.tick") : 0;
      auto stats = rt.Tick(std::move(snaps[i]));
      if (tick.traced) rec->End(span);
      status = stats.ok() ? Status::OK() : stats.status();
      if (stats.ok()) tick.stats = *stats;
    }
    tick.finish = NowSeconds();
    tick.ok = status.ok() &&
              tick.stats.rejected_documents == in.snapshots[i].malformed;
    if (!status.ok()) {
      std::fprintf(stderr, "tick %zu failed: %s\n", i,
                   status.ToString().c_str());
    }
    out.ticks.push_back(tick);
    ticks_done.store(out.ticks.size());
  }
  if (!spec.open_loop_ticks) readers_end.store(NowSeconds());
  for (std::thread& t : readers) t.join();
  out.generation_after = A::Generation(A::Pin(rt));
  return out;
}

// ----------------------------------------------------------- layer replay

// The collection and index a runtime starts from, rebuilt through the
// public layer calls: the corpus with the retention window applied as
// Create applies it, then FrequencyIndex::BuildWithPool.
struct Replay {
  Collection col;
  FrequencyIndex idx;
  Timestamp window;  // 0: append-only
};

Replay StartReplay(const WorkloadSpec& spec, const Inputs& in,
                   stburst::ThreadPool* pool) {
  Collection col = in.corpus;
  const Timestamp window = spec.evicting ? col.timeline_length() : 0;
  if (window > 0 && col.timeline_length() > window) {
    (void)col.EvictBefore(col.timeline_length() - window);
  }
  FrequencyIndex idx = FrequencyIndex::BuildWithPool(col, pool);
  (void)idx.TakeDirtyTerms();
  return Replay{std::move(col), std::move(idx), window};
}

// What Tick files of a snapshot: validation under kDropDocument, then
// Collection::Append.
bool AppendValidated(Collection* col, Snapshot snap) {
  size_t rejected = 0;
  return stburst::ValidateSnapshotDocuments(
             col->num_streams(), col->vocabulary().size(),
             stburst::InvalidDocPolicy::kDropDocument, &snap, &rejected)
             .ok() &&
         col->Append(std::move(snap)).ok();
}

// The retention cutoff due after an append; 0 when nothing is evicted.
Timestamp EvictionCutoff(const Replay& r) {
  const Timestamp length = r.col.timeline_length();
  if (r.window == 0 || length <= r.window) return 0;
  return length - r.window > r.idx.window_start() ? length - r.window : 0;
}

// ---------------------------------------------------------- output checks

struct CheckResult {
  size_t query_checks = 0, query_failures = 0;
  // Slots mined by the last tick: bit-identical to a fresh re-mine.
  size_t fresh_checks = 0, fresh_failures = 0;
  // Quiet slots: the staleness contract (CheckOutputs).
  size_t quiet_checks = 0, quiet_failures = 0;
  // Printed, not checks: quiet slots against a fresh re-mine over the final
  // index, with a different pattern set, or equal up to last-bit scores
  // and tie order.
  size_t quiet_vs_fresh_different = 0, quiet_vs_fresh_last_bit = 0;
  size_t checks() const { return query_checks + fresh_checks + quiet_checks; }
  size_t failures() const {
    return query_failures + fresh_failures + quiet_failures;
  }
};

template <class R>
CheckResult CheckOutputs(const R& rt, const WorkloadSpec& spec,
                         const Inputs& in, TimedResult<R>* timed) {
  using A = Adapter<R>;
  CheckResult check;
  // Sampled queries against the exhaustive answer on the snapshot that
  // served them.
  for (auto& reader : timed->readers) {
    for (auto& pin : reader.pins) {
      for (const auto& [q, result] : pin.queries) {
        ++check.query_checks;
        if (!SameTopK(result, A::Reference(pin.pinned, in.panel[q]))) {
          ++check.query_failures;
        }
      }
      pin.pinned = {};  // release the generation
    }
  }
  // Every standing pattern slot against a fresh re-mine over the final
  // index of the owning runtime. Slots mined by the last tick must be
  // bit-identical to it.
  const size_t terms = A::NumTerms(rt);
  auto pool = MakePool(spec.pool_threads);
  std::map<const FeedRuntime*, std::vector<TermId>> by_owner;
  for (TermId t = 0; t < terms; ++t) by_owner[&A::Owner(rt, t)].push_back(t);
  std::vector<stburst::TermPatterns> fresh(terms);
  for (const auto& [owner, owned] : by_owner) {
    BatchMineResult mined;
    if (!stburst::RemineTerms(owner->index(), owned,
                              MinerOptions(pool.get()), &mined)
             .ok()) {
      mined.terms.clear();
    }
    for (TermId t : owned) {
      if (t < mined.terms.size()) fresh[t] = std::move(mined.terms[t]);
    }
  }
  // Quiet slots hold the staleness contract (docs/ARCHITECTURE.md): a term
  // with no new data keeps the patterns of its last mine. The run's
  // snapshots are replayed through the layer calls a tick is made of; each
  // quiet slot must be bit-identical to RemineTerms on the index as it
  // stood at the slot's last mine (state k = after k snapshots), and no
  // later snapshot may have made its term dirty.
  const size_t states = timed->ticks.size();
  std::map<size_t, std::vector<TermId>> by_state;
  for (TermId t = 0; t < terms; ++t) {
    const Timestamp stale = A::Staleness(rt, t);
    if (stale > 0 && static_cast<size_t>(stale) <= states) {
      by_state[states - static_cast<size_t>(stale)].push_back(t);
    }
  }
  Replay replay = StartReplay(spec, in, pool.get());
  std::vector<size_t> last_dirty(terms, 0);
  std::vector<stburst::TermPatterns> at_last_mine(terms);
  std::vector<bool> replayed(terms, false);
  auto mine_state = [&](size_t k) {
    const auto it = by_state.find(k);
    if (it == by_state.end()) return;
    BatchMineResult mined;
    if (!stburst::RemineTerms(replay.idx, it->second,
                              MinerOptions(pool.get()), &mined)
             .ok()) {
      return;
    }
    for (TermId t : it->second) {
      if (t < mined.terms.size()) {
        at_last_mine[t] = std::move(mined.terms[t]);
        replayed[t] = true;
      }
    }
  };
  mine_state(0);
  for (size_t k = 1; k <= states; ++k) {
    bool ok = AppendValidated(&replay.col, in.snapshots[k - 1].docs) &&
              replay.idx.AppendSnapshot(replay.col, pool.get()).ok();
    if (const Timestamp cutoff = EvictionCutoff(replay); ok && cutoff > 0) {
      ok = replay.col.EvictBefore(cutoff).ok() &&
           replay.idx.EvictBefore(cutoff, pool.get()).ok();
    }
    if (!ok) {
      std::fprintf(stderr, "layer replay failed at snapshot %zu\n", k - 1);
      break;
    }
    for (TermId t : replay.idx.TakeDirtyTerms()) {
      if (t < terms) last_dirty[t] = k;
    }
    mine_state(k);
  }
  for (TermId t = 0; t < terms; ++t) {
    const stburst::TermPatterns& standing = A::Patterns(rt, t);
    const Timestamp stale = A::Staleness(rt, t);
    if (stale == 0) {
      ++check.fresh_checks;
      if (!BitIdentical(standing, fresh[t])) ++check.fresh_failures;
      continue;
    }
    ++check.quiet_checks;
    if (!replayed[t] || last_dirty[t] > states - static_cast<size_t>(stale) ||
        !BitIdentical(standing, at_last_mine[t])) {
      ++check.quiet_failures;
    }
    if (!SamePatternSet(standing, fresh[t])) {
      ++check.quiet_vs_fresh_different;
    } else if (!BitIdentical(standing, fresh[t])) {
      ++check.quiet_vs_fresh_last_bit;
    }
  }
  return check;
}

// ------------------------------------------------------- traced extras

struct ShadowResult {
  std::vector<double> collection_append_ms, frequency_append_ms,
      frequency_evict_ms, history_fold_ms, miner_remine_ms;
  double remined_terms = 0.0, remine_seconds = 0.0;
  double sweep_s = 0.0;
  double stlocal_ms = 0.0, stlocal_terms = 0.0;
};

// Replays the run's snapshots through the public layer calls the tick is
// made of, timing each: Collection::Append (after validation),
// FrequencyIndex::AppendSnapshot on the pool, the retention eviction,
// ColdTier::FoldEvicted and RemineTerms on the dirty set. Then one
// regional (STLocal) re-mine of a sample of the last dirty set.
ShadowResult ShadowReplay(const WorkloadSpec& spec, const Inputs& in,
                          size_t ticks, SpanRecorder* rec) {
  ShadowResult out;
  auto pool = MakePool(spec.pool_threads);
  Replay replay = StartReplay(spec, in, pool.get());
  Collection& col = replay.col;
  FrequencyIndex& idx = replay.idx;
  const BatchMinerOptions miner = MinerOptions(pool.get());
  rec->NewTrace();
  uint32_t span = rec->Begin("miner.sweep");
  auto result = stburst::MineAllTerms(idx, miner);
  out.sweep_s = rec->End(span);
  if (!result.ok()) std::exit(1);
  auto tier = stburst::ColdTier::CreateInMemory(4);
  if (!tier.ok() || !tier->AttachAt(col.window_start()).ok()) std::exit(1);

  auto evict_and_fold = [&](Timestamp cutoff) {
    stburst::EvictionReport report;
    stburst::CollectionEvictUndo cundo;
    stburst::FrequencyEvictUndo fundo;
    uint32_t s = rec->Begin("frequency.evict");
    if (!col.EvictBefore(cutoff, &report, &cundo).ok() ||
        !idx.EvictBefore(cutoff, pool.get(), &fundo).ok()) {
      std::exit(1);
    }
    out.frequency_evict_ms.push_back(rec->End(s) * 1e3);
    stburst::ColdFoldUndo hundo;
    s = rec->Begin("history.fold");
    tier->FoldEvicted(fundo.removed, cutoff, &hundo);
    out.history_fold_ms.push_back(rec->End(s) * 1e3);
  };

  std::vector<TermId> last_dirty;
  for (size_t i = 0; i < ticks && i < in.snapshots.size(); ++i) {
    rec->NewTrace();
    Snapshot snap = in.snapshots[i].docs;
    span = rec->Begin("collection.append");
    if (!AppendValidated(&col, std::move(snap))) std::exit(1);
    out.collection_append_ms.push_back(rec->End(span) * 1e3);
    span = rec->Begin("frequency.append");
    if (!idx.AppendSnapshot(col, pool.get()).ok()) std::exit(1);
    out.frequency_append_ms.push_back(rec->End(span) * 1e3);
    if (const Timestamp cutoff = EvictionCutoff(replay); cutoff > 0) {
      evict_and_fold(cutoff);
    }
    span = rec->Begin("miner.remine");
    last_dirty = idx.TakeDirtyTerms();
    if (!stburst::RemineTerms(idx, last_dirty, miner, &*result).ok()) {
      std::exit(1);
    }
    const double s = rec->End(span);
    out.miner_remine_ms.push_back(s * 1e3);
    out.remine_seconds += s;
    out.remined_terms += static_cast<double>(last_dirty.size());
  }
  // Append-only workloads never evict: one probe eviction of the oldest
  // retained timestamp measures what the layer would cost at this size.
  if (replay.window == 0) {
    rec->NewTrace();
    evict_and_fold(idx.window_start() + 1);
  }

  // core/stlocal + core/discrepancy: regional mining of a dirty-set sample
  // with the standing binning a regional runtime lends its miner.
  std::vector<TermId> sample;
  const size_t stride =
      std::max<size_t>(1, last_dirty.size() / kRegionalSample);
  for (size_t i = 0; i < last_dirty.size() && sample.size() < kRegionalSample;
       i += stride) {
    sample.push_back(last_dirty[i]);
  }
  BatchMinerOptions regional = miner;
  regional.mine_combinatorial = false;
  regional.mine_regional = true;
  regional.positions = col.StreamPositions();
  regional.model_factory = stburst::WithPriorFloor(
      [] { return std::make_unique<stburst::GlobalMeanModel>(); }, 0.2);
  auto binning = stburst::SpatialBinning::Create(regional.positions,
                                                 regional.stlocal.rbursty.rect);
  if (!binning.ok()) std::exit(1);
  regional.binning = &*binning;
  BatchMineResult regional_result;
  rec->NewTrace();
  span = rec->Begin("stlocal.remine");
  if (!stburst::RemineTerms(idx, sample, regional, &regional_result).ok()) {
    std::exit(1);
  }
  out.stlocal_ms = rec->End(span) * 1e3;
  out.stlocal_terms = static_cast<double>(sample.size());
  return out;
}

// Tick time of the first few snapshots at 1 thread over the time at the
// workload's thread count, on fresh runtimes (same inputs, same state).
template <class R>
double ParallelSpeedup(const WorkloadSpec& spec, const Inputs& in) {
  auto tick_seconds = [&](size_t threads) {
    auto rt = Adapter<R>::Create(in.corpus, spec, threads);
    if (!rt.ok()) std::exit(1);
    double total = 0.0;
    for (size_t i = 0; i < kSpeedupTicks && i < in.snapshots.size(); ++i) {
      Snapshot snap = in.snapshots[i].docs;
      const double start = NowSeconds();
      if (!rt->Tick(std::move(snap)).ok()) std::exit(1);
      total += NowSeconds() - start;
    }
    return total;
  };
  const double t1 = tick_seconds(1);
  const double tn = tick_seconds(spec.pool_threads);
  return t1 / tn;
}

// ---------------------------------------------------------------- report

struct Report {
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

template <class R>
int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  using A = Adapter<R>;
  const HostFingerprint host = Fingerprint();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: %s\n", FingerprintJson(host).c_str());

  const double gen_start = NowSeconds();
  Inputs in = MakeInputs(spec, args);
  size_t snapshot_docs = 0, malformed_docs = 0;
  for (const GeneratedSnapshot& s : in.snapshots) {
    snapshot_docs += s.docs.size();
    malformed_docs += s.malformed;
  }
  std::printf("inputs: %zu documents, %zu streams, %zu terms, %d weeks; "
              "%zu snapshots, %zu docs each on average (%zu malformed in "
              "all); panel of %zu queries; generated in %.2f s\n",
              in.corpus.num_documents(), in.corpus.num_streams(),
              in.corpus.vocabulary().size(), in.corpus.timeline_length(),
              in.snapshots.size(), snapshot_docs / in.snapshots.size(),
              malformed_docs, in.panel.size(), NowSeconds() - gen_start);
  std::fflush(stdout);

  // Set-up: Create on the generated collection, several times; the copy of
  // the collection each Create consumes is made outside the timed region.
  std::vector<double> setups;
  std::unique_ptr<R> rt;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    rt.reset();
    Collection copy = in.corpus;
    const double start = NowSeconds();
    auto created = A::Create(std::move(copy), spec, spec.pool_threads);
    setups.push_back(NowSeconds() - start);
    if (!created.ok()) {
      std::fprintf(stderr, "Create failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    rt = std::make_unique<R>(std::move(created).value());
  }

  // The offered query rate follows from what this host and build can
  // serve, not from a fixed number (README.md, "Load shape").
  const double capacity_qps = UncachedCapacityQps(*rt, in);
  const double reader_qps = kLoadFactor * capacity_qps;
  std::printf("load: uncached TA capacity %.0f queries/s on one reader "
              "(initial snapshot, fastest of %zu panel passes); each of %zu "
              "readers "
              "offers %.2f x that = %.0f queries/s\n",
              capacity_qps, kCalibrationPasses, spec.readers, kLoadFactor,
              reader_qps);
  std::fflush(stdout);

  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  const double run_origin = NowSeconds();
  TimedResult<R> timed =
      RunTimed(*rt, spec, in, args.seconds, reader_qps, rec);
  const auto cache = rt->search_cache_stats();
  // Read before the output checks, whose layer replay holds a second
  // collection and index.
  const double rss_peak_mb = PeakRssMb();
  const typename A::Pinned final_pin = A::Pin(*rt);
  CheckResult check = CheckOutputs(*rt, spec, in, &timed);

  // ---- end-to-end figures
  std::vector<double> tick_ms, untraced_service_ms, traced_service_ms;
  size_t failed_ticks = 0, committed = 0;
  double last_finish = timed.t0;
  std::vector<OpenLoopSample> tick_samples;
  for (const TickRecord& t : timed.ticks) {
    tick_ms.push_back((t.finish - t.due) * 1e3);
    (t.traced ? traced_service_ms : untraced_service_ms)
        .push_back((t.finish - t.start) * 1e3);
    if (t.ok) ++committed; else ++failed_ticks;
    last_finish = std::max(last_finish, t.finish);
    tick_samples.push_back({t.due, t.start, t.finish});
  }
  std::vector<double> query_us, lag_ms;
  size_t queries = 0, backlogged = 0;
  for (const auto& reader : timed.readers) {
    const OpenLoopAccount acc = AccountOpenLoop(reader.samples);
    for (double v : acc.latency) query_us.push_back(v * 1e6);
    for (double v : acc.lag) lag_ms.push_back(v * 1e3);
    queries += reader.samples.size();
    backlogged += acc.backlogged;
  }
  if (spec.open_loop_ticks) {
    for (double v : AccountOpenLoop(tick_samples).lag) {
      lag_ms.push_back(v * 1e3);
    }
  }
  const Tail tick_tail = TailOf(tick_ms);
  const Tail query_tail = TailOf(query_us);
  const Tail lag_tail = TailOf(lag_ms);
  const size_t attempted = timed.ticks.size() + queries + check.checks();
  const size_t failed = failed_ticks + check.failures();
  const double failed_ratio =
      attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;

  std::printf("run: %zu ticks (%zu committed) in %.2f s, %zu queries "
              "(%zu queued behind a slower one); cache %zu hits / %zu misses; "
              "%llu generations published\n",
              timed.ticks.size(), committed, last_finish - timed.t0, queries,
              backlogged, cache.hits, cache.misses,
              static_cast<unsigned long long>(timed.generation_after -
                                              timed.generation_before));
  std::printf("checks: %zu/%zu sampled queries match the exhaustive answer, "
              "%zu/%zu slots mined by the last tick are bit-identical to a "
              "fresh re-mine, %zu/%zu quiet slots are bit-identical to the "
              "mine at their last activity (layer replay)\n",
              check.query_checks - check.query_failures, check.query_checks,
              check.fresh_checks - check.fresh_failures, check.fresh_checks,
              check.quiet_checks - check.quiet_failures, check.quiet_checks);
  // Not counted: the staleness contract lets a quiet slot differ from a
  // fresh mine (README.md, "Output checks").
  std::printf("quiet slots vs a fresh re-mine over the final index: %zu with "
              "a different pattern set, %zu equal up to last-bit scores and "
              "tie order, %zu bit-identical\n",
              check.quiet_vs_fresh_different, check.quiet_vs_fresh_last_bit,
              check.quiet_checks - check.quiet_vs_fresh_different -
                  check.quiet_vs_fresh_last_bit);
  {
    std::vector<double> q = query_us;
    std::sort(q.begin(), q.end());
    auto at = [&](double p) {
      return q.empty() ? 0.0
                       : q[std::min(q.size() - 1,
                                    static_cast<size_t>(p * q.size()))];
    };
    std::printf("query_us distribution: p50 %.1f, p90 %.1f, p99 %.1f, "
                "p99.9 %.1f, max %.1f\n",
                at(0.5), at(0.9), at(0.99), at(0.999),
                q.empty() ? 0.0 : q.back());
  }
  std::printf("tails: tick_ms.tail is %s; query_us.tail is %s\n",
              DescribeTail(tick_tail).c_str(),
              DescribeTail(query_tail).c_str());
  // Printed and recorded, not gated (README.md, "End-to-end metrics").
  const double query_p50 = Median(query_us);
  std::printf("query_us.p50: %.4g us; query_us.tail: %.6g us; "
              "ops_failed_ratio: %.6g (%zu of %zu operations)\n",
              query_p50, query_tail.value, failed_ratio, failed, attempted);

  Report report;
  bool well_formed = tick_tail.valid && query_tail.valid;
  if (!well_formed) {
    std::fprintf(stderr, "too few samples for a tail (%zu ticks, %zu "
                         "queries): raise --seconds\n",
                 tick_ms.size(), query_us.size());
  }
  if (!args.trace) {
    report.Add("setup_s", Median(setups), "s");
    report.Add("tick_ms.p50", Median(tick_ms), "ms");
    report.Add("tick_ms.tail", tick_tail.value, "ms");
    report.Add("snapshots_per_s",
               static_cast<double>(committed) / (last_finish - timed.t0),
               "1/s");
    report.Add("rss_mb.peak", rss_peak_mb, "MB");
  } else {
    // ---- per-layer figures
    std::vector<double> prepare, candidates, stage, commit, phase_sum;
    std::vector<double> dirty, refreshed, searched, folded, rejected;
    std::vector<double> waste;
    double degraded = 0.0;
    std::vector<TickRecord> phase_ticks;
    for (const TickRecord& t : timed.ticks) {
      if (t.traced && std::is_same_v<R, FeedRuntime>) phase_ticks.push_back(t);
    }
    if constexpr (std::is_same_v<R, ShardedRuntime>) {
      // ShardedRuntime drives its shards' phases internally; the phase
      // split comes from an unsharded FeedRuntime control over the same
      // time-sorted inputs (the sharded/unsharded comparison).
      auto control = Adapter<FeedRuntime>::Create(in.corpus, spec,
                                                  spec.pool_threads);
      if (!control.ok()) return 1;
      for (size_t i = 0; i < kShadowTicks && i < timed.ticks.size(); ++i) {
        recorder.NewTrace();
        TickRecord t;
        t.ok = PhasedTick(*control, in.snapshots[i].docs, &recorder, &t).ok();
        if (!t.ok) return 1;
        phase_ticks.push_back(t);
      }
    }
    for (const TickRecord& t : phase_ticks) {
      prepare.push_back(t.prepare_ms);
      candidates.push_back(t.candidates_ms);
      stage.push_back(t.stage_ms);
      commit.push_back(t.commit_ms);
      phase_sum.push_back(t.prepare_ms + t.candidates_ms + t.stage_ms +
                          t.commit_ms);
    }
    for (const TickRecord& t : timed.ticks) {
      const FeedTickStats& s = t.stats;
      dirty.push_back(static_cast<double>(s.dirty_terms));
      refreshed.push_back(static_cast<double>(s.refreshed_terms));
      searched.push_back(static_cast<double>(s.search_terms));
      folded.push_back(static_cast<double>(s.folded_terms));
      rejected.push_back(static_cast<double>(s.rejected_documents));
      const double touched =
          static_cast<double>(s.dirty_terms + s.refreshed_terms);
      if (touched > 0.0) waste.push_back(s.search_terms / touched);
      degraded += s.degraded ? 1.0 : 0.0;
    }
    report.Add("runtime.prepare_ms", Median(prepare), "ms");
    report.Add("runtime.candidates_ms", Median(candidates), "ms");
    report.Add("runtime.stage_ms", Median(stage), "ms");
    report.Add("runtime.commit_ms", Median(commit), "ms");
    report.Add("runtime.phase_sum_ms", Median(phase_sum), "ms");
    report.Add("runtime.dirty_terms", Median(dirty), "count");
    report.Add("runtime.refreshed_terms", Median(refreshed), "count");
    report.Add("runtime.search_terms", Median(searched), "count");
    report.Add("runtime.folded_terms", Median(folded), "count");
    report.Add("runtime.rejected_docs", Median(rejected), "count");
    report.Add("runtime.degraded_ticks", degraded, "count");
    report.Add("runtime.search_terms_per_touched", Median(waste), "ratio");

    const ShadowResult shadow = ShadowReplay(
        spec, in, std::min(kShadowTicks, timed.ticks.size()), &recorder);
    const double shadow_sum =
        Median(shadow.collection_append_ms) +
        Median(shadow.frequency_append_ms) +
        Median(shadow.frequency_evict_ms) + Median(shadow.history_fold_ms) +
        Median(shadow.miner_remine_ms);
    report.Add("collection.append_ms", Median(shadow.collection_append_ms),
               "ms");
    report.Add("frequency.append_ms", Median(shadow.frequency_append_ms),
               "ms");
    report.Add("frequency.evict_ms", Median(shadow.frequency_evict_ms), "ms");
    report.Add("history.fold_ms", Median(shadow.history_fold_ms), "ms");
    report.Add("miner.remine_ms", Median(shadow.miner_remine_ms), "ms");
    report.Add("miner.terms_per_s",
               shadow.remined_terms / shadow.remine_seconds, "1/s");
    report.Add("shadow.prepare_sum_ms", shadow_sum, "ms");
    report.Add("frequency.postings_mb", A::PostingsMb(*rt), "MB");
    report.Add("history.rows", A::HistoryRows(*rt), "count");
    report.Add("miner.sweep_s", shadow.sweep_s, "s");
    report.Add("stlocal.remine_ms", shadow.stlocal_ms, "ms");
    report.Add("stlocal.terms_per_s",
               shadow.stlocal_terms / (shadow.stlocal_ms / 1e3), "1/s");

    // index/: the read plane replayed uncached on the final snapshot.
    std::vector<double> ta_us;
    double sorted = 0.0, random = 0.0, early = 0.0;
    const std::vector<uint32_t>& stream = in.reader_streams[0];
    const size_t replay = std::min(kTaReplay, stream.size());
    recorder.NewTrace();
    const uint32_t ta_span = recorder.Begin("search.ta_replay");
    for (size_t i = 0; i < replay; ++i) {
      const double start = NowSeconds();
      const TopKResult r = A::Uncached(final_pin, in.panel[stream[i]]);
      ta_us.push_back((NowSeconds() - start) * 1e6);
      sorted += static_cast<double>(r.sorted_accesses);
      random += static_cast<double>(r.random_accesses);
      early += r.early_terminated ? 1.0 : 0.0;
    }
    recorder.End(ta_span);
    const double n = static_cast<double>(std::max<size_t>(1, replay));
    report.Add("search.ta_us", Median(ta_us), "us");
    report.Add("search.cache_hit_ratio",
               static_cast<double>(cache.hits) /
                   static_cast<double>(std::max<size_t>(
                       1, cache.hits + cache.misses)),
               "ratio");
    report.Add("search.sorted_accesses", sorted / n, "count");
    report.Add("search.random_accesses", random / n, "count");
    report.Add("search.early_stop_ratio", early / n, "ratio");
    report.Add("index.snapshot_postings",
               static_cast<double>(A::SearchPostings(final_pin)), "count");
    report.Add("search.generations",
               static_cast<double>(timed.generation_after -
                                   timed.generation_before),
               "count");
    std::vector<double> postings_load, search_load;
    A::ShardLoads(*rt, final_pin, &postings_load, &search_load);
    report.Add("shard.postings_skew", Skew(postings_load), "ratio");
    report.Add("shard.search_postings_skew", Skew(search_load), "ratio");
    report.Add("loadgen.lag_ms", lag_tail.value, "ms");
    report.Add("trace.overhead_ms",
               Median(traced_service_ms) - Median(untraced_service_ms), "ms");
    report.Add("runtime.parallel_speedup", ParallelSpeedup<R>(spec, in),
               "ratio");

    if constexpr (std::is_same_v<R, ShardedRuntime>) {
      std::printf("sharded vs unsharded: unsharded control phase sum %.2f ms "
                  "vs sharded tick p50 %.2f ms (%.3fx)\n",
                  Median(phase_sum), Median(untraced_service_ms),
                  Median(phase_sum) / Median(untraced_service_ms));
    } else {
      std::printf("reconcile: phase sum %.2f ms vs untraced tick p50 %.2f ms "
                  "(%.3fx)\n",
                  Median(phase_sum), Median(untraced_service_ms),
                  Median(phase_sum) / Median(untraced_service_ms));
    }
    std::printf("tracing overhead: traced tick p50 %.2f ms - untraced tick "
                "p50 %.2f ms = %+.3f ms\n",
                Median(traced_service_ms), Median(untraced_service_ms),
                Median(traced_service_ms) - Median(untraced_service_ms));
    std::printf("shadow replay: append %.2f + splice %.2f + evict %.2f + "
                "fold %.2f + re-mine %.2f = %.2f ms beside runtime.prepare_ms "
                "%.2f ms\n",
                Median(shadow.collection_append_ms),
                Median(shadow.frequency_append_ms),
                Median(shadow.frequency_evict_ms),
                Median(shadow.history_fold_ms),
                Median(shadow.miner_remine_ms), shadow_sum, Median(prepare));
    std::printf("loadgen: lag tail %.3f ms, %s\n", lag_tail.value,
                DescribeTail(lag_tail).c_str());
  }

  std::printf("metrics:\n");
  PrintMetrics(report.metrics);
  const std::string problem = CheckMetrics(report.metrics);
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
    return 1;
  }
  const bool correct = failed == 0 && well_formed;

  if (!args.out.empty()) {
    const std::string path = args.out + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(
          f,
          "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
          "\"host\": %s, \"correct\": %s, \"attempted\": %zu, \"failed\": "
          "%zu, \"ops_failed_ratio\": %s, \"uncached_capacity_qps\": %s, "
          "\"reader_qps\": %s, \"query_us.p50\": %s, "
          "\"query_us.tail\": %s, "
          "\"tick_ms.tail_percentile\": %s, "
          "\"tick_samples\": %zu, \"query_us.tail_percentile\": %s, "
          "\"query_samples\": %zu, \"quiet_slots\": %zu, "
          "\"quiet_vs_fresh_different\": %zu, "
          "\"quiet_vs_fresh_last_bit\": %zu, \"metrics\": %s}\n",
          JsonString(spec.name).c_str(),
          static_cast<unsigned long long>(args.seed),
          JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0,
          FingerprintJson(host).c_str(), correct ? "true" : "false",
          attempted, failed, JsonNumber(failed_ratio).c_str(),
          JsonNumber(capacity_qps).c_str(), JsonNumber(reader_qps).c_str(),
          JsonNumber(query_p50).c_str(), JsonNumber(query_tail.value).c_str(),
          JsonNumber(tick_tail.percentile).c_str(), tick_tail.samples,
          JsonNumber(query_tail.percentile).c_str(), query_tail.samples,
          check.quiet_checks, check.quiet_vs_fresh_different,
          check.quiet_vs_fresh_last_bit, MetricsJson(report.metrics).c_str());
      std::fclose(f);
    }
    if (args.trace) recorder.Write(args.out + ".spans.jsonl", run_origin);
  }
  std::printf("%s\n",
              ResultLine(correct, attempted, failed, report.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <prefix>]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // Timer slack off: open-loop due times are honoured to the microsecond.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  return spec->sharded
             ? perfbench::RunWorkload<stburst::ShardedRuntime>(*spec, args)
             : perfbench::RunWorkload<stburst::FeedRuntime>(*spec, args);
}
