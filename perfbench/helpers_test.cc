// Tests of the benchmark's own measurement helpers (stats.h): the tail
// rule, open-loop due-time accounting and lag, the metric-name charset and
// the result line. Self-contained (no test framework); exits non-zero on
// the first failed check. Run with `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

using perfbench::OpenLoopSample;

void TestMedian() {
  EXPECT(perfbench::Median({}) == 0.0);
  EXPECT(perfbench::Median({3.0}) == 3.0);
  EXPECT(perfbench::Median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestTailRule() {
  // 1..100: the value with exactly ten samples above it is 90, p90.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  perfbench::Tail t = perfbench::TailOf(v);
  EXPECT(t.valid);
  EXPECT(t.value == 90.0);
  EXPECT(Near(t.percentile, 90.0));
  EXPECT(t.samples == 100);
  size_t beyond = 0;
  for (double x : v) beyond += x > t.value ? 1 : 0;
  EXPECT(beyond == 10);

  // 1000 samples: p99, still exactly ten beyond.
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = perfbench::TailOf(v);
  EXPECT(t.value == 990.0);
  EXPECT(Near(t.percentile, 99.0));
  EXPECT(perfbench::DescribeTail(t) == "p99 (n=1000)");

  // The smallest sample that supports a tail: 11 values, the minimum.
  v = {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  t = perfbench::TailOf(v);
  EXPECT(t.valid);
  EXPECT(t.value == 1.0);
  EXPECT(Near(t.percentile, 100.0 / 11.0));

  // Ten or fewer: no tail; the maximum is kept for display.
  v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  t = perfbench::TailOf(v);
  EXPECT(!t.valid);
  EXPECT(t.value == 10.0);
  EXPECT(!perfbench::TailOf({}).valid);
}

void TestOpenLoopAccounting() {
  // Period 10: op 0 runs 35 (a stall), ops 1-3 queue behind it.
  std::vector<OpenLoopSample> s = {
      {0.0, 0.5, 35.0},    // wakes 0.5 late, then stalls
      {10.0, 35.0, 36.0},  // due during the stall: backlog, no lag
      {20.0, 36.0, 37.0},
      {30.0, 37.0, 38.0},
      {40.0, 42.0, 43.0},  // idle at due time, wakes 2 late
  };
  perfbench::OpenLoopAccount a = perfbench::AccountOpenLoop(s);
  EXPECT(a.latency.size() == 5);
  EXPECT(Near(a.latency[0], 35.0));
  EXPECT(Near(a.latency[1], 26.0));  // timed from due, not from start
  EXPECT(Near(a.latency[2], 17.0));
  EXPECT(Near(a.latency[3], 8.0));
  EXPECT(Near(a.latency[4], 3.0));
  EXPECT(Near(a.lag[0], 0.5));
  EXPECT(Near(a.lag[1], 0.0));
  EXPECT(Near(a.lag[2], 0.0));
  EXPECT(Near(a.lag[3], 0.0));
  EXPECT(Near(a.lag[4], 2.0));
  EXPECT(a.backlogged == 3);
}

// A scripted clock: waits jump straight to the target plus a fixed wake-up
// delay; operations advance time by their scripted cost.
struct FakeClock {
  double now = 0.0;
  double wake_delay = 0.0;
  double Now() const { return now; }
  void WaitUntil(double t) { now = t + wake_delay; }
};

void TestRunOpenLoop() {
  FakeClock clock;
  clock.wake_delay = 0.25;
  const std::vector<double> cost = {1.0, 25.0, 1.0, 1.0, 1.0, 1.0};
  std::vector<size_t> ran;
  const auto samples = perfbench::RunOpenLoop(
      clock, 0.0, 10.0, [] { return 45.0; }, 100, [&](size_t i) {
        ran.push_back(i);
        clock.now += cost[i];
      });
  // Due times 0, 10, 20, 30, 40; 50 is past the end.
  EXPECT(samples.size() == 5);
  EXPECT(ran.size() == 5);
  EXPECT(Near(samples[0].start, 0.0));  // already due: no wait
  EXPECT(Near(samples[1].start, 10.25));
  EXPECT(Near(samples[1].finish, 35.25));
  // Ops 2 and 3 were due during op 1's stall: they start at once, late.
  EXPECT(Near(samples[2].start, 35.25));
  EXPECT(Near(samples[3].start, 36.25));
  EXPECT(Near(samples[4].start, 40.25));  // on schedule again
  const auto a = perfbench::AccountOpenLoop(samples);
  EXPECT(Near(a.latency[2], 16.25));
  EXPECT(Near(a.lag[1], 0.25));
  EXPECT(Near(a.lag[2], 0.0));
  EXPECT(Near(a.lag[4], 0.25));
  EXPECT(a.backlogged == 2);

  // max_ops caps the sequence before the end time does.
  FakeClock c2;
  const auto capped = perfbench::RunOpenLoop(
      c2, 0.0, 1.0, [] { return 100.0; }, 3, [](size_t) {});
  EXPECT(capped.size() == 3);

  // An end brought forward while the generator runs (the closed-loop
  // ticker finishing) stops it before the next due operation.
  FakeClock c3;
  double end = 100.0;
  const auto stopped = perfbench::RunOpenLoop(
      c3, 0.0, 1.0, [&] { return end; }, 100, [&](size_t i) {
        c3.now += 0.5;
        if (i == 3) end = c3.now;  // op 3 finishes at 3.5
      });
  EXPECT(stopped.size() == 4);  // op 4 (due 4.0) is past the new end
}

void TestMetricNames() {
  EXPECT(perfbench::ValidMetricName("tick_ms.p50"));
  EXPECT(perfbench::ValidMetricName("setup_s"));
  EXPECT(perfbench::ValidMetricName("9lives"));
  EXPECT(perfbench::ValidMetricName("runtime.search_terms_per_touched"));
  EXPECT(perfbench::ValidMetricName(std::string(64, 'a')));
  EXPECT(!perfbench::ValidMetricName(std::string(65, 'a')));
  EXPECT(!perfbench::ValidMetricName(""));
  EXPECT(!perfbench::ValidMetricName(".hidden"));
  EXPECT(!perfbench::ValidMetricName("_x"));
  EXPECT(!perfbench::ValidMetricName("tick ms"));
  EXPECT(!perfbench::ValidMetricName("a/b"));
  EXPECT(!perfbench::ValidMetricName("q\"x"));

  EXPECT(perfbench::ValidUnit("ms"));
  EXPECT(perfbench::ValidUnit("1/s"));
  EXPECT(perfbench::ValidUnit("%"));
  EXPECT(perfbench::ValidUnit("count"));
  EXPECT(!perfbench::ValidUnit(""));
  EXPECT(!perfbench::ValidUnit("per second"));
  EXPECT(!perfbench::ValidUnit(std::string(17, 's')));

  using perfbench::Metric;
  EXPECT(perfbench::CheckMetrics({{"a", 1.0, "ms"}, {"b", 2.0, "s"}}).empty());
  EXPECT(!perfbench::CheckMetrics({{"a", 1.0, "ms"}, {"a", 2.0, "s"}}).empty());
  EXPECT(!perfbench::CheckMetrics({{"a b", 1.0, "ms"}}).empty());
  EXPECT(!perfbench::CheckMetrics({{"a", NAN, "ms"}}).empty());
}

void TestResultLine() {
  const std::string line = perfbench::ResultLine(
      true, 12, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT(line ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
         "{\"value\": 0.5, \"unit\": \"s\"}}}");
  // Values keep every digit.
  EXPECT(perfbench::JsonNumber(0.1) == "0.10000000000000001");
  EXPECT(perfbench::JsonString("a\"b") == "\"a\\\"b\"");
}

}  // namespace

int main() {
  TestMedian();
  TestTailRule();
  TestOpenLoopAccounting();
  TestRunOpenLoop();
  TestMetricNames();
  TestResultLine();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
