// Measurement helpers of the end-to-end benchmark: percentile and tail
// rules, open-loop due-time accounting, the metric-name charset, and the
// result-line JSON. Header-only and free of stburst dependencies, so
// helpers_test.cc can test them on their own.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values when the count is
/// even); 0 for an empty set.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// A tail latency reported by the rule "the highest percentile with at
/// least ten samples beyond it": over n sorted samples that is the value at
/// 0-based rank n - 11, which is the nearest-rank percentile
/// 100 * (n - 10) / n. Fewer than 11 samples support no tail (`valid` is
/// false and `value` holds the maximum).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  bool valid = false;
};

inline constexpr size_t kTailBeyond = 10;

inline Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= kTailBeyond) {
    tail.value = values.back();
    tail.percentile = 100.0;
    return tail;
  }
  tail.value = values[n - kTailBeyond - 1];
  tail.percentile =
      100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  tail.valid = true;
  return tail;
}

/// "p99.0 (n=1000)" — how a tail is printed next to its value.
inline std::string DescribeTail(const Tail& tail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.4g (n=%zu)", tail.percentile,
                tail.samples);
  return buf;
}

// ------------------------------------------------------------ open loop

/// One operation of an open-loop generator, in seconds on one clock: when
/// it was due, when it actually started, when it finished.
struct OpenLoopSample {
  double due = 0.0;
  double start = 0.0;
  double finish = 0.0;
};

/// Latency and generator lag of an open-loop sequence (samples in the
/// order they were sent, one generator). Latency runs from the due time,
/// so a stall charges its wait to every operation queued behind it. Lag is
/// how late the generator itself started an operation beyond the earliest
/// moment it could have: max(due, previous finish). Waiting behind a slow
/// predecessor is the system's backlog, counted in latency, not the
/// generator's lag.
struct OpenLoopAccount {
  std::vector<double> latency;
  std::vector<double> lag;
  size_t backlogged = 0;  ///< operations due while the previous still ran
};

inline OpenLoopAccount AccountOpenLoop(
    const std::vector<OpenLoopSample>& samples) {
  OpenLoopAccount account;
  account.latency.reserve(samples.size());
  account.lag.reserve(samples.size());
  double prev_finish = -INFINITY;
  for (const OpenLoopSample& s : samples) {
    account.latency.push_back(s.finish - s.due);
    if (prev_finish > s.due) ++account.backlogged;
    const double ready = std::max(s.due, prev_finish);
    account.lag.push_back(std::max(0.0, s.start - ready));
    prev_finish = s.finish;
  }
  return account;
}

/// Drives one open-loop generator: operation i is due at start + i *
/// period; the generator waits for each due time (never runs early), runs
/// `op(i)`, and records the sample. It stops before the first operation due
/// at or after `end()` or once `max_ops` ran; `end()` is read before each
/// operation, so another thread may bring the end forward (a closed-loop
/// ticker ends its readers when its last tick returns). `after(i)` runs
/// once the operation's finish time is taken (bookkeeping outside the
/// measurement). `clock` provides Now() and WaitUntil(t) in seconds, so
/// tests can substitute a scripted clock.
template <class Clock, class End, class Op, class After>
std::vector<OpenLoopSample> RunOpenLoop(Clock& clock, double start,
                                        double period, End&& end,
                                        size_t max_ops, Op&& op,
                                        After&& after) {
  std::vector<OpenLoopSample> samples;
  for (size_t i = 0; i < max_ops; ++i) {
    const double due = start + period * static_cast<double>(i);
    if (due >= end()) break;
    if (clock.Now() < due) clock.WaitUntil(due);
    OpenLoopSample s;
    s.due = due;
    s.start = clock.Now();
    op(i);
    s.finish = clock.Now();
    samples.push_back(s);
    after(i);
  }
  return samples;
}

template <class Clock, class End, class Op>
std::vector<OpenLoopSample> RunOpenLoop(Clock& clock, double start,
                                        double period, End&& end,
                                        size_t max_ops, Op&& op) {
  return RunOpenLoop(clock, start, period, std::forward<End>(end), max_ops,
                     std::forward<Op>(op), [](size_t) {});
}

// -------------------------------------------------------------- metrics

/// Metric names: start with a letter or digit, at most 64 of letters,
/// digits, '_', '.', '-'.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// Units: at most 16 of letters, digits, '_', '/', '%', '.', '-'.
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Full-precision JSON number ("null" for a non-finite value, which the
/// result line must never carry; Report refuses it).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// {"name": {"value": v, "unit": "u"}, ...}
inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The result line: the last line the benchmark prints.
inline std::string ResultLine(bool correct, size_t attempted, size_t failed,
                              const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

/// First problem with a metric set (bad name or unit, duplicate, non-finite
/// value), or an empty string when it is well formed.
inline std::string CheckMetrics(const std::vector<Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!ValidMetricName(m.name)) return "bad metric name: " + m.name;
    if (!ValidUnit(m.unit)) return "bad unit for " + m.name + ": " + m.unit;
    if (!std::isfinite(m.value)) return "non-finite value for " + m.name;
    for (size_t j = 0; j < i; ++j) {
      if (metrics[j].name == m.name) return "duplicate metric: " + m.name;
    }
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
