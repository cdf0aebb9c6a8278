// In-memory span recorder for the traced benchmark run. Spans are recorded
// around the benchmark's own calls into each layer's public functions (the
// library itself carries no spans) and written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Seconds on the monotonic clock every measurement in the run shares.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span: a named interval, the span that caused it (0 = none), and the
/// trace (one tick or one replay step) its spans share.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t trace = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// Single-threaded recorder (the ticking thread and the post-run replays
/// record; reader threads do not).
class SpanRecorder {
 public:
  /// Opens a span; returns its id for End() and as a child's parent.
  uint32_t Begin(std::string name, uint32_t parent = 0) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.trace = trace_;
    s.name = std::move(name);
    s.start = NowSeconds();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes span `id`; returns its duration in seconds.
  double End(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end = NowSeconds();
    return s.seconds();
  }
  /// Starts a new trace: later spans share its id.
  void NewTrace() { ++trace_; }

  /// Writes every span as JSON lines; times are microseconds from `origin`.
  bool Write(const std::string& path, double origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %u, \"parent\": %u, \"trace\": %u, \"name\": %s, "
                   "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                   s.id, s.parent, s.trace, JsonString(s.name).c_str(),
                   (s.start - origin) * 1e6, (s.end - origin) * 1e6);
    }
    return std::fclose(f) == 0;
  }

 private:
  uint32_t trace_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
