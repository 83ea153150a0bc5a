// Turns observe::Tracer rings into per-layer numbers: per span name, how many
// spans ran, their total time and their self time (duration minus the
// direct child spans on the same thread).
//
// Only spans inside an "image context" count towards `spans`: a benchmark
// "bench.run_into" span or the batcher's "serve.batch" span, both tagged
// "n=<images>". That lets every figure be normalised per image even when a
// drain cuts a batch in half.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "observe/observe.h"

namespace tqt::bench {

struct SpanTotals {
  uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> spans;  ///< by span name, image context only
  std::map<std::string, SpanTotals> all;    ///< by span name, every span
  double images = 0.0;                      ///< sum of n= over image contexts
  /// Images per context tag "m=<k>" (the offline model index; -1 untagged).
  std::map<int, double> images_by_model;
  uint64_t dropped = 0;
  uint64_t events = 0;
};

/// Fold one thread's events (any order) into `sum`.
void accumulate(const std::vector<observe::TraceEvent>& events, TraceSummary& sum);

/// Drains the global tracer into a TraceSummary. drain() snapshots and
/// clears every ring; start()/stop() do it every `period_ms` on a background
/// thread, turning tracing off for a short quiet period before each drain so
/// no span lands between the snapshot and the clear.
class TraceCollector {
 public:
  TraceCollector() = default;
  ~TraceCollector() { stop(); }
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Write the rings of the first drain at least `after_ms` into tracing as
  /// a chrome://tracing file at `path`; empty = none.
  void set_chrome_output(std::string path, int64_t after_ms);

  /// Snapshot + clear; the caller guarantees no span is in flight.
  void drain();

  /// Background draining. Between drains tracing is on iff `want_on()`.
  void start(int period_ms, std::function<bool()> want_on);
  void stop();

  const TraceSummary& summary() const { return sum_; }
  /// Steady-clock [start, end) nanosecond intervals during which tracing was
  /// on under start()/stop().
  const std::vector<std::pair<int64_t, int64_t>>& traced_intervals() const { return on_; }

 private:
  TraceSummary sum_;
  std::string chrome_path_;
  uint64_t chrome_after_ns_ = 0;
  uint64_t first_drain_ns_ = 0;
  std::vector<std::pair<int64_t, int64_t>> on_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace tqt::bench
