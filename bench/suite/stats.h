// Estimators and input generators shared by every tqt_bench workload.
//
// Everything here is a pure function of its arguments (the seed included), so
// the unit tests can pin the exact values and two runs with one seed see the
// same inputs and the same arrival schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace tqt::bench {

/// Nearest-rank percentile of `v` for p in (0, 1]: the smallest sample with
/// at least p*n samples at or below it. 0 for an empty sample.
double percentile(std::vector<double> v, double p);

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Geometric mean of strictly positive values; 0 for an empty input.
double geomean(const std::vector<double>& v);

/// Jain fairness index (sum x)^2 / (n * sum x^2); 1 when every x is equal.
double jain_index(const std::vector<double>& x);

/// Open-loop Poisson arrivals: offsets in nanoseconds from the phase start,
/// exponential gaps at `rate_per_s`, covering [0, seconds).
std::vector<int64_t> poisson_schedule(double rate_per_s, double seconds, uint64_t seed);

/// `n` distinct NHWC input tensors of shape `shape`, drawn from the seed.
std::vector<Tensor> make_input_pool(int n, const Shape& shape, uint64_t seed);

/// FNV-1a over a schedule (recorded so two runs can show they sent the same
/// arrivals).
uint64_t schedule_hash(const std::vector<int64_t>& offsets_ns);

/// Median over consecutive windows of `window_ns` (by `t_ns`) of each
/// window's `p` percentile of `v`, skipping windows with fewer than
/// `min_samples` samples — a tail estimate that one stalled window cannot
/// move (stalls are counted by count_stall_windows instead).
double windowed_percentile(const std::vector<int64_t>& t_ns, const std::vector<double>& v,
                           int64_t window_ns, double p, size_t min_samples);

/// Count windows of `window_ns` (by completion time) whose p99 latency
/// exceeds `factor` times `base_ms`. `t_ns` and `lat_ms` are parallel.
int count_stall_windows(const std::vector<int64_t>& t_ns, const std::vector<double>& lat_ms,
                        int64_t window_ns, double base_ms, double factor);

/// Knee search over offered rate: starting at `start`, multiply by `growth`
/// while `passes(rate)` holds; after the first failure, bisect the bracket
/// until hi/lo - 1 < `tolerance` or `max_steps` probes ran. `max_rate` is
/// the highest rate that passed (0 if `start` failed).
struct KneeConfig {
  double start = 20000.0;
  double growth = 1.5;
  double tolerance = 0.05;
  int max_steps = 10;
};
struct KneeResult {
  double max_rate = 0.0;
  std::vector<std::pair<double, bool>> probes;  ///< (rate, passed) in order
};
KneeResult knee_search(const KneeConfig& cfg, const std::function<bool(double)>& passes);

}  // namespace tqt::bench
