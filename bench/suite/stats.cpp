#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "tensor/rng.h"

namespace tqt::bench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double jain_index(const std::vector<double>& x) {
  double sum = 0.0, sq = 0.0;
  for (double v : x) {
    sum += v;
    sq += v * v;
  }
  if (x.empty() || sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sq);
}

std::vector<int64_t> poisson_schedule(double rate_per_s, double seconds, uint64_t seed) {
  // Exponential gaps by inversion over the repo's xoshiro generator, so the
  // schedule does not depend on the standard library's distributions.
  Rng rng(seed);
  std::vector<int64_t> at;
  at.reserve(static_cast<size_t>(rate_per_s * seconds * 1.1) + 16);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    at.push_back(static_cast<int64_t>(t));
  }
  return at;
}

std::vector<Tensor> make_input_pool(int n, const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  pool.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool.push_back(rng.normal_tensor(shape, 0.2f, 1.2f));
  return pool;
}

uint64_t schedule_hash(const std::vector<int64_t>& offsets_ns) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int64_t v : offsets_ns) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<uint64_t>(v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

namespace {

std::vector<std::vector<double>> split_windows(const std::vector<int64_t>& t_ns,
                                               const std::vector<double>& v, int64_t window_ns) {
  if (t_ns.empty() || window_ns <= 0) return {};
  const auto [lo, hi] = std::minmax_element(t_ns.begin(), t_ns.end());
  std::vector<std::vector<double>> windows(static_cast<size_t>((*hi - *lo) / window_ns) + 1);
  for (size_t i = 0; i < t_ns.size(); ++i) {
    windows[static_cast<size_t>((t_ns[i] - *lo) / window_ns)].push_back(v[i]);
  }
  return windows;
}

}  // namespace

double windowed_percentile(const std::vector<int64_t>& t_ns, const std::vector<double>& v,
                           int64_t window_ns, double p, size_t min_samples) {
  std::vector<double> per_window;
  for (auto& w : split_windows(t_ns, v, window_ns)) {
    if (w.size() >= min_samples) per_window.push_back(percentile(std::move(w), p));
  }
  return median(std::move(per_window));
}

int count_stall_windows(const std::vector<int64_t>& t_ns, const std::vector<double>& lat_ms,
                        int64_t window_ns, double base_ms, double factor) {
  int stalls = 0;
  for (auto& w : split_windows(t_ns, lat_ms, window_ns)) {
    if (!w.empty() && percentile(std::move(w), 0.99) > factor * base_ms) ++stalls;
  }
  return stalls;
}

KneeResult knee_search(const KneeConfig& cfg, const std::function<bool(double)>& passes) {
  KneeResult r;
  auto probe = [&](double rate) {
    const bool ok = passes(rate);
    r.probes.emplace_back(rate, ok);
    return ok;
  };
  double lo = 0.0, hi = 0.0;
  for (double rate = cfg.start; static_cast<int>(r.probes.size()) < cfg.max_steps;
       rate *= cfg.growth) {
    if (!probe(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  while (hi > 0.0 && static_cast<int>(r.probes.size()) < cfg.max_steps &&
         (lo <= 0.0 || hi / lo - 1.0 >= cfg.tolerance)) {
    const double mid = 0.5 * (lo + hi);
    (probe(mid) ? lo : hi) = mid;
  }
  r.max_rate = lo;
  return r;
}

}  // namespace tqt::bench
