#include "probe.h"

#include <chrono>

namespace tqt::bench {
namespace {

constexpr int kN = 32, kH = 16, kW = 16, kC = 8, kK = 8, kTaps = 9;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpeedProbe::SpeedProbe()
    : x_(kN * kH * kW * kC), w_(kTaps * kC * kK), col_(kN * kH * kW * kTaps * kC),
      y_(kN * kH * kW * kK) {
  for (size_t i = 0; i < x_.size(); ++i) x_[i] = static_cast<int8_t>(i * 7 % 13 - 6);
  for (size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<int8_t>(i * 5 % 11 - 5);
}

int64_t SpeedProbe::run_once() {
  // im2col with zero padding, then a [M, 72] x [72, 8] GEMM.
  for (int n = 0; n < kN; ++n) {
    for (int oy = 0; oy < kH; ++oy) {
      for (int ox = 0; ox < kW; ++ox) {
        int8_t* c = &col_[static_cast<size_t>(((n * kH + oy) * kW + ox) * kTaps * kC)];
        for (int t = 0; t < kTaps; ++t) {
          const int iy = oy + t / 3 - 1, ix = ox + t % 3 - 1;
          const bool pad = iy < 0 || iy >= kH || ix < 0 || ix >= kW;
          for (int ch = 0; ch < kC; ++ch) {
            c[t * kC + ch] = pad ? 0 : x_[static_cast<size_t>(((n * kH + iy) * kW + ix) * kC + ch)];
          }
        }
      }
    }
  }
  const int m_rows = kN * kH * kW, depth = kTaps * kC;
  int64_t sum = 0;
  for (int m = 0; m < m_rows; ++m) {
    int32_t acc[kK] = {};
    const int8_t* a = &col_[static_cast<size_t>(m * depth)];
    for (int k = 0; k < depth; ++k) {
      for (int o = 0; o < kK; ++o) acc[o] += a[k] * w_[static_cast<size_t>(k * kK + o)];
    }
    for (int o = 0; o < kK; ++o) {
      y_[static_cast<size_t>(m * kK + o)] = acc[o];
      sum += acc[o];
    }
  }
  return sum;
}

double SpeedProbe::measure(double seconds) {
  static volatile int64_t sink = 0;
  const double t0 = now_s();
  double t = t0;
  int runs = 0;
  for (; t - t0 < seconds || runs == 0; ++runs, t = now_s()) sink = sink + run_once();
  return runs / (t - t0);
}

}  // namespace tqt::bench
