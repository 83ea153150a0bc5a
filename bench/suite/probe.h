// Machine-speed probe: a fixed int8 3x3 convolution (im2col + int32-
// accumulating GEMM over a vgg-sized batch) written here, in the benchmark,
// so no library change can alter its speed.
//
// On a shared host the speed of compute- and cache-bound code drifts by tens
// of percent over minutes as neighbours come and go, and it drifts alike for
// the engine and for this probe (measured: mini_vgg raw throughput across
// runs 13.4k-22.0k img/s, its ratio to the probe within +-4%). Timings that
// are pure computation on one thread — set-up and the offline workloads —
// are therefore reported scaled to a nominal probe speed: a time t measured
// while the probe ran at R runs/s is reported as t * R / kNominalRate. The
// raw values stay in each run's record. Serving latencies are dominated by
// waits and wake-ups, not by this kind of work, and are reported as measured.
#pragma once

#include <cstdint>
#include <vector>

namespace tqt::bench {

class SpeedProbe {
 public:
  /// Probe runs per second the scaled timings are expressed at (about what
  /// a quiet period of the 4-vCPU reference box measures).
  static constexpr double kNominalRate = 800.0;

  SpeedProbe();

  /// Run the probe for at least `seconds`; returns runs per second.
  double measure(double seconds);

 private:
  /// One convolution; returns a checksum of the output.
  int64_t run_once();

  std::vector<int8_t> x_, w_, col_;
  std::vector<int32_t> y_;
};

/// Factor that scales a time measured at probe rate `rate` to the nominal
/// rate (multiply times by it, divide rates by it).
inline double to_nominal(double rate) { return rate / SpeedProbe::kNominalRate; }

}  // namespace tqt::bench
