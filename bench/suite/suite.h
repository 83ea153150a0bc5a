// tqt_bench internals shared by the workloads: run configuration, the report
// every run fills, program building with per-phase timing, static program
// facts, and the engine figures derived from a trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fixedpoint/engine.h"
#include "graph_opt/quantize_pass.h"
#include "models/zoo.h"
#include "observe/json.h"
#include "trace_agg.h"

namespace tqt::bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;   ///< measured time of one run
  bool trace = false;      ///< per-layer run: tracer on, per_layer metrics out
  bool smoke = false;      ///< one set-up instead of several (CI smoke)
  std::string chrome;      ///< traced runs: chrome://tracing output file ("" = none)
  std::string scratch;     ///< path prefix for files the run creates and removes
};

/// What one run reports. `metrics` keeps insertion order; `detail` is an
/// open JSON object the workload may add keys to (closed by main).
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  observe::JsonWriter detail;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void error(const std::string& what) { errors.push_back(what); }
};

// ---- set-up ----------------------------------------------------------------

/// A compiled program plus how long its two set-up layers took.
struct BuiltProgram {
  std::string model;
  FixedPointProgram prog;
  double calibrate_ms = 0.0;  ///< optimize_for_quantization + quantize_pass + calibrate_thresholds
  double compile_ms = 0.0;    ///< compile_fixed_point (fusion, planning, autotuning)
};

/// Calibration-only program for `kind` (no retraining): BN statistics warmed
/// on fixed random batches, thresholds calibrated on a batch drawn from
/// `calib_seed`, compiled with the autotuner on. Programs never depend on
/// the run's --seed.
BuiltProgram build_program(ModelKind kind, const QuantizeConfig& qcfg, uint64_t calib_seed = 11);

/// Median set-up time over the repeats: as measured, and scaled to the
/// nominal machine speed by the speed probe run around each repeat.
struct SetupTime {
  double seconds = 0.0;
  double scaled_s = 0.0;
  double probe_rate = 0.0;
};

/// Run `setup` `repeats` times. Before each repeat, untimed, `teardown`
/// releases what the previous one built and the autotuner's shape cache is
/// cleared, so every repeat pays what a fresh process pays.
SetupTime timed_setup(int repeats, const std::function<void()>& setup,
                      const std::function<void()>& teardown);

/// Report setup_s (scaled) and record the raw figures in the detail.
void emit_setup_time(Report& r, const SetupTime& t);

/// Set-up repeats: several for the untraced run, whose setup_s is their
/// median; one for smoke and traced runs, which do not report setup_s.
inline int setup_repeats(const RunConfig& cfg) { return cfg.smoke || cfg.trace ? 1 : 3; }

/// Static facts about a compiled program, read from plan() and tuning().
struct ProgramInfo {
  int fused = 0;          ///< fused matmul instructions
  int vec32 = 0;          ///< of those, with a 32-bit vector epilogue
  int tuned = 0, blocked = 0, s4 = 0;
  std::string algo_picks; ///< explain_kernels algo column, comma separated
  /// MACs per image by kernel group ("conv", "depthwise", "dense").
  std::map<std::string, double> macs_per_image;
  double bytes_per_image = 0.0;  ///< estimate_traffic (computed, not measured)
};
ProgramInfo inspect(const FixedPointProgram& prog, int64_t batch);

/// Kernel group of an engine span name: "conv", "depthwise", "dense",
/// "quantize_input" or "other".
std::string kind_group(const std::string& span);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Seconds since an arbitrary fixed point (steady clock).
double now_s();

// ---- shared per-layer figures ----------------------------------------------

/// Set-up layer metrics plus the static program facts (summed over
/// `infos`), common to every workload.
void emit_setup_layers(Report& r, double calibrate_ms, double compile_ms,
                       const std::vector<ProgramInfo>& infos, int64_t arena_bytes);

/// Engine metrics from a trace: run_into and per-group self time per 1k
/// images, achieved GMAC/s per group, GB/s from the traffic estimate, and
/// how much of run_into the instruction spans cover. `infos` is indexed by
/// the "m=" tag of the image contexts (a single entry serves untagged ones).
void emit_engine_layers(Report& r, const TraceSummary& t, const std::vector<ProgramInfo>& infos);

/// Thread-scaling side pass: each program at 1, 2 and 4 pool threads on
/// `input`, interleaved blocks; emits runtime.speedup_2t / _4t (geomean over
/// programs) and runtime.pool_regions_per_batch at 4 threads. Restores a
/// 1-thread pool.
void emit_thread_scaling(Report& r, const std::vector<const FixedPointProgram*>& progs,
                         const Tensor& input, double seconds);

/// Serving-layer metrics every workload reports; the offline workloads,
/// which never touch serve, net or qos, report them as zero counts and
/// shares through this one call.
struct ServingLayers {
  double max_rate_rps = 0;
  double mean_batch = 0, batches = 0, shed = 0, deadline_dropped = 0, queue_high_water = 0;
  double server_p50_share = 0, server_p99_share = 0, busy_share = 0;
  double swaps = 0, swap_share = 0;
  double bytes_in_per_req = 0, bytes_out_per_req = 0, parse_share = 0, respond_share = 0;
  double jain_ok_share = 0, abuser_limited_share = 0;
  double gold_p99_share = 0, silver_p99_share = 0, bronze_p99_share = 0;
  double gen_sent = 0, gen_late_share = 0, gen_stall_windows = 0;
};
void emit_serving_layers(Report& r, const ServingLayers& s);

/// client.p99_ms (from the untraced part of a traced run; run-to-run it
/// moves too much on a shared host to gate on), trace.overhead and
/// trace.dropped.
void emit_trace_layers(Report& r, double client_p99_ms, double overhead, uint64_t dropped);

// ---- workloads -------------------------------------------------------------

void run_offline(const RunConfig& cfg, bool w4a8_per_channel, Report& r);
void run_gateway(const RunConfig& cfg, Report& r);
void run_tenants(const RunConfig& cfg, Report& r);

}  // namespace tqt::bench
