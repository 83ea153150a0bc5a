// The serving rig shared by gateway_sweep and tenants_hotswap: a 2-shard
// ShardedGateway serving one lane, the open-loop generator's connections to
// it, and the per-layer figures read back from its metrics and the trace.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "qos/shard.h"
#include "qos/tenant.h"
#include "suite.h"

namespace tqt::bench {

inline constexpr const char* kLane = "bench";

/// One tenant of the tenants_hotswap mix (an untenanted rig has none).
struct TenantSpec {
  std::string name;
  int klass = qos::kClassNormal;
  int weight = 1;
  double rate_rps = 0.0;  ///< token-bucket rate; 0 = unmetered
  double burst = 0.0;
  int64_t max_inflight = 0;
  double offered_rps = 0.0;
  bool well_behaved = true;
};

struct ServingRig {
  /// Start the gateway (2 shards, max_batch 16, 200 us batching delay) with
  /// `tenants` loaded into its table (none = untenanted) and deploy
  /// `artifact` (a saved program) or `prog` on lane kLane.
  ServingRig(const std::vector<TenantSpec>& tenants, const FixedPointProgram* prog,
             const std::string& artifact);

  /// Open `tokens.size()` generator connections, placed round-robin over
  /// the shards, and encode the input pool's request frames.
  void connect(const std::vector<std::string>& tokens, const std::vector<Tensor>& inputs,
               LoadGenerator::Verifier accept);

  /// Live connections per shard (net.shard<i>.connections).
  std::vector<int64_t> shard_connections();

  // Destruction order: generator sockets, gateway, tenant table, metrics.
  observe::MetricsRegistry metrics;
  std::unique_ptr<qos::TenantTable> tenants;
  std::unique_ptr<qos::ShardedGateway> gw;
  std::unique_ptr<LoadGenerator> gen;
};

/// The expected output of `prog` for each single-image input.
std::vector<Tensor> expected_outputs(const FixedPointProgram& prog,
                                     const std::vector<Tensor>& inputs);

/// True when `resp` carries exactly `want` (shape and every bit).
bool same_output(const net::InferResponse& resp, const Tensor& want);

/// Latency (from due time) of a request; failed or unanswered requests count
/// as missing every limit, so they sort above all answered ones.
double latency_or_inf(const Outcome& o);

/// True when the request was due inside one of the traced intervals.
bool due_in(const std::vector<std::pair<int64_t, int64_t>>& intervals, int64_t t0_ns,
            const Outcome& o);

/// Client latency of the `outcomes` that `pick` selects, from due time:
/// p50 over all of them, and p99 as the median of half-second windows' p99
/// (windows with fewer than `min_window` requests skipped) so that one
/// stalled window cannot move it. Failed requests count as infinitely slow.
struct Latency {
  double p50_ms = 0, p99_ms = 0;
  double p99_pooled_ms = 0;  ///< one p99 over the whole phase, stalls included
};
Latency summarize(const std::vector<Outcome>& outcomes, const std::function<bool(size_t)>& pick,
                  size_t min_window);
void write_latency(observe::JsonWriter& w, const Latency& l);

/// trace.overhead of a serving run: the p50 of the `pick`ed requests due in
/// traced windows over the p50 of the others, minus one.
double trace_overhead(const std::vector<Outcome>& outcomes, const std::function<bool(size_t)>& pick,
                      int64_t t0_ns, const TraceCollector& trace);

/// p99 of the `pick`ed requests due outside the traced windows.
double untraced_p99_ms(const std::vector<Outcome>& outcomes,
                       const std::function<bool(size_t)>& pick, int64_t t0_ns,
                       const TraceCollector& trace);

/// Arena bytes the gateway's batcher workers hold: one warm ExecContext at
/// the maximum batch per shard.
int64_t serving_arena_bytes(const FixedPointProgram& prog, int shards);

/// The serving-layer figures of a traced run, from the gateway's stats and
/// metrics, the generator outcomes of the measured phase (times from
/// steady-clock `t0_ns`), their latency summary and the trace.
ServingLayers serving_layers(ServingRig& rig, const std::vector<Outcome>& outcomes,
                             int64_t t0_ns, const Latency& client, const TraceCollector& trace);

}  // namespace tqt::bench
