#include "serving.h"

#include <cstring>
#include <limits>

#include "stats.h"

namespace tqt::bench {

ServingRig::ServingRig(const std::vector<TenantSpec>& specs, const FixedPointProgram* prog,
                       const std::string& artifact) {
  qos::ShardedGatewayConfig cfg;
  cfg.num_shards = 2;
  cfg.batch.max_batch = 16;
  cfg.batch.max_delay_us = 200;
  cfg.metrics = &metrics;
  if (!specs.empty()) {
    tenants = std::make_unique<qos::TenantTable>(&metrics);
    std::vector<qos::TenantConfig> configs;
    for (const TenantSpec& s : specs) {
      qos::TenantConfig c;
      c.token = s.name;
      c.name = s.name;
      c.klass = s.klass;
      c.weight = s.weight;
      c.rate_rps = s.rate_rps;
      c.burst = s.burst;
      c.max_inflight = s.max_inflight;
      configs.push_back(c);
    }
    tenants->load(configs);
    cfg.tenants = tenants.get();
  }
  gw = std::make_unique<qos::ShardedGateway>(cfg);
  if (prog != nullptr) {
    gw->deploy(kLane, *prog, {16, 16, 3});
  } else {
    TQT_TRACE("bench.deploy_file", "bench");
    gw->deploy_file(kLane, artifact, {16, 16, 3});
  }
}

void ServingRig::connect(const std::vector<std::string>& tokens,
                         const std::vector<Tensor>& inputs, LoadGenerator::Verifier accept) {
  std::vector<int> fds = connect_round_robin(gw->port(), static_cast<int>(tokens.size()),
                                             [this] { return shard_connections(); });
  gen = std::make_unique<LoadGenerator>(std::move(fds), tokens, kLane, inputs, std::move(accept));
}

std::vector<int64_t> ServingRig::shard_connections() {
  std::vector<int64_t> c;
  for (int i = 0; i < gw->num_shards(); ++i) {
    c.push_back(metrics.gauge("net.shard" + std::to_string(i) + ".connections").value());
  }
  return c;
}

std::vector<Tensor> expected_outputs(const FixedPointProgram& prog,
                                     const std::vector<Tensor>& inputs) {
  ExecContext ctx;
  std::vector<Tensor> out(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) prog.run_into(inputs[i], ctx, out[i]);
  return out;
}

bool same_output(const net::InferResponse& resp, const Tensor& want) {
  return resp.output.shape() == want.shape() &&
         std::memcmp(resp.output.data(), want.data(),
                     static_cast<size_t>(want.numel()) * sizeof(float)) == 0;
}

double latency_or_inf(const Outcome& o) {
  return o.answered && o.status == net::WireStatus::kOk && !o.mismatch
             ? o.latency_ms()
             : std::numeric_limits<double>::infinity();
}

bool due_in(const std::vector<std::pair<int64_t, int64_t>>& intervals, int64_t t0_ns,
            const Outcome& o) {
  const int64_t due = t0_ns + o.due_ns;
  for (const auto& [a, b] : intervals) {
    if (due >= a && due < b) return true;
  }
  return false;
}

Latency summarize(const std::vector<Outcome>& outcomes, const std::function<bool(size_t)>& pick,
                  size_t min_window) {
  std::vector<int64_t> due;
  std::vector<double> lat;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!pick(i)) continue;
    due.push_back(outcomes[i].due_ns);
    lat.push_back(latency_or_inf(outcomes[i]));
  }
  Latency l;
  l.p50_ms = percentile(lat, 0.50);
  l.p99_ms = windowed_percentile(due, lat, 500'000'000, 0.99, min_window);
  l.p99_pooled_ms = percentile(lat, 0.99);
  return l;
}

void write_latency(observe::JsonWriter& w, const Latency& l) {
  w.kv("p50_ms", l.p50_ms).kv("p99_ms", l.p99_ms).kv("p99_pooled_ms", l.p99_pooled_ms);
}

double trace_overhead(const std::vector<Outcome>& outcomes, const std::function<bool(size_t)>& pick,
                      int64_t t0_ns, const TraceCollector& trace) {
  std::vector<double> on, off;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!pick(i)) continue;
    (due_in(trace.traced_intervals(), t0_ns, outcomes[i]) ? on : off)
        .push_back(latency_or_inf(outcomes[i]));
  }
  return percentile(on, 0.5) / percentile(off, 0.5) - 1.0;
}

double untraced_p99_ms(const std::vector<Outcome>& outcomes,
                       const std::function<bool(size_t)>& pick, int64_t t0_ns,
                       const TraceCollector& trace) {
  std::vector<double> lat;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (pick(i) && !due_in(trace.traced_intervals(), t0_ns, outcomes[i])) {
      lat.push_back(latency_or_inf(outcomes[i]));
    }
  }
  return percentile(lat, 0.99);
}

int64_t serving_arena_bytes(const FixedPointProgram& prog, int shards) {
  ExecContext ctx;
  Tensor out;
  prog.run_into(make_input_pool(1, {16, 16, 16, 3}, 0)[0], ctx, out);
  return ctx.arena_bytes() * shards;
}

ServingLayers serving_layers(ServingRig& rig, const std::vector<Outcome>& outcomes,
                             int64_t t0_ns, const Latency& client, const TraceCollector& trace) {
  ServingLayers s;
  // Every shard's lane publishes into the one shared registry, so shard 0's
  // snapshot already sums the shards.
  const serve::StatsSnapshot st = rig.gw->server().stats(kLane);
  s.mean_batch = st.mean_batch();
  s.batches = static_cast<double>(st.batches);
  s.shed = static_cast<double>(st.shed);
  s.deadline_dropped = static_cast<double>(st.deadline_dropped);
  s.queue_high_water = static_cast<double>(st.queue_high_water);
  if (client.p50_ms > 0) s.server_p50_share = static_cast<double>(st.p50_us) * 1e-3 / client.p50_ms;
  if (client.p99_ms > 0) s.server_p99_share = static_cast<double>(st.p99_us) * 1e-3 / client.p99_ms;

  double bytes_in = 0, bytes_out = 0, requests = 0;
  for (int i = 0; i < rig.gw->num_shards(); ++i) {
    const std::string p = "net.shard" + std::to_string(i) + ".";
    bytes_in += static_cast<double>(rig.metrics.counter(p + "bytes_in").value());
    bytes_out += static_cast<double>(rig.metrics.counter(p + "bytes_out").value());
    requests += static_cast<double>(rig.metrics.counter(p + "requests").value());
  }
  if (requests > 0) {
    s.bytes_in_per_req = bytes_in / requests;
    s.bytes_out_per_req = bytes_out / requests;
  }

  std::vector<int64_t> done_ns;
  std::vector<double> lat_ms;
  double late = 0;
  for (const Outcome& o : outcomes) {
    late += o.late_us() > 1000.0 ? 1 : 0;
    if (!o.answered) continue;
    done_ns.push_back(o.done_ns);
    lat_ms.push_back(o.latency_ms());
  }
  s.gen_sent = static_cast<double>(outcomes.size());
  s.gen_late_share = outcomes.empty() ? 0.0 : late / static_cast<double>(outcomes.size());
  s.gen_stall_windows =
      count_stall_windows(done_ns, lat_ms, 500'000'000, client.p50_ms, /*factor=*/10.0);

  const auto& all = trace.summary().all;
  const auto total = [&](const char* name) {
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : it->second.total_ns;
  };
  double wall_ns = 0, traced_latency_ns = 0;
  for (const auto& [a, b] : trace.traced_intervals()) wall_ns += static_cast<double>(b - a);
  for (const Outcome& o : outcomes) {
    if (o.answered && due_in(trace.traced_intervals(), t0_ns, o)) {
      traced_latency_ns += static_cast<double>(o.done_ns - o.due_ns);
    }
  }
  if (wall_ns > 0) s.busy_share = total("serve.execute") / (wall_ns * rig.gw->num_shards());
  if (traced_latency_ns > 0) {
    s.parse_share = total("net.parse") / traced_latency_ns;
    s.respond_share = total("net.respond") / traced_latency_ns;
  }
  return s;
}

}  // namespace tqt::bench
