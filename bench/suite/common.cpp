#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "fixedpoint/autotune.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "graph_opt/transforms.h"
#include "observe/observe.h"
#include "probe.h"
#include "runtime/parallel.h"
#include "stats.h"
#include "suite.h"
#include "tensor/rng.h"

namespace tqt::bench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

BuiltProgram build_program(ModelKind kind, const QuantizeConfig& qcfg, uint64_t calib_seed) {
  BuiltProgram b;
  b.model = model_name(kind);
  BuiltModel m = build_model(kind, 10, 11);
  Rng rng(11);
  m.graph.set_training(true);
  for (int i = 0; i < 10; ++i) {
    m.graph.run({{m.input, rng.normal_tensor({8, 16, 16, 3}, 0.2f, 1.0f)}}, m.logits);
  }
  m.graph.set_training(false);
  Rng calib_rng(calib_seed);
  const Tensor calib = calib_rng.normal_tensor({16, 16, 16, 3}, 0.2f, 1.0f);

  const double t0 = now_s();
  optimize_for_quantization(m.graph, m.input, calib);
  const QuantizePassResult qres = quantize_pass(m.graph, m.input, m.logits, qcfg);
  calibrate_thresholds(m.graph, qres, m.input, calib, WeightInit::kMax);
  const double t1 = now_s();
  {
    TQT_TRACE("bench.compile", "bench");
    b.prog = compile_fixed_point(m.graph, m.input, qres.quantized_output);
  }
  b.calibrate_ms = (t1 - t0) * 1e3;
  b.compile_ms = (now_s() - t1) * 1e3;
  return b;
}

SetupTime timed_setup(int repeats, const std::function<void()>& setup,
                      const std::function<void()>& teardown) {
  SpeedProbe probe;
  std::vector<double> raw, scaled, rates;
  for (int i = 0; i < repeats; ++i) {
    teardown();
    autotune::reset_for_test();
    const double before = probe.measure(0.05);
    const double t0 = now_s();
    setup();
    raw.push_back(now_s() - t0);
    rates.push_back(0.5 * (before + probe.measure(0.05)));
    scaled.push_back(raw.back() * to_nominal(rates.back()));
  }
  return {median(raw), median(scaled), median(rates)};
}

void emit_setup_time(Report& r, const SetupTime& t) {
  r.metric("setup_s", t.scaled_s, "s");
  r.detail.kv("setup_s_raw", t.seconds);
  r.detail.kv("setup_probe_rate", t.probe_rate);
}

ProgramInfo inspect(const FixedPointProgram& prog, int64_t batch) {
  ProgramInfo info;
  const ExecPlan& plan = prog.plan();
  const std::vector<FpInstr>& xs = plan.instrs.empty() ? prog.instructions() : plan.instrs;
  std::vector<FpRegShape> shapes;
  infer_register_shapes(xs, static_cast<int>(plan.regs.size()), prog.input_reg(), {1, 16, 16, 3},
                        shapes);
  for (size_t i = 0; i < xs.size(); ++i) {
    const FpInstr& in = xs[i];
    if (is_fused_kind(in.kind)) {
      ++info.fused;
      info.vec32 += plan.consts[i].epi_vec32 ? 1 : 0;
    }
    if (!is_matmul_kind(in.kind)) continue;
    // Every matmul kind reads each weight once per output position: MACs =
    // (output elements / output channels) * weight elements.
    const FpRegShape& o = shapes[static_cast<size_t>(in.output)];
    double positions = 1.0;
    for (int d = 0; d + 1 < o.rank; ++d) positions *= static_cast<double>(o.dims[d]);
    info.macs_per_image[kind_group(to_string(in.kind))] +=
        positions * static_cast<double>(in.const_data.size());
  }
  if (const auto& t = prog.tuning()) {
    info.tuned = t->tuned_instrs;
    info.blocked = t->blocked_instrs;
  }
  for (const autotune::ExplainRow& row : autotune::explain_kernels(prog)) {
    if (row.shape.empty()) continue;
    info.s4 += row.algo == fpk::algo_name(fpk::Algo::kGemmS4) ? 1 : 0;
    info.algo_picks += (info.algo_picks.empty() ? "" : ",") + row.algo;
  }
  info.bytes_per_image =
      static_cast<double>(estimate_traffic(prog, {batch, 16, 16, 3}).typed_bytes) /
      static_cast<double>(batch);
  return info;
}

std::string kind_group(const std::string& span) {
  static const std::set<std::string> kinds = [] {
    std::set<std::string> s;
    for (int k = 0; k <= static_cast<int>(FpInstr::Kind::kLayoutUnpack); ++k) {
      s.insert(to_string(static_cast<FpInstr::Kind>(k)));
    }
    return s;
  }();
  if (!kinds.count(span)) return "";
  if (span.rfind("conv2d", 0) == 0) return "conv";
  if (span.rfind("depthwise", 0) == 0) return "depthwise";
  if (span.rfind("dense", 0) == 0) return "dense";
  if (span == "quantize_input") return "quantize_input";
  return "other";
}

void emit_setup_layers(Report& r, double calibrate_ms, double compile_ms,
                       const std::vector<ProgramInfo>& infos, int64_t arena_bytes) {
  int fused = 0, vec32 = 0, tuned = 0, blocked = 0, s4 = 0;
  for (const ProgramInfo& i : infos) {
    fused += i.fused;
    vec32 += i.vec32;
    tuned += i.tuned;
    blocked += i.blocked;
    s4 += i.s4;
  }
  r.metric("quant.calibrate_ms", calibrate_ms, "ms");
  r.metric("fixedpoint.compile_ms", compile_ms, "ms");
  r.metric("fixedpoint.tuned_instrs", tuned, "count");
  r.metric("fixedpoint.blocked_instrs", blocked, "count");
  r.metric("fixedpoint.s4_instrs", s4, "count");
  r.metric("fixedpoint.vec32_epilogue_share", fused ? static_cast<double>(vec32) / fused : 0.0,
           "share");
  r.metric("fixedpoint.arena_kb", static_cast<double>(arena_bytes) / 1024.0, "KB");
}

void emit_engine_layers(Report& r, const TraceSummary& t, const std::vector<ProgramInfo>& infos) {
  static const char* kGroups[] = {"conv", "depthwise", "dense", "quantize_input", "other"};
  std::map<std::string, double> self_ns;
  double instr_ns = 0.0;
  for (const auto& [name, s] : t.spans) {
    const std::string g = kind_group(name);
    if (g.empty()) continue;
    self_ns[g] += s.self_ns;
    instr_ns += s.self_ns;
  }
  std::map<std::string, double> macs;
  double bytes = 0.0;
  for (const auto& [m, images] : t.images_by_model) {
    const ProgramInfo& info = infos[m >= 0 && m < static_cast<int>(infos.size()) ? m : 0];
    for (const auto& [g, per_image] : info.macs_per_image) macs[g] += per_image * images;
    bytes += info.bytes_per_image * images;
  }
  const auto it = t.spans.find("engine.run_into");
  const double run_ns = it == t.spans.end() ? 0.0 : it->second.total_ns;
  const double per_kimg = t.images > 0 ? 1e-3 / t.images : 0.0;  // ns -> ms per 1k images
  r.metric("fixedpoint.run_into_ms_per_kimg", run_ns * per_kimg, "ms");
  for (const char* g : kGroups) {
    r.metric(std::string("fixedpoint.self_ms.") + g, self_ns[g] * per_kimg, "ms");
  }
  for (const char* g : {"conv", "depthwise", "dense"}) {
    r.metric(std::string("fixedpoint.gmacs_per_s.") + g,
             self_ns[g] > 0 ? macs[g] / self_ns[g] : 0.0, "GMAC/s");
  }
  r.metric("fixedpoint.gb_per_s", run_ns > 0 ? bytes / run_ns : 0.0, "GB/s");
  r.metric("trace.self_coverage", run_ns > 0 ? instr_ns / run_ns : 0.0, "share");

  r.detail.key("self_ms_per_kimg_by_kind").obj();
  for (const auto& [name, s] : t.spans) {
    if (!kind_group(name).empty()) r.detail.kv(name, s.self_ns * per_kimg);
  }
  r.detail.end();
}

void emit_thread_scaling(Report& r, const std::vector<const FixedPointProgram*>& progs,
                         const Tensor& input, double seconds) {
  constexpr double kBlock = 0.04;
  const int threads[] = {1, 2, 4};
  const int rounds =
      std::max(2, static_cast<int>(seconds / (kBlock * 3.0 * static_cast<double>(progs.size()))));
  observe::Counter& regions = observe::MetricsRegistry::global().counter("pool.regions");
  std::vector<std::vector<std::vector<double>>> tput(
      progs.size(), std::vector<std::vector<double>>(3));
  uint64_t regions_4t = 0, runs_4t = 0;
  std::vector<ExecContext> ctx(progs.size());
  Tensor out;
  for (int round = 0; round < rounds; ++round) {
    for (int ti = 0; ti < 3; ++ti) {
      set_num_threads(threads[ti]);
      for (size_t p = 0; p < progs.size(); ++p) {
        progs[p]->run_into(input, ctx[p], out);  // warm the pool at this size
        const uint64_t reg0 = regions.value();
        uint64_t runs = 0;
        const double t0 = now_s();
        double t = t0;
        for (; t - t0 < kBlock; t = now_s(), ++runs) progs[p]->run_into(input, ctx[p], out);
        tput[p][static_cast<size_t>(ti)].push_back(static_cast<double>(runs) / (t - t0));
        if (threads[ti] == 4) {
          regions_4t += regions.value() - reg0;
          runs_4t += runs;
        }
      }
    }
  }
  set_num_threads(1);
  std::vector<double> s2, s4;
  for (auto& per : tput) {
    const double base = median(per[0]);
    s2.push_back(median(per[1]) / base);
    s4.push_back(median(per[2]) / base);
  }
  r.metric("runtime.speedup_2t", geomean(s2), "x");
  r.metric("runtime.speedup_4t", geomean(s4), "x");
  r.metric("runtime.pool_regions_per_batch",
           runs_4t ? static_cast<double>(regions_4t) / static_cast<double>(runs_4t) : 0.0,
           "count");
}

void emit_serving_layers(Report& r, const ServingLayers& s) {
  r.metric("serve.max_rate_rps", s.max_rate_rps, "img/s");
  r.metric("serve.mean_batch", s.mean_batch, "img");
  r.metric("serve.batches", s.batches, "count");
  r.metric("serve.shed", s.shed, "count");
  r.metric("serve.deadline_dropped", s.deadline_dropped, "count");
  r.metric("serve.queue_high_water", s.queue_high_water, "count");
  r.metric("serve.server_p50_share", s.server_p50_share, "share");
  r.metric("serve.server_p99_share", s.server_p99_share, "share");
  r.metric("serve.busy_share", s.busy_share, "share");
  r.metric("serve.swaps", s.swaps, "count");
  r.metric("serve.swap_share", s.swap_share, "share");
  r.metric("net.bytes_in_per_req", s.bytes_in_per_req, "B");
  r.metric("net.bytes_out_per_req", s.bytes_out_per_req, "B");
  r.metric("net.parse_share", s.parse_share, "share");
  r.metric("net.respond_share", s.respond_share, "share");
  r.metric("qos.jain_ok_share", s.jain_ok_share, "share");
  r.metric("qos.abuser_limited_share", s.abuser_limited_share, "share");
  r.metric("qos.gold_p99_share", s.gold_p99_share, "share");
  r.metric("qos.silver_p99_share", s.silver_p99_share, "share");
  r.metric("qos.bronze_p99_share", s.bronze_p99_share, "share");
  r.metric("gen.sent", s.gen_sent, "count");
  r.metric("gen.late_share", s.gen_late_share, "share");
  r.metric("gen.stall_windows", s.gen_stall_windows, "count");
}

void emit_trace_layers(Report& r, double client_p99_ms, double overhead, uint64_t dropped) {
  r.metric("client.p99_ms", client_p99_ms, "ms");
  r.metric("trace.overhead", overhead, "ratio");
  r.metric("trace.dropped", static_cast<double>(dropped), "count");
}

}  // namespace tqt::bench
