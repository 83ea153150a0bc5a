// offline_w8a8 / offline_w4a8_pc: the six zoo models compiled (fused,
// autotuned) at one precision, timed in-process on a 1-thread pool.
//
// Each round runs a short block of every model and then a block of the
// speed probe (probe.h). Blocks interleave so a slow spell of the machine
// lands on every model, and every block is scaled by its round's probe rate,
// so the reported figures hold the machine speed fixed. One pool thread
// because wider pools swing by tens of percent between runs; thread scaling
// is the traced run's side pass.
#include <cstring>

#include "fixedpoint/autotune.h"
#include "probe.h"
#include "runtime/parallel.h"
#include "stats.h"
#include "suite.h"

namespace tqt::bench {
namespace {

constexpr int64_t kBatch = 32;
constexpr int kInputs = 4;
constexpr double kBlockS = 0.025;

struct Model {
  BuiltProgram built;
  std::vector<Tensor> inputs, expected;
  ExecContext ctx;
  Tensor out;
  // Per block (as measured) and per block scaled to the nominal speed.
  std::vector<double> tput, traced_tput, scaled_tput, raw_call_ms, scaled_call_ms;
  std::vector<double> pending_calls;  ///< this round's untraced call times
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// One timed block of `m` (zoo index `idx`), every output checked; returns
/// images per second.
double run_block(Model& m, int idx, bool traced, Report& r) {
  const double t0 = now_s();
  double t = t0;
  int64_t calls = 0;
  for (; t - t0 < kBlockS; ++calls) {
    const size_t i = static_cast<size_t>(calls % kInputs);
    {
      observe::TraceSpan span("bench.run_into", "bench");
      span.argf("n=%lld m=%d", static_cast<long long>(kBatch), idx);
      m.built.prog.run_into(m.inputs[i], m.ctx, m.out);
    }
    const double t1 = now_s();
    if (!traced) m.pending_calls.push_back((t1 - t) * 1e3);
    t = t1;
    ++r.attempted;
    if (!same_bits(m.out, m.expected[i])) ++r.failed;
  }
  return static_cast<double>(calls * kBatch) / (t - t0);
}

}  // namespace

void run_offline(const RunConfig& cfg, bool w4a8_per_channel, Report& r) {
  set_num_threads(1);
  autotune::set_mode(1);
  QuantizeConfig qcfg;
  if (w4a8_per_channel) {
    qcfg.precision.wbits = 4;
    qcfg.precision.per_channel_weights = true;
  }
  const std::vector<ModelKind> kinds = all_model_kinds();

  // Set-up: what a deployment pays before its first image — calibrate,
  // compile and tune every model, then size each arena with one run.
  std::vector<Model> models;
  std::vector<double> calibrate_ms, compile_ms;
  const Tensor warm_input = make_input_pool(1, {kBatch, 16, 16, 3}, 0)[0];
  const SetupTime setup = timed_setup(
      setup_repeats(cfg),
      [&] {
        models = std::vector<Model>(kinds.size());
        double cal = 0.0, comp = 0.0;
        for (size_t k = 0; k < kinds.size(); ++k) {
          models[k].built = build_program(kinds[k], qcfg);
          models[k].built.prog.run_into(warm_input, models[k].ctx, models[k].out);
          cal += models[k].built.calibrate_ms;
          comp += models[k].built.compile_ms;
        }
        calibrate_ms.push_back(cal);
        compile_ms.push_back(comp);
      },
      [&] { models.clear(); });

  // Inputs come from the seed; each batch is checked bit-exact against the
  // int64 reference interpreter before any timing, and every timed call is
  // then compared with the checked output.
  for (size_t k = 0; k < models.size(); ++k) {
    Model& m = models[k];
    m.inputs = make_input_pool(kInputs, {kBatch, 16, 16, 3}, cfg.seed * 1000 + k);
    for (const Tensor& x : m.inputs) {
      ++r.attempted;
      const IntTensor got = m.built.prog.run_raw(x);
      const IntTensor want = m.built.prog.run_raw_reference(x);
      if (got.shape != want.shape || got.exponent != want.exponent || got.data != want.data) {
        ++r.failed;
        r.error(m.built.model + ": typed engine differs from the int64 reference");
      }
      m.built.prog.run_into(x, m.ctx, m.out);
      m.expected.push_back(m.out);
    }
  }

  // One untimed round, then rounds until the budget is spent. A traced run
  // times each model twice per round back to back, traced and untraced
  // (order flipped every round), and drains the rings after the traced block.
  SpeedProbe probe;
  std::vector<double> probe_rates;
  TraceCollector collector;
  if (cfg.trace) collector.set_chrome_output(cfg.chrome, 0);
  const double budget = cfg.trace ? 0.8 * cfg.seconds : cfg.seconds;
  const double start = now_s();
  for (int round = -1; round < 0 || now_s() - start < budget; ++round) {
    std::vector<double> untraced(models.size()), traced(models.size());
    for (size_t k = 0; k < models.size(); ++k) {
      const int idx = static_cast<int>(k);
      models[k].pending_calls.clear();
      if (!cfg.trace) {
        untraced[k] = run_block(models[k], idx, false, r);
        continue;
      }
      for (int half = 0; half < 2; ++half) {
        const bool on = (half == 0) == (round % 2 == 0);
        observe::Tracer::global().set_enabled(on);
        (on ? traced : untraced)[k] = run_block(models[k], idx, on, r);
        observe::Tracer::global().set_enabled(false);
        if (on) collector.drain();
      }
    }
    const double rate = probe.measure(kBlockS);
    if (round < 0) continue;
    probe_rates.push_back(rate);
    for (size_t k = 0; k < models.size(); ++k) {
      Model& m = models[k];
      m.tput.push_back(untraced[k]);
      m.scaled_tput.push_back(untraced[k] / to_nominal(rate));
      if (cfg.trace) m.traced_tput.push_back(traced[k]);
      for (double ms : m.pending_calls) {
        m.raw_call_ms.push_back(ms);
        m.scaled_call_ms.push_back(ms * to_nominal(rate));
      }
    }
  }

  // p99: every untraced call over its model's median, pooled across the zoo
  // (a few thousand calls, so the 99th percentile has tens of calls beyond
  // it, which no single slow model has in one run), times the geomean median.
  std::vector<double> tput, p50, p99, overhead, relative;
  r.detail.kv("probe_rate", median(probe_rates));
  r.detail.key("models").arr();
  for (Model& m : models) {
    tput.push_back(median(m.scaled_tput));
    p50.push_back(percentile(m.scaled_call_ms, 0.50));
    p99.push_back(percentile(m.scaled_call_ms, 0.99));
    for (double ms : m.scaled_call_ms) relative.push_back(ms / p50.back());
    if (cfg.trace) overhead.push_back(median(m.tput) / median(m.traced_tput));
    r.detail.obj();
    r.detail.kv("model", m.built.model);
    r.detail.kv("imgs_per_s", tput.back());
    r.detail.kv("imgs_per_s_raw", median(m.tput));
    r.detail.kv("blocks", static_cast<long long>(m.tput.size()));
    r.detail.kv("calls", static_cast<long long>(m.raw_call_ms.size()));
    r.detail.kv("p50_ms", p50.back());
    r.detail.kv("p99_ms", p99.back());
    r.detail.kv("p50_ms_raw", percentile(m.raw_call_ms, 0.50));
    r.detail.kv("p99_ms_raw", percentile(m.raw_call_ms, 0.99));
    r.detail.end();
  }
  r.detail.end();
  const double p99_ms = geomean(p50) * percentile(relative, 0.99);
  r.detail.kv("p99_ms", p99_ms);

  std::vector<ProgramInfo> infos;
  int64_t arena = 0;
  r.detail.key("programs").arr();
  for (const Model& m : models) {
    infos.push_back(inspect(m.built.prog, kBatch));
    arena += m.ctx.arena_bytes();
    r.detail.obj();
    r.detail.kv("model", m.built.model);
    r.detail.kv("algo_picks", infos.back().algo_picks);
    r.detail.kv("vec32_epilogues", infos.back().vec32);
    r.detail.kv("fused", infos.back().fused);
    r.detail.end();
  }
  r.detail.end();

  if (!cfg.trace) {
    emit_setup_time(r, setup);
    r.metric("imgs_per_s", geomean(tput), "img/s");
    r.metric("p50_ms", geomean(p50), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  emit_setup_layers(r, median(calibrate_ms), median(compile_ms), infos, arena);
  emit_engine_layers(r, collector.summary(), infos);
  std::vector<const FixedPointProgram*> progs;
  for (const Model& m : models) progs.push_back(&m.built.prog);
  emit_thread_scaling(r, progs, models[0].inputs[0], 0.2 * cfg.seconds);
  emit_serving_layers(r, {});
  emit_trace_layers(r, p99_ms, geomean(overhead) - 1.0, collector.summary().dropped);
}

}  // namespace tqt::bench
