// gateway_sweep: the zoo's cheapest model (mini_mobilenet_v1) behind a
// 2-shard gateway with no tenants, driven open loop by one generator thread
// over four connections (two per reactor).
//
// The engine does little per request here, so the wire, the reactors and
// the batcher set the numbers. The untraced run offers a fixed 10k req/s
// (well under capacity — rare stalls of 100+ ms showed up at higher fixed
// rates) and reports the latency percentiles. The traced run adds a knee
// search for the highest Poisson rate the gateway sustains within the
// latency limit; on a shared 4-vCPU host that rate moves by a quarter
// between runs, too much to gate on, so it is a per-layer figure.
#include "fixedpoint/autotune.h"
#include "runtime/parallel.h"
#include "serving.h"
#include "stats.h"
#include "tensor/rng.h"

namespace tqt::bench {
namespace {

constexpr int kConns = 4;
constexpr int kPool = 64;
constexpr double kFixedRate = 10000.0;
constexpr int64_t kWindowNs = 250'000'000;
// A knee window passes when its p99 (from due time) meets the limit, at most
// 0.1% of its requests fail, and the generator itself kept up; a rate passes
// when most of its windows do, so one stalled window cannot end the search.
constexpr double kLimitP99Ms = 5.0;
constexpr double kMinOkShare = 0.999;
constexpr double kMaxLateP99Us = 1000.0;

std::vector<Arrival> make_schedule(double rate, double seconds, uint64_t seed) {
  const std::vector<int64_t> at = poisson_schedule(rate, seconds, seed);
  Rng pick(seed ^ 0x5bd1e995u);
  std::vector<Arrival> s(at.size());
  for (size_t i = 0; i < at.size(); ++i) {
    s[i] = {at[i], static_cast<uint32_t>(i % kConns),
            static_cast<uint32_t>(pick.uniform_int(0, kPool - 1))};
  }
  return s;
}

bool ok(const Outcome& o) { return o.answered && o.status == net::WireStatus::kOk && !o.mismatch; }

/// Share of `kWindowNs` windows (by due time) that meet the knee criteria.
double passing_window_share(const std::vector<Outcome>& out) {
  std::vector<std::vector<const Outcome*>> windows;
  for (const Outcome& o : out) {
    const size_t w = static_cast<size_t>(o.due_ns / kWindowNs);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(&o);
  }
  int pass = 0;
  for (const auto& w : windows) {
    std::vector<double> lat, late;
    double good = 0;
    for (const Outcome* o : w) {
      lat.push_back(latency_or_inf(*o));
      late.push_back(o->late_us());
      good += ok(*o) ? 1 : 0;
    }
    pass += !w.empty() && percentile(lat, 0.99) <= kLimitP99Ms &&
            good >= kMinOkShare * static_cast<double>(w.size()) &&
            percentile(late, 0.99) <= kMaxLateP99Us;
  }
  return windows.empty() ? 0.0 : static_cast<double>(pass) / static_cast<double>(windows.size());
}

}  // namespace

void run_gateway(const RunConfig& cfg, Report& r) {
  set_num_threads(1);
  autotune::set_mode(1);
  std::unique_ptr<BuiltProgram> built;
  std::unique_ptr<ServingRig> rig;
  std::vector<double> calibrate_ms, compile_ms;
  const SetupTime setup = timed_setup(
      setup_repeats(cfg),
      [&] {
        built = std::make_unique<BuiltProgram>(
            build_program(ModelKind::kMiniMobileNetV1, QuantizeConfig{}));
        rig = std::make_unique<ServingRig>(std::vector<TenantSpec>{}, &built->prog, "");
        calibrate_ms.push_back(built->calibrate_ms);
        compile_ms.push_back(built->compile_ms);
      },
      [&] { rig.reset(); });

  const std::vector<Tensor> inputs = make_input_pool(kPool, {1, 16, 16, 3}, cfg.seed);
  const std::vector<Tensor> expected = expected_outputs(built->prog, inputs);
  uint64_t mismatches = 0;
  rig->connect(std::vector<std::string>(kConns), inputs,
               [&](uint32_t i, const net::InferResponse& resp) {
                 return same_output(resp, expected[i]);
               });
  // Half a second of warm-up traffic, checked but not timed.
  for (const Outcome& o :
       rig->gen->run(make_schedule(kFixedRate, 0.5, cfg.seed * 7919), 1'000'000'000)) {
    ++r.attempted;
    mismatches += o.mismatch ? 1 : 0;
  }

  // Fixed-rate phase: the whole measured time of an untraced run. A traced
  // run alternates traced and untraced half-second windows over 40% of the
  // time, then spends the rest on the knee search.
  const double fixed_s = cfg.trace ? 0.4 * cfg.seconds : cfg.seconds;
  const double origin = now_s();
  TraceCollector collector;  // after `origin`, which its thread reads
  if (cfg.trace) {
    collector.set_chrome_output(cfg.chrome, 1000);
    collector.start(100, [&] { return static_cast<int64_t>((now_s() - origin) / 0.5) % 2 == 0; });
  }
  const std::vector<Arrival> fixed = make_schedule(kFixedRate, fixed_s, cfg.seed * 7919 + 1);
  const std::vector<Outcome> out = rig->gen->run(fixed, 2'000'000'000);
  const int64_t t0_ns = rig->gen->t0_ns();
  collector.stop();

  uint64_t good = 0;
  for (const Outcome& o : out) {
    good += ok(o) ? 1 : 0;
    mismatches += o.mismatch ? 1 : 0;
    r.failed += !ok(o) && !o.mismatch ? 1 : 0;  // mismatches are added below
  }
  r.attempted += out.size();
  const Latency lat = summarize(out, [](size_t) { return true; }, 1000);

  r.detail.kv("algo_picks", inspect(built->prog, 16).algo_picks);
  r.detail.key("fixed_rate").obj();
  r.detail.kv("rate", kFixedRate);
  r.detail.kv("sent", static_cast<long long>(out.size()));
  r.detail.kv("ok", static_cast<long long>(good));
  write_latency(r.detail, lat);
  r.detail.kv("schedule_hash", static_cast<unsigned long long>([&] {
                std::vector<int64_t> due;
                for (const Arrival& a : fixed) due.push_back(a.due_ns);
                return schedule_hash(due);
              }()));
  r.detail.end();

  if (!cfg.trace) {
    emit_setup_time(r, setup);
    r.metric("imgs_per_s", static_cast<double>(good) / fixed_s, "img/s");
    r.metric("p50_ms", lat.p50_ms, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    ServingLayers layers = serving_layers(*rig, out, t0_ns, lat, collector);

    // Knee search: fixed probe count and length, so the run's duration does
    // not depend on where the knee lies.
    KneeConfig kc;
    kc.max_steps = 8;
    const double step_s = 0.6 * cfg.seconds / kc.max_steps;
    int step = 0;
    r.detail.key("knee_probes").arr();
    layers.max_rate_rps = knee_search(kc, [&](double rate) {
      const std::vector<Outcome> o = rig->gen->run(
          make_schedule(rate, step_s, cfg.seed * 7919 + 100 + step++), 1'000'000'000);
      // Overload probes are refused by design (typed sheds, unsent
      // requests); only a wrong answer is a failure.
      for (const Outcome& x : o) mismatches += x.mismatch ? 1 : 0;
      r.attempted += o.size();
      const double share = passing_window_share(o);
      r.detail.obj().kv("rate", rate).kv("sent", static_cast<long long>(o.size()));
      r.detail.kv("passing_windows", share).end();
      return share > 0.5;
    }).max_rate;
    r.detail.end();

    const ProgramInfo info = inspect(built->prog, 16);
    emit_setup_layers(r, median(calibrate_ms), median(compile_ms), {info},
                      serving_arena_bytes(built->prog, rig->gw->num_shards()));
    emit_engine_layers(r, collector.summary(), {info});
    rig.reset();  // resizing the pool needs the batcher threads gone
    emit_thread_scaling(r, {&built->prog}, make_input_pool(1, {32, 16, 16, 3}, 0)[0],
                        0.2 * cfg.seconds);
    emit_serving_layers(r, layers);
    const auto all = [](size_t) { return true; };
    emit_trace_layers(r, untraced_p99_ms(out, all, t0_ns, collector),
                      trace_overhead(out, all, t0_ns, collector), collector.summary().dropped);
  }
  r.failed += mismatches;
  if (mismatches > 0) r.error("gateway: responses differ from the engine's output");
}

}  // namespace tqt::bench
