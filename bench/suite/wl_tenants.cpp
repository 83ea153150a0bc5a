// tenants_hotswap: mini_resnet (about 100 us per image, so the engine
// dominates) behind a 2-shard gateway with a tenant table, while a second
// thread hot-swaps the served program every two seconds.
//
// Gold, silver and bronze are well-behaved; the abuser offers ten times its
// token-bucket rate. Each tenant has its own connection, placed so that gold
// shares a reactor with the abuser and silver with bronze on every run. The
// swap alternates two artifacts of the same model calibrated on different
// batches, so registry writes, load/finalize and the autotune cache run
// beside inference reads, and either version's output is a correct answer.
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "fixedpoint/autotune.h"
#include "runtime/parallel.h"
#include "serving.h"
#include "stats.h"
#include "tensor/rng.h"

namespace tqt::bench {
namespace {

constexpr int kPool = 64;

/// Connection order is shard placement: 0 and 2 share one reactor, 1 and 3
/// the other.
std::vector<TenantSpec> tenant_mix() {
  return {
      {"gold", qos::kClassHigh, 4, 0.0, 0.0, 0, 250.0, true},
      {"silver", qos::kClassNormal, 2, 0.0, 0.0, 0, 500.0, true},
      {"abuser", qos::kClassLow, 1, 150.0, 50.0, 8, 1500.0, false},
      {"bronze", qos::kClassLow, 1, 0.0, 0.0, 0, 1250.0, true},
  };
}

bool rejected_by_quota(net::WireStatus s) {
  return s == net::WireStatus::kRateLimited || s == net::WireStatus::kQuotaExceeded;
}

}  // namespace

void run_tenants(const RunConfig& cfg, Report& r) {
  set_num_threads(1);
  autotune::set_mode(1);
  const std::vector<TenantSpec> mix = tenant_mix();
  const std::string artifact[2] = {cfg.scratch + ".a.tqtp", cfg.scratch + ".b.tqtp"};
  struct RemoveOnExit {
    const std::string* paths;
    ~RemoveOnExit() {
      std::error_code ec;
      for (int v = 0; v < 2; ++v) {
        std::filesystem::remove(paths[v], ec);
        std::filesystem::remove(paths[v] + ".tqt.tune", ec);
      }
    }
  } remove_artifacts{artifact};

  std::unique_ptr<BuiltProgram> built[2];
  std::unique_ptr<ServingRig> rig;
  std::vector<double> calibrate_ms, compile_ms;
  const SetupTime setup = timed_setup(
      setup_repeats(cfg),
      [&] {
        double cal = 0.0, comp = 0.0;
        for (int v = 0; v < 2; ++v) {
          built[v] = std::make_unique<BuiltProgram>(
              build_program(ModelKind::kMiniResNet, QuantizeConfig{}, 11 + static_cast<uint64_t>(v)));
          built[v]->prog.save(artifact[v]);
          cal += built[v]->calibrate_ms;
          comp += built[v]->compile_ms;
        }
        rig = std::make_unique<ServingRig>(mix, nullptr, artifact[0]);
        calibrate_ms.push_back(cal);
        compile_ms.push_back(comp);
      },
      [&] { rig.reset(); });

  const std::vector<Tensor> inputs = make_input_pool(kPool, {1, 16, 16, 3}, cfg.seed);
  const std::vector<Tensor> expected[2] = {expected_outputs(built[0]->prog, inputs),
                                           expected_outputs(built[1]->prog, inputs)};
  std::vector<std::string> tokens;
  for (const TenantSpec& t : mix) tokens.push_back(t.name);
  rig->connect(tokens, inputs, [&](uint32_t i, const net::InferResponse& resp) {
    return same_output(resp, expected[0][i]) || same_output(resp, expected[1][i]);
  });

  // One merged open-loop schedule: each tenant's own Poisson stream.
  const auto mix_schedule = [&](double seconds, uint64_t seed_base) {
    std::vector<Arrival> schedule;
    for (size_t t = 0; t < mix.size(); ++t) {
      const uint64_t seed = seed_base + t;
      Rng pick(seed ^ 0x5bd1e995u);
      for (int64_t at : poisson_schedule(mix[t].offered_rps, seconds, seed)) {
        schedule.push_back({at, static_cast<uint32_t>(t),
                            static_cast<uint32_t>(pick.uniform_int(0, kPool - 1))});
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Arrival& a, const Arrival& b) { return a.due_ns < b.due_ns; });
    return schedule;
  };
  // Half a second of warm-up traffic, checked but not timed.
  uint64_t mismatches = 0;
  for (const Outcome& o : rig->gen->run(mix_schedule(0.5, cfg.seed * 7919), 1'000'000'000)) {
    ++r.attempted;
    r.failed += o.mismatch ? 1 : 0;
    mismatches += o.mismatch ? 1 : 0;
  }
  const double run_s = cfg.trace ? 0.8 * cfg.seconds : cfg.seconds;
  const std::vector<Arrival> schedule = mix_schedule(run_s, cfg.seed * 7919 + 10);

  // The swapper: every `period` seconds deploy the other artifact.
  const double period = std::min(2.0, run_s / 2.0);
  std::vector<double> swap_ms;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread swapper([&] {
    std::unique_lock<std::mutex> lk(mu);
    for (int k = 1; !cv.wait_for(lk, std::chrono::duration<double>(period), [&] { return done; });
         ++k) {
      lk.unlock();
      const double t0 = now_s();
      {
        TQT_TRACE("bench.deploy_file", "bench");
        rig->gw->deploy_file(kLane, artifact[k % 2], {16, 16, 3});
      }
      const double ms = (now_s() - t0) * 1e3;
      lk.lock();
      swap_ms.push_back(ms);
    }
  });

  const double origin = now_s();
  TraceCollector collector;  // after `origin`, which its thread reads
  if (cfg.trace) {
    collector.set_chrome_output(cfg.chrome, 1000);
    collector.start(100, [&] { return static_cast<int64_t>((now_s() - origin) / 0.5) % 2 == 0; });
  }
  const std::vector<Outcome> out = rig->gen->run(schedule, 2'000'000'000);
  const int64_t t0_ns = rig->gen->t0_ns();
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  swapper.join();
  collector.stop();

  // Per-tenant tallies. Failures: anything but ok from a well-behaved
  // tenant, anything but ok or a typed quota rejection from the abuser, and
  // every wrong answer.
  struct Tally {
    uint64_t sent = 0, ok = 0, limited = 0, other = 0;
  };
  std::vector<Tally> tally(mix.size());
  uint64_t ok_total = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const Outcome& o = out[i];
    const TenantSpec& spec = mix[schedule[i].conn];
    Tally& t = tally[schedule[i].conn];
    ++t.sent;
    const bool ok = o.answered && o.status == net::WireStatus::kOk && !o.mismatch;
    t.ok += ok ? 1 : 0;
    ok_total += ok ? 1 : 0;
    mismatches += o.mismatch ? 1 : 0;
    const bool limited = o.answered && rejected_by_quota(o.status);
    t.limited += limited ? 1 : 0;
    t.other += !ok && !limited ? 1 : 0;
    ++r.attempted;
    r.failed += !ok && !(limited && !spec.well_behaved) ? 1 : 0;
  }
  if (mismatches > 0) r.error("tenants: responses match neither deployed version");
  const Tally& abuser = tally[2];
  const double abuser_limited =
      abuser.sent ? static_cast<double>(abuser.limited) / static_cast<double>(abuser.sent) : 0.0;
  if (abuser_limited == 0.0) r.error("tenants: the abuser was never rate-limited");

  const auto well_behaved = [&](size_t i) { return mix[schedule[i].conn].well_behaved; };
  const Latency lat = summarize(out, well_behaved, 500);
  std::vector<double> ok_shares, tenant_p99;
  r.detail.key("tenants").arr();
  for (size_t t = 0; t < mix.size(); ++t) {
    r.detail.obj();
    r.detail.kv("name", mix[t].name);
    r.detail.kv("offered_rps", mix[t].offered_rps);
    r.detail.kv("sent", static_cast<long long>(tally[t].sent));
    r.detail.kv("ok", static_cast<long long>(tally[t].ok));
    r.detail.kv("limited", static_cast<long long>(tally[t].limited));
    r.detail.kv("other", static_cast<long long>(tally[t].other));
    const Latency tl = summarize(out, [&](size_t i) { return schedule[i].conn == t; }, 100);
    tenant_p99.push_back(tl.p99_pooled_ms);
    if (mix[t].well_behaved) {
      write_latency(r.detail, tl);
      ok_shares.push_back(tally[t].sent ? static_cast<double>(tally[t].ok) / tally[t].sent : 0.0);
    }
    r.detail.end();
  }
  r.detail.end();
  r.detail.key("well_behaved").obj();
  write_latency(r.detail, lat);
  r.detail.end();
  r.detail.kv("algo_picks", inspect(built[0]->prog, 16).algo_picks);
  r.detail.kv("swaps", static_cast<long long>(swap_ms.size()));
  r.detail.kv("swap_ms_p50", median(swap_ms));
  r.detail.kv("swap_ms_max",
              swap_ms.empty() ? 0.0 : *std::max_element(swap_ms.begin(), swap_ms.end()));

  if (!cfg.trace) {
    emit_setup_time(r, setup);
    r.metric("imgs_per_s", static_cast<double>(ok_total) / run_s, "img/s");
    r.metric("p50_ms", lat.p50_ms, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  const ProgramInfo info = inspect(built[0]->prog, 16);
  emit_setup_layers(r, median(calibrate_ms), median(compile_ms), {info},
                    serving_arena_bytes(built[0]->prog, rig->gw->num_shards()));
  emit_engine_layers(r, collector.summary(), {info});
  ServingLayers s = serving_layers(*rig, out, t0_ns, lat, collector);
  rig.reset();  // resizing the pool needs the batcher threads gone
  emit_thread_scaling(r, {&built[0]->prog}, make_input_pool(1, {32, 16, 16, 3}, 0)[0],
                      0.2 * cfg.seconds);
  double swap_total_ms = 0.0;
  for (double ms : swap_ms) swap_total_ms += ms;
  s.swaps = static_cast<double>(swap_ms.size());
  s.swap_share = swap_total_ms / (run_s * 1e3);
  s.jain_ok_share = jain_index(ok_shares);
  s.abuser_limited_share = abuser_limited;
  if (lat.p99_pooled_ms > 0) {
    s.gold_p99_share = tenant_p99[0] / lat.p99_pooled_ms;
    s.silver_p99_share = tenant_p99[1] / lat.p99_pooled_ms;
    s.bronze_p99_share = tenant_p99[3] / lat.p99_pooled_ms;
  }
  emit_serving_layers(r, s);
  emit_trace_layers(r, untraced_p99_ms(out, well_behaved, t0_ns, collector),
                    trace_overhead(out, well_behaved, t0_ns, collector),
                    collector.summary().dropped);
}

}  // namespace tqt::bench
