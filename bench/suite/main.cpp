// tqt_bench: the repo benchmark. One process runs one workload:
//
//   tqt_bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//             [--record FILE] [--chrome FILE] [--rev REVISION]
//
// Workloads: offline_w8a8, offline_w4a8_pc, gateway_sweep, tenants_hotswap
// (see README.md). The untraced run reports the end-to-end metrics, the
// traced run the per-layer ones. Every metric is printed as
// "<workload> <metric> <value> <unit>", then the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --record also writes
// that result with the run's configuration, machine and per-workload detail;
// --chrome writes a bounded chrome://tracing file from a traced run.
// Exits 1 when an output check failed, 2 on a usage error.
#include <cpuid.h>
#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fixedpoint/kernels/kernels.h"
#include "suite.h"

namespace {

using namespace tqt;
using namespace tqt::bench;

const char* const kWorkloads[] = {"offline_w8a8", "offline_w4a8_pc", "gateway_sweep",
                                  "tenants_hotswap"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "tqt_bench: %s\nusage: tqt_bench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--record FILE] [--chrome FILE] [--rev REVISION]\n"
               "workloads:",
               why.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// CPU brand string and the ISA extensions the kernels care about, read with
/// cpuid (no files).
void write_machine(observe::JsonWriter& w) {
  unsigned regs[12] = {};
  std::string brand;
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) && regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    brand.assign(reinterpret_cast<const char*>(regs), sizeof regs);
    brand = brand.c_str();
  }
  unsigned a = 0, b = 0, c = 0, d = 0, a1 = 0, b1 = 0, c1 = 0, d1 = 0;
  __get_cpuid_count(7, 0, &a, &b, &c, &d);
  __get_cpuid_count(7, 1, &a1, &b1, &c1, &d1);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;

  w.key("machine").obj();
  w.kv("nproc", nproc);
  w.kv("cpu", brand);
  w.key("flags").arr();
  const std::pair<const char*, bool> flags[] = {
      {"avx2", (b >> 5) & 1},       {"avx512f", (b >> 16) & 1}, {"avx512_vnni", (c >> 11) & 1},
      {"avx_vnni", (a1 >> 4) & 1},  {"amx_int8", (d >> 25) & 1}};
  for (const auto& [name, on] : flags) {
    if (on) w.value(name);
  }
  w.end();
  w.kv("kernels", fpk::active_kernels().name);
  w.end();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string record, rev = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = next();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(next());
        have_seed = true;
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(next());
      } else if (a == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--smoke") {
        cfg.smoke = true;
      } else if (a == "--record") {
        record = next();
      } else if (a == "--chrome") {
        cfg.chrome = next();
      } else if (a == "--rev") {
        rev = next();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  cfg.scratch = (record.empty() ? std::string("tqt_bench") : record) + ".work";

  Report r;
  r.detail.obj();
  try {
    if (cfg.workload == "offline_w8a8") {
      run_offline(cfg, false, r);
    } else if (cfg.workload == "offline_w4a8_pc") {
      run_offline(cfg, true, r);
    } else if (cfg.workload == "gateway_sweep") {
      run_gateway(cfg, r);
    } else if (cfg.workload == "tenants_hotswap") {
      run_tenants(cfg, r);
    } else {
      usage("unknown workload '" + cfg.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tqt_bench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  r.detail.end();
  for (const std::string& e : r.errors) std::fprintf(stderr, "tqt_bench: CHECK FAILED: %s\n", e.c_str());
  const bool correct = r.errors.empty();

  observe::JsonWriter result;
  result.obj();
  result.kv("correct", correct);
  result.kv("attempted", static_cast<unsigned long long>(r.attempted));
  result.kv("failed", static_cast<unsigned long long>(r.failed));
  result.key("metrics").obj();
  for (const Report::Metric& m : r.metrics) {
    std::printf("%s %s %.17g %s\n", cfg.workload.c_str(), m.name.c_str(), m.value, m.unit.c_str());
    result.key(m.name).obj().kv("value", m.value).kv("unit", m.unit).end();
  }
  result.end();
  result.end();

  if (!record.empty()) {
    observe::JsonWriter w;
    w.obj();
    w.kv("workload", cfg.workload);
    w.kv("seed", static_cast<unsigned long long>(cfg.seed));
    w.kv("seconds", cfg.seconds);
    w.kv("trace", cfg.trace);
    w.kv("smoke", cfg.smoke);
    w.kv("rev", rev);
    write_machine(w);
    w.key("result").raw(result.str());
    w.key("detail").raw(r.detail.str());
    w.end();
    std::ofstream f(record, std::ios::trunc);
    f << w.str() << "\n";
    if (!f) std::fprintf(stderr, "tqt_bench: could not write %s\n", record.c_str());
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
