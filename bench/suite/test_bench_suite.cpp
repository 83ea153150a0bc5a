// Unit tests for the benchmark's own machinery: estimators, seeded inputs,
// due-time latency in the open-loop generator, the knee search and the trace
// self-time fold.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "stats.h"
#include "trace_agg.h"

namespace tqt::bench {
namespace {

TEST(Estimators, PercentileIsNearestRankOnExactSamples) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.001), 1.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Estimators, GeomeanAndJain) {
  EXPECT_DOUBLE_EQ(geomean({1.0, 4.0, 16.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({2.5}), 2.5);
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_index({0.9, 0.9, 0.9}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({1.0, 0.0}), 0.5);
}

TEST(Estimators, StallWindowsCountSlowWindowsOnly) {
  std::vector<int64_t> t;
  std::vector<double> lat;
  for (int i = 0; i < 300; ++i) {  // three 100 ms windows, the middle one slow
    t.push_back(i * 1'000'000);
    lat.push_back(i >= 100 && i < 200 ? 50.0 : 1.0);
  }
  EXPECT_EQ(count_stall_windows(t, lat, 100'000'000, 1.0, 10.0), 1);
  EXPECT_EQ(count_stall_windows(t, lat, 100'000'000, 10.0, 10.0), 0);
}

TEST(Inputs, ScheduleAndPoolRepeatPerSeedAndDifferAcrossSeeds) {
  const auto a = poisson_schedule(5000.0, 2.0, 42);
  const auto b = poisson_schedule(5000.0, 2.0, 42);
  const auto c = poisson_schedule(5000.0, 2.0, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(schedule_hash(a), schedule_hash(b));
  EXPECT_NE(schedule_hash(a), schedule_hash(c));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);  // ~4 sigma

  const auto p = make_input_pool(3, {1, 4, 4, 3}, 7);
  const auto q = make_input_pool(3, {1, 4, 4, 3}, 7);
  const auto s = make_input_pool(3, {1, 4, 4, 3}, 8);
  ASSERT_EQ(p.size(), 3u);
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i].vec(), q[i].vec());
    EXPECT_NE(p[i].vec(), s[i].vec());
  }
  EXPECT_NE(p[0].vec(), p[1].vec());
}

/// Answers every request frame on one connection with a fixed tensor,
/// sleeping `stall_ms` before answering request number `stall_at`.
class StubServer {
 public:
  StubServer(int stall_at, int stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, stall_at, stall_ms] { serve(stall_at, stall_ms); });
  }
  ~StubServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  uint16_t port() const { return port_; }

 private:
  void serve(int stall_at, int stall_ms) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::vector<uint8_t> in;
    uint8_t buf[4096];
    int served = 0;
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      in.insert(in.end(), buf, buf + n);
      for (;;) {
        net::FrameHeader h;
        if (net::parse_header(in.data(), in.size(), &h, nullptr) != net::HeaderParse::kOk ||
            in.size() < net::kHeaderBytes + h.payload_len) {
          break;
        }
        in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(net::kHeaderBytes + h.payload_len));
        if (served++ == stall_at) std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        net::InferResponse resp;
        resp.status = net::WireStatus::kOk;
        resp.output = Tensor({1, 2}, 0.5f);
        std::vector<uint8_t> out;
        net::append_response_frame(out, h.request_id, resp);
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(LoadGenerator, LatencyIsTimedFromDueTimeSoAStallInflatesLaterRequests) {
  constexpr int kStallAt = 10, kStallMs = 100;
  std::vector<Outcome> out;
  {
    StubServer server(kStallAt, kStallMs);
    LoadGenerator gen({connect_loopback(server.port())}, {""}, "m",
                      make_input_pool(1, {1, 2, 2, 1}, 1),
                      [](uint32_t, const net::InferResponse&) { return true; });
    std::vector<Arrival> schedule;
    for (int i = 0; i < 40; ++i) schedule.push_back({i * 2'000'000, 0, 0});  // every 2 ms
    out = gen.run(schedule, 2'000'000'000);
  }
  ASSERT_EQ(out.size(), 40u);
  for (const Outcome& o : out) {
    ASSERT_TRUE(o.answered);
    EXPECT_EQ(o.status, net::WireStatus::kOk);
    EXPECT_FALSE(o.mismatch);
    EXPECT_LT(o.late_us(), 20'000.0);  // the generator itself kept to schedule
  }
  for (int i = 0; i < kStallAt; ++i) EXPECT_LT(out[i].latency_ms(), kStallMs / 2.0) << i;
  // Request k was due (k - kStallAt) * 2 ms after the stalled one and could
  // not be answered before the stall ended, so it waited out the rest of it.
  for (int k = kStallAt; k < kStallAt + 20; ++k) {
    EXPECT_GE(out[k].latency_ms(), kStallMs - 2.0 * (k - kStallAt) - 1.0) << k;
  }
}

TEST(KneeSearch, BisectsToWithinToleranceBelowTheTrueKnee) {
  // p99 = 1 ms / (1 - rate / 50k) meets a 5 ms limit up to exactly 40k.
  const auto passes = [](double rate) { return rate < 50000.0 && 1.0 / (1.0 - rate / 50000.0) <= 5.0; };
  KneeConfig cfg;
  cfg.max_steps = 20;
  const KneeResult r = knee_search(cfg, passes);
  EXPECT_LE(r.max_rate, 40000.0);
  EXPECT_GE(r.max_rate, 40000.0 / (1.0 + cfg.tolerance));
  ASSERT_GE(r.probes.size(), 4u);
  EXPECT_EQ(r.probes[0], std::make_pair(20000.0, true));
  EXPECT_EQ(r.probes[1], std::make_pair(30000.0, true));
  EXPECT_EQ(r.probes[2], std::make_pair(45000.0, false));
  EXPECT_EQ(r.probes[3], std::make_pair(37500.0, true));

  KneeConfig few = cfg;
  few.max_steps = 3;
  EXPECT_EQ(knee_search(few, passes).probes.size(), 3u);
  EXPECT_EQ(knee_search(cfg, [](double) { return false; }).max_rate, 0.0);
}

observe::TraceEvent ev(const char* name, uint64_t ts, uint64_t dur, const char* args = "") {
  observe::TraceEvent e;
  e.name = name;
  e.ts_ns = ts;
  e.dur_ns = dur;
  std::snprintf(e.args, sizeof e.args, "%s", args);
  return e;
}

TEST(TraceFold, SelfTimeSubtractsDirectChildrenAndCountsImages) {
  TraceSummary s;
  accumulate({ev("conv2d_fused", 12, 8), ev("engine.run_into", 10, 30),
              ev("bench.run_into", 0, 100, "n=32 m=1"), ev("dense_fused", 50, 10),
              ev("outside", 200, 5)},
             s);
  EXPECT_EQ(s.events, 5u);
  EXPECT_DOUBLE_EQ(s.images, 32.0);
  EXPECT_DOUBLE_EQ(s.images_by_model.at(1), 32.0);
  EXPECT_DOUBLE_EQ(s.spans.at("bench.run_into").self_ns, 100.0 - 30.0 - 10.0);
  EXPECT_DOUBLE_EQ(s.spans.at("engine.run_into").self_ns, 22.0);
  EXPECT_DOUBLE_EQ(s.spans.at("engine.run_into").total_ns, 30.0);
  EXPECT_DOUBLE_EQ(s.spans.at("conv2d_fused").self_ns, 8.0);
  EXPECT_EQ(s.spans.count("outside"), 0u);  // not inside an image context
  EXPECT_EQ(s.all.at("outside").count, 1u);
}

}  // namespace
}  // namespace tqt::bench
