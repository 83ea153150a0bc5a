// Open-loop load generator: one thread drives every connection through
// non-blocking sockets and poll, so a slow server cannot slow the offered
// load. Each request is sent when it is due by the schedule, whatever is
// still outstanding, and its latency is timed from that due time: a stall
// inflates every request queued behind it, not just the one it hit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/wire.h"
#include "tensor/tensor.h"

namespace tqt::bench {

/// One scheduled request: due at `due_ns` after the phase start, sent on
/// connection `conn`, carrying input pool entry `input`.
struct Arrival {
  int64_t due_ns = 0;
  uint32_t conn = 0;
  uint32_t input = 0;
};

/// How one request ended. `done_ns` and `sent_ns` are relative to the phase
/// start; unanswered requests keep `answered == false`.
struct Outcome {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  net::WireStatus status = net::WireStatus::kInternal;
  bool answered = false;
  bool mismatch = false;  ///< kOk whose output differs from every expected one

  double latency_ms() const { return static_cast<double>(done_ns - due_ns) * 1e-6; }
  double late_us() const { return static_cast<double>(sent_ns - due_ns) * 1e-3; }
};

/// Blocking connect to 127.0.0.1:port; throws std::runtime_error on failure.
int connect_loopback(uint16_t port);

/// Open `n` connections to a sharded gateway, placed round-robin over its
/// reactors: connection i lands on the same shard as connection i - S (S =
/// shard count) and the first S land on distinct shards, so which
/// connections share a reactor is the same on every run. `shard_conns()`
/// returns each shard's live connection count (the gateway's per-shard
/// connection gauges); a connection that lands elsewhere is closed and
/// retried. Throws if the placement is not reached.
std::vector<int> connect_round_robin(uint16_t port, int n,
                                     const std::function<std::vector<int64_t>()>& shard_conns);

class LoadGenerator {
 public:
  /// `accept(input, response)` decides whether a kOk response is correct
  /// for input pool entry `input`.
  using Verifier = std::function<bool(uint32_t input, const net::InferResponse& resp)>;

  /// Takes ownership of the connected sockets `fds`. Connection i sends
  /// frames for `model` carrying `tokens[i]` (empty = untenanted v1
  /// frames). Request frames for every (token, input) are encoded here, once.
  LoadGenerator(std::vector<int> fds, const std::vector<std::string>& tokens,
                const std::string& model, const std::vector<Tensor>& inputs, Verifier accept);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Send `schedule` (sorted by due_ns) open loop, then wait at most
  /// `drain_ns` past the last due time for outstanding responses. Returns
  /// one Outcome per arrival, in schedule order.
  std::vector<Outcome> run(const std::vector<Arrival>& schedule, int64_t drain_ns);

  /// Steady-clock nanoseconds of the last run()'s phase start (the origin
  /// of its Outcome times).
  int64_t t0_ns() const { return t0_ns_; }

 private:
  struct Conn {
    int fd = -1;
    size_t tmpl = 0;                 ///< index into templates_
    std::vector<uint8_t> out, in;    ///< pending writes / unparsed reads
    size_t out_off = 0;
  };
  void flush(Conn& c);
  void read_ready(Conn& c, int64_t t_ns, const std::vector<Arrival>& schedule,
                  std::vector<Outcome>& outcomes, size_t issued);

  std::vector<Conn> conns_;
  /// templates_[t][input]: a complete request frame with request id 0.
  std::vector<std::vector<std::vector<uint8_t>>> templates_;
  Verifier accept_;
  int64_t t0_ns_ = 0;
  /// Request ids keep counting across run()s, so a straggling answer from
  /// an earlier run can never be taken for one of the current run's.
  uint32_t id_base_ = 0;
  size_t sent_ = 0;      ///< requests written in the current run()
  size_t answered_ = 0;  ///< of those, answered
};

}  // namespace tqt::bench
