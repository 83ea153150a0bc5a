#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "observe/observe.h"

namespace tqt::bench {
namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void put_u32le(uint8_t* p, uint32_t v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<uint8_t>(v >> (8 * b));
}

}  // namespace

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<int> connect_round_robin(uint16_t port, int n,
                                     const std::function<std::vector<int64_t>()>& shard_conns) {
  // Wait until the gateway has registered as many connections as we hold,
  // so the per-shard gauges say where the newest one landed.
  auto settle = [&](int64_t expect) {
    for (int i = 0; i < 2000; ++i) {
      std::vector<int64_t> c = shard_conns();
      int64_t total = 0;
      for (int64_t v : c) total += v;
      if (total == expect) return c;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("loadgen: gateway did not register connections");
  };
  std::vector<int> fds;
  std::vector<size_t> shard_of;
  std::vector<int64_t> before = settle(0);
  const size_t shards = before.size();
  for (int attempt = 0; static_cast<int>(fds.size()) < n; ++attempt) {
    if (attempt > 64 * n) {
      for (int fd : fds) ::close(fd);
      throw std::runtime_error("loadgen: could not place connections on the shards");
    }
    const int fd = connect_loopback(port);
    const std::vector<int64_t> after = settle(static_cast<int64_t>(fds.size()) + 1);
    size_t landed = 0;
    while (landed < shards && after[landed] == before[landed]) ++landed;
    const size_t i = fds.size();
    const bool ok = i < shards ? std::find(shard_of.begin(), shard_of.end(), landed) ==
                                     shard_of.end()
                               : landed == shard_of[i - shards];
    if (ok) {
      fds.push_back(fd);
      shard_of.push_back(landed);
      before = after;
      continue;
    }
    ::close(fd);
    before = settle(static_cast<int64_t>(fds.size()));
  }
  return fds;
}

LoadGenerator::LoadGenerator(std::vector<int> fds, const std::vector<std::string>& tokens,
                             const std::string& model, const std::vector<Tensor>& inputs,
                             Verifier accept)
    : accept_(std::move(accept)) {
  if (fds.size() != tokens.size()) throw std::invalid_argument("loadgen: one token per conn");
  std::map<std::string, size_t> tmpl_of;
  for (size_t i = 0; i < fds.size(); ++i) {
    auto [it, fresh] = tmpl_of.emplace(tokens[i], templates_.size());
    if (fresh) {
      std::vector<std::vector<uint8_t>> frames(inputs.size());
      for (size_t k = 0; k < inputs.size(); ++k) {
        net::InferRequest req;
        req.model = model;
        req.token = tokens[i];
        req.input = inputs[k];
        net::append_request_frame(frames[k], 0, req);
      }
      templates_.push_back(std::move(frames));
    }
    Conn c;
    c.fd = fds[i];
    c.tmpl = it->second;
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

LoadGenerator::~LoadGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void LoadGenerator::flush(Conn& c) {
  while (c.fd >= 0 && c.out_off < c.out.size()) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  if (c.out_off == c.out.size() || c.out_off > (1u << 20)) {  // drop what was sent
    c.out.erase(c.out.begin(), c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }
}

void LoadGenerator::read_ready(Conn& c, int64_t t_ns, const std::vector<Arrival>& schedule,
                               std::vector<Outcome>& outcomes, size_t issued) {
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    ::close(c.fd);  // EOF or error: what is outstanding on it stays unanswered
    c.fd = -1;
    break;
  }
  size_t off = 0;
  for (;;) {
    net::FrameHeader h;
    if (net::parse_header(c.in.data() + off, c.in.size() - off, &h, nullptr) !=
        net::HeaderParse::kOk) {
      break;
    }
    if (c.in.size() - off < net::kHeaderBytes + h.payload_len) break;
    const uint8_t* payload = c.in.data() + off + net::kHeaderBytes;
    off += net::kHeaderBytes + h.payload_len;
    const uint32_t k = h.request_id - id_base_;  // wraps for earlier runs' ids
    if (h.type != net::FrameType::kResponse || k >= issued) continue;
    Outcome& o = outcomes[k];
    if (o.answered) continue;
    o.answered = true;
    ++answered_;
    o.done_ns = t_ns;
    o.status = h.status;
    if (h.status == net::WireStatus::kOk) {
      net::InferResponse resp;
      o.mismatch = !net::parse_response_payload(payload, h.payload_len, h.status, &resp,
                                                nullptr) ||
                   !accept_(schedule[k].input, resp);
    }
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
}

std::vector<Outcome> LoadGenerator::run(const std::vector<Arrival>& schedule, int64_t drain_ns) {
  // Sub-millisecond sleeps: without this the kernel may add its default
  // 50us slack to every poll timeout and the generator runs late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  answered_ = 0;
  sent_ = 0;
  std::vector<Outcome> outcomes(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) outcomes[i].due_ns = schedule[i].due_ns;

  const int64_t t0 = now_ns() + 1'000'000;
  t0_ns_ = t0;
  const int64_t last_due = schedule.empty() ? 0 : schedule.back().due_ns;
  size_t next = 0;
  std::vector<pollfd> pfds(conns_.size());
  for (;;) {
    int64_t t = now_ns() - t0;
    for (; next < schedule.size() && schedule[next].due_ns <= t; ++next) {
      const Arrival& a = schedule[next];
      Conn& c = conns_[a.conn];
      outcomes[next].sent_ns = t;
      // A connection whose server stopped reading holds at most this much
      // unsent data; later requests on it go unsent and count as failed, so
      // an overload probe cannot grow the generator without bound.
      constexpr size_t kMaxPendingBytes = 1u << 20;
      if (c.fd < 0 || c.out.size() - c.out_off > kMaxPendingBytes) continue;
      ++sent_;
      const std::vector<uint8_t>& frame = templates_[c.tmpl][a.input];
      const size_t at = c.out.size();
      c.out.insert(c.out.end(), frame.begin(), frame.end());
      put_u32le(c.out.data() + at + 8, id_base_ + static_cast<uint32_t>(next));
    }
    {
      TQT_TRACE("bench.send", "bench");
      for (Conn& c : conns_) flush(c);
    }

    if (next == schedule.size() && (answered_ == sent_ || t > last_due + drain_ns)) {
      break;
    }

    int64_t wait_ns = next < schedule.size() ? schedule[next].due_ns - t : 1'000'000;
    wait_ns = std::clamp<int64_t>(wait_ns, 0, 1'000'000);
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    t = now_ns() - t0;
    TQT_TRACE("bench.recv", "bench");
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd >= 0 && (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
        read_ready(conns_[i], t, schedule, outcomes, next);
      }
    }
  }
  id_base_ += static_cast<uint32_t>(schedule.size());
  return outcomes;
}

}  // namespace tqt::bench
