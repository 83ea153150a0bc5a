#include "trace_agg.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace tqt::bench {
namespace {

/// Integer value of "<key>=<v>" in a span's tag string, or `fallback`.
long long tag_value(const char* args, const char* key, long long fallback) {
  const size_t klen = std::strlen(key);
  for (const char* p = args; *p != '\0'; ++p) {
    if ((p == args || p[-1] == ' ') && std::strncmp(p, key, klen) == 0 && p[klen] == '=') {
      return std::strtoll(p + klen + 1, nullptr, 10);
    }
  }
  return fallback;
}

bool is_image_context(const observe::TraceEvent& e) {
  return std::strcmp(e.name, "bench.run_into") == 0 || std::strcmp(e.name, "serve.batch") == 0;
}

}  // namespace

void accumulate(const std::vector<observe::TraceEvent>& events, TraceSummary& sum) {
  std::vector<const observe::TraceEvent*> order;
  order.reserve(events.size());
  for (const observe::TraceEvent& e : events) {
    if (e.name != nullptr) order.push_back(&e);
  }
  // Parents start no later than their children and last at least as long,
  // so (start asc, duration desc) visits every parent before its children.
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
  });
  struct Open {
    const observe::TraceEvent* ev;
    double child_ns;
    bool in_context;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    const double self = static_cast<double>(o.ev->dur_ns) - o.child_ns;
    for (auto* m : {&sum.all, o.in_context ? &sum.spans : nullptr}) {
      if (m == nullptr) continue;
      SpanTotals& t = (*m)[o.ev->name];
      ++t.count;
      t.total_ns += static_cast<double>(o.ev->dur_ns);
      t.self_ns += self;
    }
  };
  for (const observe::TraceEvent* e : order) {
    while (!stack.empty() && stack.back().ev->ts_ns + stack.back().ev->dur_ns <= e->ts_ns) {
      close(stack.back());
      stack.pop_back();
    }
    bool in_context = !stack.empty() && stack.back().in_context;
    if (is_image_context(*e)) {
      in_context = true;
      const double n = static_cast<double>(tag_value(e->args, "n", 0));
      sum.images += n;
      sum.images_by_model[static_cast<int>(tag_value(e->args, "m", -1))] += n;
    }
    if (!stack.empty()) stack.back().child_ns += static_cast<double>(e->dur_ns);
    stack.push_back({e, 0.0, in_context});
    ++sum.events;
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
}

void TraceCollector::set_chrome_output(std::string path, int64_t after_ms) {
  chrome_path_ = std::move(path);
  chrome_after_ns_ = static_cast<uint64_t>(after_ms) * 1'000'000u;
}

void TraceCollector::drain() {
  observe::Tracer& tracer = observe::Tracer::global();
  const uint64_t now = observe::Tracer::now_ns();
  if (first_drain_ns_ == 0) first_drain_ns_ = now;
  if (!chrome_path_.empty() && now - first_drain_ns_ >= chrome_after_ns_) {
    tracer.write_chrome_json(chrome_path_);
    chrome_path_.clear();
  }
  for (const observe::ThreadTrace& t : tracer.threads()) {
    sum_.dropped += t.dropped;
    accumulate(t.events, sum_);
  }
  tracer.clear();
}

void TraceCollector::start(int period_ms, std::function<bool()> want_on) {
  running_ = true;
  thread_ = std::thread([this, period_ms, want_on = std::move(want_on)] {
    observe::Tracer& tracer = observe::Tracer::global();
    const auto now = [] { return static_cast<int64_t>(observe::Tracer::now_ns()); };
    // Spans started before tracing goes off still finish and record; a
    // quiet period longer than any batch lets them land before the drain.
    constexpr auto kQuiet = std::chrono::milliseconds(5);
    bool on = want_on();
    tracer.set_enabled(on);
    if (on) on_.push_back({now(), 0});
    while (running_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
      if (on) {
        tracer.set_enabled(false);
        on_.back().second = now();
        std::this_thread::sleep_for(kQuiet);
      }
      drain();
      on = running_.load() && want_on();
      if (on) on_.push_back({now(), 0});
      tracer.set_enabled(on);
    }
    if (on) on_.back().second = now();
  });
}

void TraceCollector::stop() {
  if (!thread_.joinable()) return;
  running_ = false;
  thread_.join();
  observe::Tracer::global().set_enabled(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  drain();
}

}  // namespace tqt::bench
