#include "perfbench/probe.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace tas {
namespace perfbench {

// A fixed discrete-event loop shaped like the simulator's hot path: a timed
// event heap, per-flow state in a hash map, type-erased handlers, and one
// small heap allocation per event. It shares no code with src/, so a change
// to the program never moves it; only the host's speed does. Do not edit it:
// every host-time figure is scaled by its run time.
double RunSpeedProbe() {
  constexpr int kFlows = 1000;
  constexpr int kEvents = 200000;
  struct Event {
    uint64_t when;
    uint32_t flow;
    bool operator<(const Event& o) const { return when > o.when; }
  };
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto start = std::chrono::steady_clock::now();
  std::priority_queue<Event> heap;
  std::unordered_map<uint32_t, uint64_t> state;
  state.reserve(1 << 16);
  std::vector<std::function<void(uint64_t&)>> handlers;
  for (int i = 0; i < 8; ++i) {
    handlers.push_back([i](uint64_t& s) { s = s * 31 + static_cast<uint64_t>(i); });
  }
  for (uint32_t f = 0; f < kFlows; ++f) {
    heap.push({next() % 1000, f});
  }
  uint64_t now = 0;
  for (int n = 0; n < kEvents; ++n) {
    const Event e = heap.top();
    heap.pop();
    now = e.when;
    uint64_t& s = state[(e.flow * 2654435761u) & 0xFFFF];
    handlers[e.flow & 7](s);
    auto payload = std::make_unique<std::vector<uint8_t>>(64 + (s & 255));
    (*payload)[0] = static_cast<uint8_t>(s);
    s += (*payload)[0];
    heap.push({now + 1 + next() % 2000, e.flow});
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Keep the loop's result live so it cannot be optimized away.
  const uint64_t result = now + state.size();
  asm volatile("" : : "g"(result) : "memory");
  return seconds;
}

}  // namespace perfbench
}  // namespace tas
