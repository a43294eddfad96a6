// The benchmark's three workloads. Each trial builds one Experiment from the
// seed, warms it up, measures one fixed simulated window, and checks the
// outputs. Simulated ("model") results are a pure function of the workload
// and seed; host-time results are what the trial cost on the host.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/span_trace.h"

namespace tas {
namespace perfbench {

inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"rpc_pipelined", "proxy_churn", "bulk_loss"};
  return kNames;
}

struct TrialOptions {
  uint64_t seed = 1;
  // Traced trial: every host's stack is wrapped in a TracedStack recording
  // into `spans`, and the measured host runs latency stage stamping (and
  // causal tracing on proxy_churn).
  bool traced = false;
  SpanLog* spans = nullptr;
  // Shortens the simulated window (self-test only); 1 = the benchmark's size.
  double length = 1.0;
};

struct TrialResult {
  // --- Host time (seconds) ---------------------------------------------------
  double build_s = 0;   // Experiment build + app Start.
  double warmup_s = 0;  // Warm-up simulation, including handshakes.
  double window_s = 0;  // The measured window.

  // --- Ops ------------------------------------------------------------------
  uint64_t ops = 0;        // Completed in the window (see README.md per workload).
  uint64_t attempted = 0;  // ops + failed.
  uint64_t failed = 0;

  // --- Model (simulated, deterministic for a seed) ---------------------------
  int64_t window_ns = 0;        // Simulated length of the measured window.
  uint64_t payload_bytes = 0;   // App payload received in the window.
  // Per-op latency over the window's samples (ns), the sample count, and
  // the client hosts the samples cover.
  double latency_p50_ns = 0;
  double latency_p99_ns = 0;
  uint64_t latency_samples = 0;
  int latency_hosts = 0;
  uint64_t measured_cycles = 0;    // Measured host, all modules, in the window.

  // Per-layer values derived from counters in the window (model counts and
  // ratios; always collected, printed by traced runs).
  std::map<std::string, double> layer;
  // Events executed in the window and the run's pending-event high water.
  uint64_t events = 0;
  uint64_t max_pending = 0;

  std::vector<std::string> check_failures;
  // Hash of the modeled results: equal across trials of one seed, and equal
  // between traced and untraced trials (tracing is passive).
  std::string fingerprint;
};

// Runs one trial of `workload`. Unknown names abort.
TrialResult RunTrial(const std::string& workload, const TrialOptions& options);

// Host ns per event of the bare simulator core: no-op events that reschedule
// themselves, with `depth` events pending throughout.
double MeasureBareNsPerEvent(size_t depth, uint64_t events);

}  // namespace perfbench
}  // namespace tas

#endif  // PERFBENCH_WORKLOADS_H_
