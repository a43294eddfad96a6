// The one comparator behind every CI regression gate (bench/bench_gate is its
// command line). A report's "report"/"benchmark" field names its rules:
//   - "latency" (PERF_LATENCY_JSON): each stage's mean_ns and p99_ns; a
//     stage missing from the current run is not gated.
//   - "critical_path" (PROXY_CRITPATH_JSON): each (request class, edge)
//     row's mean_ns and p99_ns, "e2e" included. A vanished class is a
//     regression; a vanished edge is not (nothing waits on it any more).
//   - "million_flow_churn" (MILLION_FLOW_JSON): probe_p99 (+50%, a
//     log-bucket bound) and events_per_packet (+30%).
// One rule for every metric: it regressed when current > baseline *
// (1 + tolerance). A baseline value <= 0 is not gated, and rows or classes
// with fewer than kGateMinCount baseline samples are too noisy to gate.
#ifndef SRC_TRACE_GATE_H_
#define SRC_TRACE_GATE_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tas {

inline constexpr double kGateReportTolerance = 0.25;
inline constexpr uint64_t kGateMinCount = 50;

struct GateViolation {
  std::string row;     // Stage, "class/edge", class, or "" for a top-level metric.
  std::string metric;  // "mean_ns", "p99_ns", "probe_p99", ...; "count" for a lost class.
  double baseline = 0;
  double current = 0;
};

struct GateOutcome {
  std::string kind;    // "latency", "critical_path" or "million_flow_churn".
  size_t checked = 0;  // Metric comparisons made.
  std::vector<GateViolation> violations;
};

// Compares the `current` report against the `baseline` report (JSON text)
// under the rules of the baseline's kind; `tolerance` replaces the 0.25
// default of latency and critical-path reports when given. Returns nullopt
// and describes the problem in *error when a document is not valid JSON, not
// a report of a known kind, of another kind than the baseline, missing a
// gated field, or a million_flow_churn report given a tolerance.
std::optional<GateOutcome> CompareReports(std::string_view baseline, std::string_view current,
                                          std::optional<double> tolerance,
                                          std::string* error);

// The bench_gate command: reads one JSON report from each file, compares
// them and prints the verdict to `out`. Returns 0 on pass, 1 on a
// regression, 2 when a file is unreadable or not a gateable report.
int RunGate(const std::string& baseline_path, const std::string& current_path,
            std::optional<double> tolerance, std::ostream& out);

}  // namespace tas

#endif  // SRC_TRACE_GATE_H_
