// bench_gate: the CI regression gate for every bench report line.
//
// Usage: bench_gate <baseline.json> <current.json> [tolerance]
//
// Each file holds one JSON report (a PERF_LATENCY_JSON, PROXY_CRITPATH_JSON
// or MILLION_FLOW_JSON payload); the rules are in src/trace/gate.h.
// `tolerance` (e.g. 0.25 = +25%) replaces the default bound of latency and
// critical-path reports; million_flow_churn reports refuse it.
// Exits 0 on pass, 1 on a regression, 2 on bad usage or input.
#include <cstdlib>
#include <iostream>
#include <optional>

#include "src/trace/gate.h"

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: bench_gate <baseline.json> <current.json> [tolerance]\n";
    return 2;
  }
  std::optional<double> tolerance;
  if (argc == 4) {
    char* end = nullptr;
    tolerance = std::strtod(argv[3], &end);
    if (end == argv[3] || *tolerance < 0) {
      std::cerr << "bench_gate: bad tolerance '" << argv[3] << "'\n";
      return 2;
    }
  }
  return tas::RunGate(argv[1], argv[2], tolerance, std::cout);
}
