// tas_perfbench: the repository benchmark (see README.md).
//
//   tas_perfbench --workload <rpc_pipelined|proxy_churn|bulk_loss> --seed <n>
//                 --seconds <s> --trace <0|1> [--length <f>] [--spans-out <path>]
//
// One workload per process, in the default program (serial executor, no env
// knobs). The run repeats whole trials of the workload (build, warm-up,
// measured window) for --seconds of host time and reports medians over the
// trials; host times are scaled by the speed probe (probe.h). --trace 0
// prints the end-to-end metrics; --trace 1 alternates untraced and traced
// trials and prints the per-layer metrics. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output check fails, 2 on a usage error or a set env knob.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/span_trace.h"
#include "perfbench/workloads.h"
#include "src/trace/causal.h"

namespace tas {
namespace perfbench {
namespace {

// Env knobs that change what program runs; the benchmark measures the
// default program only.
constexpr const char* kProgramKnobs[] = {"TAS_SIM_THREADS", "TAS_NO_POOL", "TAS_TRACE_OUT",
                                         "TAS_WATCHDOG",    "TAS_SCALE",   "TAS_LOG_LEVEL"};

// A run keeps starting trials until --seconds have passed, but always runs at
// least this many (untraced, and traced in a traced run).
constexpr size_t kMinTrials = 3;
constexpr size_t kMinTracedTrials = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double length = 1.0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->seconds <= 0) {
        std::cerr << "bad --seconds " << value << "\n";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::cerr << "--trace takes 0 or 1\n";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--length") {
      args->length = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->length <= 0 || args->length > 1) {
        std::cerr << "--length takes a number in (0, 1]\n";
        return false;
      }
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  const auto& names = WorkloadNames();
  if (!have_workload || std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::cerr << "--workload must be one of:";
    for (const std::string& n : names) {
      std::cerr << " " << n;
    }
    std::cerr << "\n";
    return false;
  }
  if (!have_seed) {
    std::cerr << "--seed takes a non-negative integer\n";
    return false;
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Machine and build descriptor printed with every result.
std::string MachineJson() {
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu_model\":\"" << CpuModel()
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
#ifdef NDEBUG
     << ",\"ndebug\":true"
#else
     << ",\"ndebug\":false"
#endif
#ifdef __OPTIMIZE__
     << ",\"optimize\":true"
#else
     << ",\"optimize\":false"
#endif
#if defined(__SANITIZE_ADDRESS__)
     << ",\"sanitizer\":\"address\""
#elif defined(__SANITIZE_THREAD__)
     << ",\"sanitizer\":\"thread\""
#else
     << ",\"sanitizer\":\"none\""
#endif
     << ",\"executor\":\"serial\"}";
  return os.str();
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Units of the per-layer metrics (BENCHMARK.json "per_layer" lists the same
// names and units; selftest.py checks they agree).
const std::map<std::string, std::string>& LayerUnits() {
  static const std::map<std::string, std::string> kUnits = [] {
    std::map<std::string, std::string> u = {
        {"harness.build_s", "s"},
        {"harness.warmup_s", "s"},
        {"harness.probe_ms", "ms"},
        {"sim.events_per_op", "events/op"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.bare_ns_per_event", "ns"},
        {"sim.max_pending", "events"},
        {"sim.cancelled_per_op", "events/op"},
        {"net.pkts_per_op", "pkts/op"},
        {"net.pool_reuse_ratio", "ratio"},
        {"net.link_drops_overflow", "pkts"},
        {"net.ecn_marked_frac", "ratio"},
        {"net.link_queue_mean_pkts", "pkts"},
        {"nic.rx_drops", "pkts"},
        {"shm.doorbells_coalesced_per_op", "count/op"},
        {"lat.ctx_queue.p99_us", "sim_us"},
        {"lat.fp_rx.p99_us", "sim_us"},
        {"lat.fp_tx.p99_us", "sim_us"},
        {"fast_path.batch_mean", "items/batch"},
        {"fast_path.util", "ratio"},
        {"fast_path.ooo_accepted_per_mib", "pkts/MiB"},
        {"fast_path.fast_retx_per_mib", "pkts/MiB"},
        {"slow_path.util", "ratio"},
        {"slow_path.conns_per_op", "conns/op"},
        {"slow_path.pkts_per_op", "pkts/op"},
        {"slow_path.control_iters_per_sim_ms", "iters/sim_ms"},
        {"slow_path.timeout_retx", "pkts"},
        {"flow_table.lookups_per_op", "lookups/op"},
        {"flow_table.probe_p99", "groups"},
        {"flow_table.tombstones", "slots"},
        {"libtas.calls_per_op", "calls/op"},
        {"libtas.self_ns_per_call", "ns"},
        {"baseline.calls_per_op", "calls/op"},
        {"baseline.self_ns_per_call", "ns"},
        {"app.self_ns_per_op", "ns"},
        {"proxy.hit_ratio", "ratio"},
        {"proxy.splice_frac", "ratio"},
        {"proxy.coalesced_frac", "ratio"},
        {"proxy.pool_queued_hw", "requests"},
        {"cpu.driver_kc_per_op", "kcycles"},
        {"cpu.ip_kc_per_op", "kcycles"},
        {"cpu.tcp_kc_per_op", "kcycles"},
        {"cpu.sockets_kc_per_op", "kcycles"},
        {"cpu.app_kc_per_op", "kcycles"},
        {"fault.drop_frac", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.span_ns", "ns"},
    };
    for (int e = 0; e < kNumCausalEdges; ++e) {
      u[std::string("cp.") + CausalEdgeName(static_cast<CausalEdge>(e)) + ".share"] = "ratio";
    }
    return u;
  }();
  return kUnits;
}

std::string LayerUnit(const std::string& name) {
  const auto it = LayerUnits().find(name);
  if (it == LayerUnits().end()) {
    std::cerr << "perfbench: per-layer metric " << name << " has no unit\n";
    std::abort();
  }
  return it->second;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double HostUsPerOp(const TrialResult& t) {
  return t.ops == 0 ? 0 : t.window_s * 1e6 / static_cast<double>(t.ops);
}

int Run(const Args& args) {
  std::cout << "perfbench: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << "\n";
  std::cout << "machine " << MachineJson() << "\n";

  SpanLog spans;
  std::vector<TrialResult> untraced, traced;
  std::vector<double> probes;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  // Untraced run: untraced trials only. Traced run: alternate, so the
  // traced/untraced overhead compares trials taken under the same conditions.
  while (elapsed() < args.seconds || untraced.size() < kMinTrials ||
         (args.trace && traced.size() < kMinTracedTrials)) {
    const bool trace_this = args.trace && traced.size() < untraced.size();
    probes.push_back(RunSpeedProbe());
    TrialOptions options;
    options.seed = args.seed;
    options.length = args.length;
    options.traced = trace_this;
    options.spans = &spans;
    TrialResult t = RunTrial(args.workload, options);
    std::cout << (trace_this ? "traced  " : "trial   ") << std::setw(2)
              << untraced.size() + traced.size() << ": ops=" << t.ops
              << " setup_s=" << t.build_s + t.warmup_s << " window_s=" << t.window_s
              << " host_us_per_op=" << HostUsPerOp(t) << " fingerprint=" << t.fingerprint
              << "\n";
    (trace_this ? traced : untraced).push_back(std::move(t));
    malloc_trim(0);  // Return the trial's freed heap so peak RSS is one trial's.
  }

  // Output checks: every trial's own checks, plus one fingerprint for all of
  // them (same seed => same model results; tracing is passive).
  std::vector<std::string> failures;
  uint64_t attempted = 0, failed = 0;
  const std::string& fingerprint = untraced.front().fingerprint;
  for (const auto* set : {&untraced, &traced}) {
    for (const TrialResult& t : *set) {
      attempted += t.attempted;
      failed += t.failed;
      failures.insert(failures.end(), t.check_failures.begin(), t.check_failures.end());
      if (t.fingerprint != fingerprint) {
        failures.push_back("fingerprint " + t.fingerprint + " differs from " + fingerprint +
                           (set == &traced ? " (traced trial: tracing is not passive)"
                                           : " (same-seed trials differ)"));
      }
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());

  const TrialResult& t0 = untraced.front();
  const double ops = static_cast<double>(t0.ops);
  // Host times are scaled to a host on which the probe takes
  // kProbeReferenceSeconds (probe.h).
  const double probe_s = Median(probes);
  const double scale = kProbeReferenceSeconds / probe_s;
  std::cout << "fingerprint " << fingerprint << "\n";
  std::cout << "fail_frac " << (attempted == 0 ? 0 : static_cast<double>(failed) / attempted)
            << " (" << failed << " failed of " << attempted << " attempted over "
            << untraced.size() + traced.size() << " trials)\n";
  std::cout << "latency samples " << t0.latency_samples << " per trial, covering "
            << t0.latency_hosts << " client host(s)\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup, window_s;
    for (const TrialResult& t : untraced) {
      setup.push_back(t.build_s + t.warmup_s);
      window_s.push_back(t.window_s);
    }
    const double sim_s = static_cast<double>(t0.window_ns) / 1e9;
    const double raw_us_per_op = ops == 0 ? 0 : Median(window_s) * 1e6 / ops;
    std::cout << "host raw: setup_s=" << Median(setup) << " host_us_per_op=" << raw_us_per_op
              << " probe_ms=" << probe_s * 1e3 << " scale=" << scale << "\n";
    metrics = {
        {"setup_s", Median(setup) * scale, "s"},
        {"host_us_per_op", raw_us_per_op * scale, "us"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"model_kops", sim_s == 0 ? 0 : ops / sim_s / 1e3, "kops/sim_s"},
        {"model_goodput_gbps",
         t0.window_ns == 0 ? 0 : static_cast<double>(t0.payload_bytes) * 8 / t0.window_ns,
         "Gbit/sim_s"},
        {"model_p50_us", t0.latency_p50_ns / 1e3, "sim_us"},
        {"model_p99_us", t0.latency_p99_ns / 1e3, "sim_us"},
        {"model_kc_per_op", ops == 0 ? 0 : static_cast<double>(t0.measured_cycles) / ops / 1e3,
         "kcycles"},
    };
  } else {
    std::vector<double> build, warmup, window_untraced, window_traced;
    for (const TrialResult& t : untraced) {
      build.push_back(t.build_s);
      warmup.push_back(t.warmup_s);
      window_untraced.push_back(t.window_s);
    }
    for (const TrialResult& t : traced) {
      window_traced.push_back(t.window_s);
    }
    const double window_s = Median(window_untraced);
    std::vector<double> bare;
    for (int i = 0; i < 3; ++i) {
      bare.push_back(MeasureBareNsPerEvent(t0.max_pending, 1000000));
    }
    std::map<std::string, double> values = {
        {"harness.build_s", Median(build) * scale},
        {"harness.warmup_s", Median(warmup) * scale},
        {"harness.probe_ms", probe_s * 1e3},
        {"sim.host_ns_per_event",
         t0.events == 0 ? 0 : window_s * 1e9 / static_cast<double>(t0.events) * scale},
        {"sim.bare_ns_per_event", Median(bare) * scale},
        {"trace.overhead", Median(window_traced) / window_s},
        {"trace.span_ns", MeasureEmptySpanNs(1000000) * scale},
    };
    // Layer values: the median over traced trials (model counts repeat
    // exactly; span self times vary with the host and are scaled).
    std::map<std::string, std::vector<double>> layer;
    for (const TrialResult& t : traced) {
      for (const auto& [name, value] : t.layer) {
        layer[name].push_back(value);
      }
    }
    for (const auto& [name, samples] : layer) {
      const bool host_time = name == "libtas.self_ns_per_call" ||
                             name == "baseline.self_ns_per_call" || name == "app.self_ns_per_op";
      values[name] = Median(samples) * (host_time ? scale : 1.0);
    }
    for (const auto& [name, value] : values) {
      metrics.push_back({name, value, LayerUnit(name)});
    }
    for (const auto& [name, unit] : LayerUnits()) {
      if (values.count(name) == 0) {
        failures.push_back("per-layer metric " + name + " was not measured");
      }
    }
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      spans.WriteJsonl(out);
      std::cout << "spans " << spans.kept().size() << " written to " << args.spans_out << "\n";
    }
  }

  for (const std::string& f : failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  std::ostringstream json;
  json << std::setprecision(std::numeric_limits<double>::max_digits10);
  json << "{\"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
         << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace tas

int main(int argc, char** argv) {
  for (const char* knob : tas::perfbench::kProgramKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << knob
                << " set; the benchmark measures the default program only\n";
      return 2;
    }
  }
  tas::perfbench::Args args;
  if (!tas::perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  return tas::perfbench::Run(args);
}
