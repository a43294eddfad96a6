#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "bench/bench_common.h"
#include "src/app/bulk.h"
#include "src/proxy/origin_server.h"
#include "src/proxy/proxy_client.h"
#include "src/proxy/proxy_server.h"
#include "src/util/rng.h"

namespace tas {
namespace perfbench {
namespace {

using bench::ClientLink;
using bench::IdealClientSpec;
using bench::ServerLink;
using bench::ServerSpec;

constexpr double kMiB = 1024.0 * 1024.0;

double Seconds(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Counters read at both ends of the measured window. Reading them costs host
// time outside the window only.
struct Counters {
  uint64_t events = 0;
  uint64_t cancelled = 0;
  PacketPoolStats pool;
  uint64_t link_tx_packets = 0;
  uint64_t link_drops_overflow = 0;
  uint64_t link_drops_induced = 0;
  uint64_t link_ecn_marks = 0;
  double link_queue_sum = 0;  // Occupancy summed over enqueue samples.
  uint64_t link_queue_samples = 0;
  uint64_t nic_rx_drops = 0;
  uint64_t cycles[kNumCpuModules] = {};  // Measured host.
  TimeNs fp_busy_ns = 0;                 // Measured host, all fast-path cores.
  TimeNs sp_busy_ns = 0;                 // Measured host, slow-path core.
  // TAS MetricRegistry values summed over every TAS host (gauges: max).
  std::map<std::string, double> tas;
};

Counters ReadCounters(Experiment& exp, size_t measured) {
  Counters c;
  c.events = exp.events_executed();
  c.cancelled = exp.sim().cancelled_events();
  c.pool = exp.pool_stats();
  std::set<Link*> links;
  for (size_t i = 0; i < exp.num_hosts(); ++i) {
    links.insert(exp.host_link(i));
  }
  for (Link* link : links) {
    for (int side = 0; side < 2; ++side) {
      const LinkStats& s = link->stats(side);
      c.link_tx_packets += s.tx_packets;
      c.link_drops_overflow += s.drops_overflow;
      c.link_drops_induced += s.drops_induced;
      c.link_ecn_marks += s.ecn_marks;
      c.link_queue_sum += s.queue_pkts.sum();
      c.link_queue_samples += s.queue_pkts.count();
    }
  }
  for (size_t i = 0; i < exp.num_hosts(); ++i) {
    SimHost& host = exp.host(i);
    SimNic* nic = host.tas() != nullptr ? host.tas()->nic() : host.engine()->nic();
    c.nic_rx_drops += nic->rx_drops();
    if (TasService* tas = host.tas()) {
      for (const MetricSample& m : tas->tracer().metrics().Snapshot()) {
        double& v = c.tas[m.name];
        v = m.kind == MetricKind::kCounter ? v + m.value : std::max(v, m.value);
      }
    }
  }
  SimHost& host = exp.host(measured);
  for (int m = 0; m < kNumCpuModules; ++m) {
    c.cycles[m] = host.TotalCycles(static_cast<CpuModule>(m));
  }
  if (TasService* tas = host.tas()) {
    for (int i = 0; i < tas->max_cores(); ++i) {
      c.fp_busy_ns += tas->fastpath_cpu(i)->busy_ns();
    }
    c.sp_busy_ns = tas->slowpath_cpu()->busy_ns();
  }
  return c;
}

double TasDelta(const Counters& a, const Counters& b, const std::string& name) {
  const auto ia = a.tas.find(name);
  const auto ib = b.tas.find(name);
  const double va = ia == a.tas.end() ? 0 : ia->second;
  const double vb = ib == b.tas.end() ? 0 : ib->second;
  return vb - va;
}

double TasValue(const Counters& c, const std::string& name) {
  const auto it = c.tas.find(name);
  return it == c.tas.end() ? 0 : it->second;
}

// Everything a workload hands the shared trial code.
struct Rig {
  std::unique_ptr<Experiment> exp;
  std::vector<std::unique_ptr<TracedStack>> traced;
};

// Every workload builds its measured host first: the RPC server, the proxy,
// the bulk receiver. Its cycles, utilization and latency stages are reported.
constexpr size_t kMeasuredHost = 0;

// The stack host i's application should program against: the host's own
// stack, or a TracedStack around it in a traced trial.
Stack* AppStack(Rig& rig, size_t i, const TrialOptions& options) {
  Stack* stack = rig.exp->host(i).stack();
  if (!options.traced) {
    return stack;
  }
  const SpanLayer layer = rig.exp->host(i).tas() != nullptr ? SpanLayer::kLibtas
                                                            : SpanLayer::kBaseline;
  rig.traced.push_back(
      std::make_unique<TracedStack>(stack, options.spans, static_cast<uint16_t>(i), layer));
  return rig.traced.back().get();
}

// Whole milliseconds, so the window ends on a 1 ms step.
TimeNs Scaled(TimeNs t, const TrialOptions& options) {
  return Ms(std::max<int64_t>(1, std::llround(ToMs(t) * options.length)));
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// Appends every retained sample of `recorder`, scaled to ns.
void AppendSamples(const LatencyRecorder& recorder, double to_ns, std::vector<double>* out) {
  for (const auto& [value, frac] : recorder.Cdf(~size_t{0})) {
    (void)frac;
    out->push_back(value * to_ns);
  }
}

// Shared window bookkeeping: per-layer metrics from counters, cycle totals,
// spans, and the fingerprint.
void FinishTrial(Rig& rig, const Counters& before, const Counters& after,
                 const TrialOptions& options, std::vector<double> latency_ns, TrialResult* r) {
  Experiment& exp = *rig.exp;
  const double ops = static_cast<double>(r->ops);
  const double mib = static_cast<double>(r->payload_bytes) / kMiB;
  const double window_ns = static_cast<double>(r->window_ns);
  std::sort(latency_ns.begin(), latency_ns.end());
  r->latency_p50_ns = Percentile(latency_ns, 50);
  r->latency_p99_ns = Percentile(latency_ns, 99);
  r->latency_samples = latency_ns.size();

  r->events = after.events - before.events;
  r->max_pending = exp.sim().max_pending_events();
  uint64_t cycles[kNumCpuModules];
  for (int m = 0; m < kNumCpuModules; ++m) {
    cycles[m] = after.cycles[m] - before.cycles[m];
    r->measured_cycles += cycles[m];
  }

  auto& L = r->layer;
  L["sim.events_per_op"] = Ratio(static_cast<double>(r->events), ops);
  L["sim.max_pending"] = static_cast<double>(r->max_pending);
  L["sim.cancelled_per_op"] = Ratio(static_cast<double>(after.cancelled - before.cancelled), ops);

  const double tx_packets = static_cast<double>(after.link_tx_packets - before.link_tx_packets);
  const double reused = static_cast<double>(after.pool.reused - before.pool.reused);
  const double allocated = static_cast<double>(after.pool.allocated - before.pool.allocated);
  L["net.pkts_per_op"] = Ratio(tx_packets, ops);
  L["net.pool_reuse_ratio"] = Ratio(reused, reused + allocated);
  L["net.link_drops_overflow"] =
      static_cast<double>(after.link_drops_overflow - before.link_drops_overflow);
  L["net.ecn_marked_frac"] =
      Ratio(static_cast<double>(after.link_ecn_marks - before.link_ecn_marks), tx_packets);
  L["net.link_queue_mean_pkts"] =
      Ratio(after.link_queue_sum - before.link_queue_sum,
            static_cast<double>(after.link_queue_samples - before.link_queue_samples));
  L["nic.rx_drops"] = static_cast<double>(after.nic_rx_drops - before.nic_rx_drops);
  L["fault.drop_frac"] =
      Ratio(static_cast<double>(after.link_drops_induced - before.link_drops_induced), tx_packets);

  L["shm.doorbells_coalesced_per_op"] =
      Ratio(TasDelta(before, after, "tas.contexts.doorbells_coalesced"), ops);
  L["fast_path.batch_mean"] = Ratio(TasDelta(before, after, "tas.fastpath.batch_items"),
                                    TasDelta(before, after, "tas.fastpath.batches"));
  TasService* measured_tas = exp.host(kMeasuredHost).tas();
  const double fp_cores = measured_tas != nullptr ? measured_tas->max_cores() : 0;
  L["fast_path.util"] =
      Ratio(static_cast<double>(after.fp_busy_ns - before.fp_busy_ns), fp_cores * window_ns);
  L["fast_path.ooo_accepted_per_mib"] =
      Ratio(TasDelta(before, after, "tas.fastpath.ooo_accepted"), mib);
  L["fast_path.fast_retx_per_mib"] =
      Ratio(TasDelta(before, after, "tas.fastpath.fast_retransmits"), mib);
  L["slow_path.util"] =
      Ratio(static_cast<double>(after.sp_busy_ns - before.sp_busy_ns), window_ns);
  L["slow_path.conns_per_op"] =
      Ratio(TasDelta(before, after, "tas.slowpath.connections_established"), ops);
  L["slow_path.pkts_per_op"] = Ratio(TasDelta(before, after, "tas.slowpath.packets"), ops);
  L["slow_path.control_iters_per_sim_ms"] =
      Ratio(TasDelta(before, after, "tas.slowpath.control_iterations"), window_ns / 1e6);
  L["slow_path.timeout_retx"] = TasDelta(before, after, "tas.slowpath.timeout_retransmits");
  L["flow_table.lookups_per_op"] = Ratio(TasDelta(before, after, "tas.flow_table.lookups"), ops);
  L["flow_table.probe_p99"] = TasValue(after, "tas.flow_table.probe_p99");
  L["flow_table.tombstones"] = TasValue(after, "tas.flow_table.tombstones");

  static const char* const kCpuNames[] = {"driver", "ip", "tcp", "sockets", "app"};
  static const CpuModule kCpuModules[] = {CpuModule::kDriver, CpuModule::kIp, CpuModule::kTcp,
                                          CpuModule::kSockets, CpuModule::kApp};
  for (int i = 0; i < 5; ++i) {
    L[std::string("cpu.") + kCpuNames[i] + "_kc_per_op"] =
        Ratio(static_cast<double>(cycles[static_cast<int>(kCpuModules[i])]) / 1000.0, ops);
  }

  // Latency stage p99s on the measured host (whole trial; traced trials only).
  for (const char* stage : {"ctx_queue", "fp_rx", "fp_tx"}) {
    L[std::string("lat.") + stage + ".p99_us"] = 0;
  }
  if (options.traced && measured_tas != nullptr) {
    const LatencyTracer& lat = measured_tas->tracer().latency();
    const LatencyReport report = lat.Report();
    for (const char* stage : {"ctx_queue", "fp_rx", "fp_tx"}) {
      if (const LatencyStageSummary* s = report.Find(stage)) {
        L[std::string("lat.") + stage + ".p99_us"] = static_cast<double>(s->p99_ns) / 1e3;
      }
    }
    if (lat.completed() == 0 || lat.partition_mismatches() != 0) {
      r->check_failures.push_back("latency stage stamping: " +
                                  std::to_string(lat.partition_mismatches()) +
                                  " partition_mismatches over " +
                                  std::to_string(lat.completed()) + " records");
    }
  }

  // Span totals (traced trials): libTAS and app on the measured host,
  // baseline over every engine-stack host.
  uint64_t libtas_calls = 0, baseline_calls = 0;
  int64_t libtas_ns = 0, baseline_ns = 0, app_ns = 0;
  if (options.traced) {
    const SpanLog& log = *options.spans;
    const auto m = static_cast<uint16_t>(kMeasuredHost);
    libtas_calls = log.totals(m, SpanLayer::kLibtas).count;
    libtas_ns = log.totals(m, SpanLayer::kLibtas).self_ns;
    app_ns = log.totals(m, SpanLayer::kApp).self_ns;
    for (size_t i = 0; i < exp.num_hosts(); ++i) {
      const SpanTotals& t = log.totals(static_cast<uint16_t>(i), SpanLayer::kBaseline);
      baseline_calls += t.count;
      baseline_ns += t.self_ns;
    }
    if (!log.balanced()) {
      r->check_failures.push_back("span log unbalanced at window end");
    }
  }
  L["libtas.calls_per_op"] = Ratio(static_cast<double>(libtas_calls), ops);
  L["libtas.self_ns_per_call"] =
      Ratio(static_cast<double>(libtas_ns), static_cast<double>(libtas_calls));
  L["baseline.calls_per_op"] = Ratio(static_cast<double>(baseline_calls), ops);
  L["baseline.self_ns_per_call"] =
      Ratio(static_cast<double>(baseline_ns), static_cast<double>(baseline_calls));
  L["app.self_ns_per_op"] = Ratio(static_cast<double>(app_ns), ops);

  // Proxy metrics default to 0; proxy_churn overwrites them.
  for (const char* name : {"proxy.hit_ratio", "proxy.splice_frac", "proxy.coalesced_frac",
                           "proxy.pool_queued_hw"}) {
    L.emplace(name, 0.0);
  }
  for (int e = 0; e < kNumCausalEdges; ++e) {
    L.emplace(std::string("cp.") + CausalEdgeName(static_cast<CausalEdge>(e)) + ".share", 0.0);
  }

  // Fingerprint: every modeled result of the trial, and the events it took.
  std::ostringstream fp;
  fp.precision(17);
  fp << r->ops << '|' << r->failed << '|' << r->window_ns << '|' << r->payload_bytes << '|'
     << r->latency_samples << '|' << r->latency_p50_ns << '|' << r->latency_p99_ns << '|'
     << r->events;
  for (uint64_t c : cycles) {
    fp << '|' << c;
  }
  uint64_t h = 1469598103934665603ull;  // FNV-1a.
  for (char ch : fp.str()) {
    h = (h ^ static_cast<uint8_t>(ch)) * 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  r->fingerprint = hex;
}

// Runs the measured window in 1 ms steps of simulated time until done(),
// reading the counters at both ends.
template <typename Done>
void MeasureWindow(Rig& rig, const TrialOptions& options, Done done, TrialResult* r,
                   Counters* before, Counters* after) {
  *before = ReadCounters(*rig.exp, kMeasuredHost);
  if (options.traced) {
    options.spans->Reset();
  }
  Simulator& sim = rig.exp->sim();
  const TimeNs sim_start = sim.Now();
  const auto t0 = std::chrono::steady_clock::now();
  while (!done()) {
    sim.RunUntil(sim.Now() + Ms(1));
  }
  const auto t1 = std::chrono::steady_clock::now();
  r->window_s = Seconds(t0, t1);
  r->window_ns = sim.Now() - sim_start;
  *after = ReadCounters(*rig.exp, kMeasuredHost);
}

// ---------------------------------------------------------------------------
// rpc_pipelined: 100 connections x pipeline depth 16, 64 B echo. One TAS
// server (1 app core, 2 fast-path cores), 4 IX-ideal client hosts, no loss.
// Closed loop: each connection keeps 16 requests outstanding. Op = one RPC
// answered.
constexpr size_t kRpcConnections = 100;
constexpr size_t kRpcClientHosts = 4;
constexpr size_t kRpcMessageBytes = 64;
constexpr size_t kRpcDepth = 16;

TrialResult RunRpcPipelined(const TrialOptions& options) {
  TrialResult r;
  const TimeNs warmup = Ms(15);
  const TimeNs measure = Scaled(Ms(30), options);
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 1);

  const auto t_build = std::chrono::steady_clock::now();
  Rig rig;
  std::vector<HostSpec> specs;
  std::vector<LinkConfig> links;
  specs.push_back(ServerSpec(StackKind::kTas, 1, 2, 64 * 1024));
  specs.back().tas.trace.latency_stages = options.traced;
  links.push_back(ServerLink());
  for (size_t i = 0; i < kRpcClientHosts; ++i) {
    specs.push_back(IdealClientSpec());
    links.push_back(ClientLink());
  }
  rig.exp = Experiment::Star(specs, links);
  Experiment& exp = *rig.exp;

  EchoServerConfig server_config;
  server_config.request_bytes = kRpcMessageBytes;
  server_config.response_bytes = kRpcMessageBytes;
  server_config.app_cycles = 250;
  EchoServer server(exp.host_sim(0), AppStack(rig, 0, options), server_config);
  server.Start();

  // The seed sets each client host's connection ramp and the instant its
  // closed loop starts, i.e. the phase of the four hosts' request streams.
  std::vector<std::unique_ptr<EchoClient>> clients;
  for (size_t i = 0; i < kRpcClientHosts; ++i) {
    EchoClientConfig cc;
    cc.server_ip = exp.host(0).ip();
    cc.num_connections = kRpcConnections / kRpcClientHosts;
    cc.request_bytes = kRpcMessageBytes;
    cc.response_bytes = kRpcMessageBytes;
    cc.pipeline_depth = kRpcDepth;
    cc.connect_spread = Ms(5) + rng.NextInt(0, Ms(5));
    cc.first_request_at = warmup - Ms(2) - rng.NextInt(0, Us(500));
    clients.push_back(
        std::make_unique<EchoClient>(exp.host_sim(1 + i), AppStack(rig, 1 + i, options), cc));
    clients.back()->Start();
  }
  const auto t_warm = std::chrono::steady_clock::now();
  r.build_s = Seconds(t_build, t_warm);
  exp.sim().RunUntil(warmup);
  r.warmup_s = Seconds(t_warm, std::chrono::steady_clock::now());

  uint64_t completed_before = 0;
  for (auto& c : clients) {
    c->BeginMeasurement();
    completed_before += c->completed();
  }
  const uint64_t served_before = server.requests_served();
  Counters before, after;
  MeasureWindow(
      rig, options, [&] { return exp.sim().Now() >= warmup + measure; }, &r, &before, &after);

  uint64_t completed = 0, reconnects = 0;
  std::vector<double> latency_ns;
  for (auto& c : clients) {
    completed += c->completed();
    reconnects += c->reconnects();
    AppendSamples(c->latency(), 1e3, &latency_ns);  // EchoClient records us.
  }
  r.latency_hosts = static_cast<int>(clients.size());
  r.ops = completed - completed_before;
  r.payload_bytes = r.ops * kRpcMessageBytes;
  const uint64_t served = server.requests_served() - served_before;

  // Checks. Requests in flight at either window edge bound the difference
  // between requests served and responses completed.
  const TasStats& stats = exp.host(0).tas()->stats();
  const uint64_t connected = stats.connections_established - stats.connections_closed;
  const uint64_t unconnected = connected < kRpcConnections ? kRpcConnections - connected : 0;
  const uint64_t rx_drops = exp.host(0).tas()->nic()->rx_drops() + stats.rx_buffer_drops;
  const uint64_t in_flight = kRpcConnections * kRpcDepth;
  if (r.ops == 0) {
    r.check_failures.push_back("no RPC completed in the window");
  }
  if (served + in_flight < r.ops || r.ops + in_flight < served) {
    r.check_failures.push_back("server served " + std::to_string(served) +
                               " requests but clients completed " + std::to_string(r.ops));
  }
  if (reconnects != 0 || unconnected != 0) {
    r.check_failures.push_back(std::to_string(reconnects) + " reconnects, " +
                               std::to_string(unconnected) + " connections not established");
  }
  if (rx_drops != 0) {
    r.check_failures.push_back("server dropped " + std::to_string(rx_drops) + " packets on RX");
  }
  r.failed = unconnected * kRpcDepth + reconnects + rx_drops;
  r.attempted = r.ops + r.failed;
  FinishTrial(rig, before, after, options, std::move(latency_ns), &r);
  return r;
}

// ---------------------------------------------------------------------------
// proxy_churn: reverse proxy on 3 TAS hosts (proxy, origin, clients). Zipf
// alpha 0.9 over 4096 objects, 256 KiB LRU cache, <= 64 pooled origin
// connections. 128 concurrent half-closing clients each send 2 requests;
// 15,000 connections in total. Closed loop per connection. Op = one GET
// answered and verified.
//
// 128, not 256, concurrent clients: at 256 the proxy's slow path is 95% busy,
// and some seeds tip it into saturation (99.8% busy, 2.6x the timeout
// retransmits, p50 0.36 -> 2.5 ms), so the workload had two answers. At 128
// it is 85% busy and p50 moves 2% between seeds.
constexpr size_t kProxyConcurrency = 128;
constexpr size_t kProxyConnections = 15000;
constexpr size_t kProxyRequestsPerConn = 2;
constexpr size_t kProxyPoolConns = 64;

// Counts the response bytes (header + body) the client application reads.
class CountingProxyClient : public ProxyClientGen {
 public:
  using ProxyClientGen::ProxyClientGen;
  void OnData(ConnId conn, size_t bytes) override {
    bytes_ += bytes;
    ProxyClientGen::OnData(conn, bytes);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  uint64_t bytes_ = 0;
};

TrialResult RunProxyChurn(const TrialOptions& options) {
  TrialResult r;
  // The warm-up runs past the connection ramp, whose transient made p50 vary
  // by 60% between seeds. It answers about 5,000 requests, so a shortened
  // trial keeps at least 3,000 connections.
  const TimeNs warmup = Ms(100);
  const size_t connections = std::max<size_t>(
      3000, static_cast<size_t>(static_cast<double>(kProxyConnections) * options.length));

  const auto t_build = std::chrono::steady_clock::now();
  Rig rig;
  HostSpec proxy_spec = ServerSpec(StackKind::kTas, 1, 2, 64 * 1024);
  proxy_spec.tas.trace.latency_stages = options.traced;
  proxy_spec.tas.trace.causal = options.traced;
  proxy_spec.tas.trace.causal_trace_capacity = 1u << 14;
  LinkConfig proxy_link = ServerLink();
  LinkConfig edge_link = ClientLink();
  proxy_link.rng_seed = options.seed * 2 + 1;
  edge_link.rng_seed = options.seed * 2 + 2;
  rig.exp = Experiment::Star({proxy_spec, ServerSpec(StackKind::kTas, 1, 2, 64 * 1024),
                              ServerSpec(StackKind::kTas, 1, 2, 64 * 1024)},
                             {proxy_link, edge_link, edge_link});
  Experiment& exp = *rig.exp;

  ProxyServerConfig pc;
  pc.cache_bytes = 256 * 1024;
  pc.splice_min_body = 1024;  // Bodies span 64..2112 B: hits, stores and splices.
  pc.pool.max_conns = kProxyPoolConns;
  OriginServerConfig oc;
  oc.min_body_bytes = 64;
  oc.body_spread = 2048;
  ProxyClientConfig cc;
  cc.concurrency = kProxyConcurrency;
  cc.total_connections = connections;
  cc.requests_per_connection = kProxyRequestsPerConn;
  cc.half_close = true;
  cc.pipeline_depth = 2;
  cc.num_objects = 4096;
  cc.zipf_skew = 0.9;
  cc.connect_spread = Ms(10);
  cc.rng_seed = options.seed;
  pc.pool.origin_ip = exp.host(1).ip();
  pc.pool.origin_port = oc.port;
  cc.proxy_ip = exp.host(0).ip();
  cc.proxy_port = pc.listen_port;
  cc.min_body_bytes = oc.min_body_bytes;
  cc.body_spread = oc.body_spread;
  ProxyServer proxy(exp.host_sim(0), AppStack(rig, 0, options), pc);
  OriginServer origin(exp.host_sim(1), AppStack(rig, 1, options), oc);
  CountingProxyClient clients(exp.host_sim(2), AppStack(rig, 2, options), cc);
  origin.Start();
  proxy.Start();
  clients.Start();

  const auto t_warm = std::chrono::steady_clock::now();
  r.build_s = Seconds(t_build, t_warm);
  exp.sim().RunUntil(warmup);
  r.warmup_s = Seconds(t_warm, std::chrono::steady_clock::now());

  const uint64_t target = connections * kProxyRequestsPerConn;
  clients.BeginMeasurement();
  const uint64_t completed_before = clients.completed();
  const uint64_t bytes_before = clients.bytes();
  const HotObjectCacheStats cache_before = proxy.cache().stats();
  const uint64_t requests_before = proxy.requests();
  const uint64_t responses_before = proxy.responses();
  const uint64_t coalesced_before = proxy.coalesced_requests();
  // The proxy's own counters, read through a registry this trial owns.
  MetricRegistry proxy_metrics;
  proxy.RegisterMetrics(proxy_metrics);
  double splice_before = 0, splice_after = 0;
  proxy_metrics.ReadValue("proxy.responses_splice", &splice_before);
  Counters before, after;
  const TimeNs deadline = Sec(30);
  MeasureWindow(
      rig, options, [&] { return exp.sim().Now() >= deadline || clients.completed() >= target; },
      &r, &before, &after);

  proxy_metrics.ReadValue("proxy.responses_splice", &splice_after);
  r.ops = clients.completed() - completed_before;
  r.payload_bytes = clients.bytes() - bytes_before;
  std::vector<double> latency_ns;
  AppendSamples(clients.latency(), 1.0, &latency_ns);  // ProxyClientGen records ns.
  r.latency_hosts = 1;

  const uint64_t missing = target - std::min<uint64_t>(target, clients.completed());
  const uint64_t bad = clients.duplicates() + clients.mismatches() + clients.bad_bodies() +
                       clients.trace_mismatches();
  if (r.ops == 0) {
    r.check_failures.push_back("no request answered in the window");
  }
  if (missing != 0 || clients.issued() != target) {
    r.check_failures.push_back("completed " + std::to_string(clients.completed()) + " of " +
                               std::to_string(target) + " requests");
  }
  if (bad != 0) {
    r.check_failures.push_back(
        "exactly-once violated: duplicates " + std::to_string(clients.duplicates()) +
        ", mismatches " + std::to_string(clients.mismatches()) + ", bad_bodies " +
        std::to_string(clients.bad_bodies()) + ", trace_mismatches " +
        std::to_string(clients.trace_mismatches()));
  }
  if (clients.connect_failures() != 0) {
    r.check_failures.push_back(std::to_string(clients.connect_failures()) +
                               " client connects failed");
  }
  if (proxy.pool().stats().conns_hw > kProxyPoolConns) {
    r.check_failures.push_back("origin pool exceeded its connection bound");
  }
  r.failed = missing + bad + clients.connect_failures();
  r.attempted = r.ops + r.failed;

  FinishTrial(rig, before, after, options, std::move(latency_ns), &r);

  auto& L = r.layer;
  const HotObjectCacheStats cache = proxy.cache().stats();
  const double hits = static_cast<double>(cache.hits - cache_before.hits);
  const double misses = static_cast<double>(cache.misses - cache_before.misses);
  const double responses = static_cast<double>(proxy.responses() - responses_before);
  L["proxy.hit_ratio"] = Ratio(hits, hits + misses);
  L["proxy.splice_frac"] = Ratio(splice_after - splice_before, responses);
  L["proxy.coalesced_frac"] =
      Ratio(static_cast<double>(proxy.coalesced_requests() - coalesced_before),
            static_cast<double>(proxy.requests() - requests_before));
  L["proxy.pool_queued_hw"] = static_cast<double>(proxy.pool().stats().queued_hw);

  if (options.traced) {
    const CausalTracer& ct = exp.host(0).tas()->tracer().causal();
    const CriticalPathReport report = ct.Report();
    double e2e_ns = 0;
    double edge_ns[kNumCausalEdges] = {};
    for (const CriticalPathClassSummary& cls : report.classes) {
      for (const CriticalPathEdgeSummary& e : cls.edges) {
        const double total = e.mean_ns * static_cast<double>(e.count);
        if (e.edge == "e2e") {
          e2e_ns += total;
          continue;
        }
        for (int k = 0; k < kNumCausalEdges; ++k) {
          if (e.edge == CausalEdgeName(static_cast<CausalEdge>(k))) {
            edge_ns[k] += total;
          }
        }
      }
    }
    for (int k = 0; k < kNumCausalEdges; ++k) {
      L[std::string("cp.") + CausalEdgeName(static_cast<CausalEdge>(k)) + ".share"] =
          Ratio(edge_ns[k], e2e_ns);
    }
    if (ct.completed() == 0 || ct.critical_path_mismatches() != 0) {
      r.check_failures.push_back("causal tracing: " +
                                 std::to_string(ct.critical_path_mismatches()) +
                                 " critical_path_mismatches over " +
                                 std::to_string(ct.completed()) + " traces");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// bulk_loss: 100 TAS->TAS bulk flows, 16 KiB sends, over one 10G link with
// 1% seeded Bernoulli loss (both directions) and ECN marking at 65 packets.
// Closed loop: each flow refills its send buffer as ACKs free space. Op = one
// MiB delivered in order to the receiving application; its latency is the
// simulated time that MiB took on its flow.
constexpr size_t kBulkFlows = 100;
constexpr double kBulkLoss = 0.01;

class TimedBulkReceiver : public BulkReceiver {
 public:
  TimedBulkReceiver(Simulator* sim, Stack* stack, const BulkReceiverConfig& config)
      : BulkReceiver(sim, stack, config), sim_(sim) {}

  void OnData(ConnId conn, size_t bytes) override {
    const uint64_t before = bytes_received();
    BulkReceiver::OnData(conn, bytes);
    Flow& f = flows_[conn];
    f.bytes += bytes_received() - before;
    while (f.bytes >= kMiBBytes) {
      f.bytes -= kMiBBytes;
      const TimeNs now = sim_->Now();
      if (measuring_ && f.last_mib_at >= 0) {
        mib_ns_.push_back(static_cast<double>(now - f.last_mib_at));
      }
      f.last_mib_at = now;
    }
  }

  void StartTiming() {
    measuring_ = true;
    mib_ns_.clear();
  }
  const std::vector<double>& mib_ns() const { return mib_ns_; }

 private:
  static constexpr uint64_t kMiBBytes = 1u << 20;
  struct Flow {
    uint64_t bytes = 0;      // Toward the next MiB boundary.
    TimeNs last_mib_at = -1;  // When the previous MiB completed.
  };
  Simulator* sim_;
  std::unordered_map<ConnId, Flow> flows_;
  std::vector<double> mib_ns_;
  bool measuring_ = false;
};

TrialResult RunBulkLoss(const TrialOptions& options) {
  TrialResult r;
  const TimeNs warmup = Ms(30);
  const TimeNs measure = Scaled(Ms(300), options);

  const auto t_build = std::chrono::steady_clock::now();
  Rig rig;
  HostSpec receiver_spec = ServerSpec(StackKind::kTas, 6, 4, 128 * 1024);
  HostSpec sender_spec = ServerSpec(StackKind::kTas, 6, 4, 128 * 1024);
  receiver_spec.tas.trace.latency_stages = options.traced;
  LinkConfig link = ClientLink();
  link.ecn_threshold_pkts = 65;
  link.faults.Add(BernoulliLoss(kBulkLoss));
  link.rng_seed = options.seed * 0x9E3779B97F4A7C15ull + 7;
  rig.exp = Experiment::PointToPoint(receiver_spec, sender_spec, link);
  Experiment& exp = *rig.exp;

  TimedBulkReceiver rx(exp.host_sim(0), AppStack(rig, 0, options), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp.host(0).ip();
  sc.num_flows = kBulkFlows;
  sc.chunk_bytes = 16 * 1024;
  BulkSender tx(exp.host_sim(1), AppStack(rig, 1, options), sc);
  tx.Start();

  const auto t_warm = std::chrono::steady_clock::now();
  r.build_s = Seconds(t_build, t_warm);
  exp.sim().RunUntil(warmup);
  r.warmup_s = Seconds(t_warm, std::chrono::steady_clock::now());

  rx.BeginMeasurement();
  rx.StartTiming();
  const uint64_t bytes_before = rx.bytes_received();
  Counters before, after;
  MeasureWindow(
      rig, options, [&] { return exp.sim().Now() >= warmup + measure; }, &r, &before, &after);

  r.payload_bytes = rx.bytes_received() - bytes_before;
  r.ops = static_cast<uint64_t>(static_cast<double>(r.payload_bytes) / kMiB);
  r.latency_hosts = 1;

  const uint64_t unconnected = kBulkFlows - std::min(kBulkFlows, tx.connected());
  if (unconnected != 0) {
    r.check_failures.push_back(std::to_string(unconnected) + " flows never connected");
  }
  if (rx.bytes_received() > tx.bytes_sent()) {
    r.check_failures.push_back("received more bytes than were sent");
  }
  if (r.ops == 0) {
    r.check_failures.push_back("no MiB delivered in the window");
  }
  r.failed = unconnected;
  r.attempted = r.ops + r.failed;
  FinishTrial(rig, before, after, options, rx.mib_ns(), &r);

  // The seeded loss must be the configured 1%: a band of +-10% of it.
  const double drop = r.layer["fault.drop_frac"];
  if (drop < kBulkLoss * 0.9 || drop > kBulkLoss * 1.1) {
    r.check_failures.push_back("fault.drop_frac " + std::to_string(drop) +
                               " outside [0.9%, 1.1%]");
  }
  return r;
}

}  // namespace

TrialResult RunTrial(const std::string& workload, const TrialOptions& options) {
  if (workload == "rpc_pipelined") {
    return RunRpcPipelined(options);
  }
  if (workload == "proxy_churn") {
    return RunProxyChurn(options);
  }
  if (workload == "bulk_loss") {
    return RunBulkLoss(options);
  }
  std::cerr << "unknown workload " << workload << "\n";
  std::abort();
}

double MeasureBareNsPerEvent(size_t depth, uint64_t events) {
  Simulator sim;
  Rng rng(12345);
  // Each event reschedules one successor a random 0..2 us ahead, keeping the
  // pending count at `depth`.
  struct Tick {
    Simulator* sim;
    Rng* rng;
    void operator()() const { sim->After(static_cast<TimeNs>(rng->NextUint64(2000)), *this); }
  };
  for (size_t i = 0; i < std::max<size_t>(depth, 1); ++i) {
    sim.At(static_cast<TimeNs>(rng.NextUint64(2000)), Tick{&sim, &rng});
  }
  // Warm the slab and heap before timing.
  uint64_t ran = 0;
  while (ran < events / 10) {
    ran += sim.RunUntil(sim.Now() + Us(10));
  }
  const uint64_t start_events = sim.events_executed();
  const auto t0 = std::chrono::steady_clock::now();
  while (sim.events_executed() - start_events < events) {
    sim.RunUntil(sim.Now() + Us(10));
  }
  const auto t1 = std::chrono::steady_clock::now();
  return Seconds(t0, t1) * 1e9 / static_cast<double>(sim.events_executed() - start_events);
}

}  // namespace perfbench
}  // namespace tas
