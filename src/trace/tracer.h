// Tracer: the per-host observability bundle — a MetricRegistry every
// subsystem registers into, a FlowTracer for per-flow protocol events, a
// TimeSeriesSampler for plot-ready series, and a SpanRecorder for CPU busy
// intervals — plus the exporters: JSONL dumps for metrics / flow events /
// time series, and a Chrome trace-event JSON (load in https://ui.perfetto.dev
// or chrome://tracing) that renders fast-path core busy spans, slow-path
// control iterations, per-flow event tracks, and time-series counter tracks
// on one timeline.
#ifndef SRC_TRACE_TRACER_H_
#define SRC_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/causal.h"
#include "src/trace/flow_tracer.h"
#include "src/trace/latency.h"
#include "src/trace/metric_registry.h"
#include "src/trace/timeseries.h"

namespace tas {

// Knobs carried by TasConfig::trace (and usable standalone). Everything is
// off by default; a default-constructed Tracer costs one branch per
// instrumentation site. Ring and series sizes are constants (DESIGN.md §7):
// kFlowEventCapacity flow events, 1 << 16 CPU spans, 4096 points per series,
// 1 << 12 latency records and kCausalExemplars exemplars per request class.
struct TraceConfig {
  // Per-flow protocol events for all flows.
  bool flow_events = false;
  // CPU busy spans (per-core Charge intervals + slow-path control loops).
  bool cpu_spans = false;
  // Periodic sampling of registered probes; 0 disables the sweep task.
  TimeNs sample_period = 0;
  // Also sample per-flow cc rate/window, bytes in flight, and buffer
  // occupancy into one series per live flow (needs sample_period > 0).
  bool sample_flows = false;
  // Per-packet latency anatomy (src/trace/latency): stage stamps in a side
  // ring, folded into per-stage histograms. The first TasService constructed
  // with this on installs its host's LatencyTracer as the global stamp sink
  // (packet journeys cross hosts, so one tracer observes the whole path).
  bool latency_stages = false;
  // Request-level causal tracing (src/trace/causal, DESIGN.md §12). Install
  // discipline mirrors latency_stages: the first causal-enabled TasService
  // installs its CausalTracer process-wide.
  bool causal = false;
  size_t causal_trace_capacity = 1u << 13;
};

// One contiguous busy interval on a track (track = simulated core id, or a
// synthetic id for logical tracks like the slow-path control loop).
struct TraceSpan {
  int track = 0;
  const char* name = "";  // Must point at static storage.
  TimeNs start = 0;
  TimeNs end = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity = 1u << 16) : capacity_(capacity) {}

  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void Record(int track, const char* name, TimeNs start, TimeNs end) {
    if (!enabled_) {
      return;
    }
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    spans_.push_back(TraceSpan{track, name, start, end});
  }

  // Human-readable track label for the Perfetto thread-name metadata (static
  // tracks: core ids, the slow-path control loop).
  void SetTrackName(int track, std::string name) { track_names_[track] = std::move(name); }

  // Allocates a fresh synthetic track (request spans, exemplar trace trees)
  // and names it. Ids start at kFirstTrack, above the simulated core ids and
  // the slow-path control track, so logical tracks cannot collide with them.
  static constexpr int kFirstTrack = 2000;
  int RegisterTrack(std::string name) {
    const int track = next_track_++;
    track_names_[track] = std::move(name);
    return track;
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::map<int, std::string>& track_names() const { return track_names_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_ = false;
  size_t capacity_;
  int next_track_ = kFirstTrack;
  std::vector<TraceSpan> spans_;
  std::map<int, std::string> track_names_;  // Ordered for deterministic export.
  uint64_t dropped_ = 0;
};

class Tracer {
 public:
  explicit Tracer(Simulator* sim, const TraceConfig& config = TraceConfig{});

  const TraceConfig& config() const { return config_; }
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  FlowTracer& flow_events() { return flow_events_; }
  const FlowTracer& flow_events() const { return flow_events_; }
  TimeSeriesSampler& sampler() { return sampler_; }
  const TimeSeriesSampler& sampler() const { return sampler_; }
  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }
  LatencyTracer& latency() { return latency_; }
  const LatencyTracer& latency() const { return latency_; }
  CausalTracer& causal() { return causal_; }
  const CausalTracer& causal() const { return causal_; }

  // --- Exporters ------------------------------------------------------------
  void WriteMetricsJsonl(std::ostream& os) const { metrics_.WriteJsonl(os); }
  void WriteFlowEventsJsonl(std::ostream& os) const { flow_events_.WriteJsonl(os); }
  void WriteTimeSeriesJsonl(std::ostream& os) const { sampler_.WriteJsonl(os); }
  // Chrome trace-event format: CPU spans as complete events ("ph":"X"),
  // flow events as instants on per-flow tracks, time series as counters.
  void WritePerfettoJson(std::ostream& os) const;

  // Writes <prefix>.metrics.jsonl, <prefix>.flow_events.jsonl,
  // <prefix>.timeseries.jsonl and <prefix>.perfetto.json — plus
  // <prefix>.latency.json when latency_stages is on and
  // <prefix>.critical_path.json when causal is on. Warns (TAS_LOG) when any
  // ring overflowed and the export is therefore truncated. Returns false if
  // any file could not be opened.
  bool WriteAll(const std::string& prefix) const;

 private:
  TraceConfig config_;
  MetricRegistry metrics_;
  FlowTracer flow_events_;
  TimeSeriesSampler sampler_;
  SpanRecorder spans_;
  LatencyTracer latency_;
  CausalTracer causal_;
  // Track ids for exemplar trace trees, indexed cls * kCausalExemplars + i.
  std::vector<int> exemplar_tracks_;
};

// Chrome trace-event writer shared by the Perfetto exporters (the Tracer's
// and the flight recorder's bundles): array framing, separators and
// process/thread-name metadata, all fixed-format so exports are byte-stable.
class TraceEventWriter {
 public:
  // Opens the event array and names process kTracePid.
  TraceEventWriter(std::ostream& os, const char* process_name);
  // Starts the next event; returns the stream to write it to.
  std::ostream& Next();
  void ThreadName(uint64_t tid, const std::string& name);
  // Closes the event array; `tail` ends the enclosing object.
  void Close(const char* tail);

 private:
  std::ostream& os_;
  bool first_ = true;
};

inline constexpr int kTracePid = 1;
// Chrome trace-event timestamps are microseconds; keeps nanosecond
// precision with three fixed decimals.
std::string TsUs(TimeNs t);

// Registers the simulator's dispatch metrics (events executed, pending
// events, pending high-water mark) under the "sim." prefix.
void RegisterSimulatorMetrics(MetricRegistry* registry, const Simulator* sim,
                              const std::string& prefix = "sim");

}  // namespace tas

#endif  // SRC_TRACE_TRACER_H_
