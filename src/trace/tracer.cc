#include "src/trace/tracer.h"

#include <cstdio>
#include <fstream>
#include <set>

#include "src/util/logging.h"

namespace tas {
namespace {

// Flow tracks sit far above any simulated core id.
constexpr uint64_t kFlowTrackBase = 1u << 20;

}  // namespace

std::string TsUs(TimeNs t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  return buf;
}

TraceEventWriter::TraceEventWriter(std::ostream& os, const char* process_name) : os_(os) {
  os_ << "{\"traceEvents\":[\n";
  Next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kTracePid
         << ",\"args\":{\"name\":\"" << process_name << "\"}}";
}

std::ostream& TraceEventWriter::Next() {
  if (!first_) {
    os_ << ",\n";
  }
  first_ = false;
  return os_;
}

void TraceEventWriter::ThreadName(uint64_t tid, const std::string& name) {
  Next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kTracePid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":";
  JsonEscape(name, os_);
  os_ << "}}";
}

void TraceEventWriter::Close(const char* tail) { os_ << "\n]" << tail; }

Tracer::Tracer(Simulator* sim, const TraceConfig& config)
    : config_(config), sampler_(sim), causal_(config.causal_trace_capacity) {
  flow_events_.SetGlobal(config.flow_events);
  spans_.SetEnabled(config.cpu_spans);
  if (config.causal) {
    // Pre-register one track per retained exemplar slot so the slowest trace
    // trees land on stable, named Perfetto tracks.
    exemplar_tracks_.reserve(kNumRequestClasses * kCausalExemplars);
    for (int cls = 0; cls < kNumRequestClasses; ++cls) {
      for (size_t i = 0; i < kCausalExemplars; ++i) {
        exemplar_tracks_.push_back(spans_.RegisterTrack(
            "critpath-" + std::string(RequestClassName(static_cast<RequestClass>(cls))) + "-" +
            std::to_string(i)));
      }
    }
  }
}

void Tracer::WritePerfettoJson(std::ostream& os) const {
  TraceEventWriter w(os, "tas");
  for (const auto& [track, name] : spans_.track_names()) {
    w.ThreadName(static_cast<uint64_t>(track), name);
  }

  // CPU busy spans as complete ("X") events.
  for (const TraceSpan& span : spans_.spans()) {
    w.Next() << "{\"name\":\"" << span.name << "\",\"cat\":\"cpu\",\"ph\":\"X\",\"ts\":"
             << TsUs(span.start) << ",\"dur\":" << TsUs(span.end - span.start)
             << ",\"pid\":" << kTracePid << ",\"tid\":" << span.track << "}";
  }

  // Flow events as instant ("i") events, one synthetic track per flow.
  std::set<uint64_t> named_flows;
  for (const FlowEvent& e : flow_events_.Events()) {
    const uint64_t track = kFlowTrackBase + e.flow;
    if (named_flows.insert(e.flow).second) {
      w.ThreadName(track, "flow-" + std::to_string(e.flow));
    }
    w.Next() << "{\"name\":\"" << FlowEventTypeName(e.type)
             << "\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(e.t)
             << ",\"pid\":" << kTracePid << ",\"tid\":" << track
             << ",\"args\":{\"flow\":" << e.flow;
    WriteFlowEventArgs(os, e.type, e.a, e.b, e.c);
    os << "}}";
  }

  // Loss-recovery flow arrows: pair each retransmit with the first ACK that
  // moves snd_una afterwards and draw an "s" -> "t" arrow across the
  // recovery window (plus an "X" slice so the arrow endpoints have a slice
  // to bind to). Only the FIRST unrecovered retransmit per flow is kept —
  // later retransmits of the same loss episode extend the same window.
  {
    std::map<uint64_t, TimeNs> pending_retx;  // flow -> retransmit time.
    uint64_t arrow_id = 1;
    for (const FlowEvent& e : flow_events_.Events()) {
      if (e.type == FlowEventType::kFastRetransmit ||
          e.type == FlowEventType::kTimeoutRetransmit) {
        pending_retx.emplace(e.flow, e.t);  // First retx of the episode wins.
        continue;
      }
      if (e.type != FlowEventType::kAckRx || e.b == 0) {
        continue;
      }
      auto it = pending_retx.find(e.flow);
      if (it == pending_retx.end()) {
        continue;
      }
      const TimeNs start = it->second;
      pending_retx.erase(it);
      const uint64_t track = kFlowTrackBase + e.flow;
      w.Next() << "{\"name\":\"loss_recovery\",\"cat\":\"recovery\",\"ph\":\"X\",\"ts\":"
               << TsUs(start) << ",\"dur\":" << TsUs(e.t - start) << ",\"pid\":" << kTracePid
               << ",\"tid\":" << track << "}";
      w.Next() << "{\"name\":\"retx_recovery\",\"cat\":\"recovery\",\"ph\":\"s\",\"id\":"
               << arrow_id << ",\"ts\":" << TsUs(start) << ",\"pid\":" << kTracePid
               << ",\"tid\":" << track << "}";
      w.Next() << "{\"name\":\"retx_recovery\",\"cat\":\"recovery\",\"ph\":\"t\",\"id\":"
               << arrow_id << ",\"ts\":" << TsUs(e.t) << ",\"pid\":" << kTracePid
               << ",\"tid\":" << track << "}";
      ++arrow_id;
    }
  }

  // Exemplar trace trees (slowest requests per class) as nested "X" slices
  // on their pre-registered tracks, with cross-trace coalescing links drawn
  // as flow arrows when both endpoints were exported.
  if (config_.causal && !exemplar_tracks_.empty()) {
    std::map<uint64_t, size_t> exported;  // trace id -> exemplar track index.
    for (int cls = 0; cls < kNumRequestClasses; ++cls) {
      const auto& exs = causal_.exemplars(static_cast<RequestClass>(cls));
      for (size_t i = 0; i < exs.size(); ++i) {
        const size_t slot = static_cast<size_t>(cls) * kCausalExemplars + i;
        exported.emplace(exs[i].trace_id, slot);
        const int track = exemplar_tracks_[slot];
        for (const CausalSpan& span : exs[i].spans) {
          // A span that was never closed (its tier died) renders to the
          // trace end so the hole is visible rather than zero-width.
          const TimeNs end = span.end != 0 ? span.end : exs[i].end;
          w.Next() << "{\"name\":\"" << CausalSpanKindName(span.kind)
                   << "\",\"cat\":\"critpath\",\"ph\":\"X\",\"ts\":" << TsUs(span.start)
                   << ",\"dur\":" << TsUs(end - span.start) << ",\"pid\":" << kTracePid
                   << ",\"tid\":" << track << ",\"args\":{\"trace\":" << exs[i].trace_id
                   << ",\"span\":" << span.id << ",\"object\":" << span.object_id
                   << ",\"request\":" << span.request_id << (span.end == 0 ? ",\"open\":1" : "")
                   << "}}";
        }
        for (const CausalMark& mark : exs[i].marks) {
          w.Next() << "{\"name\":\"" << CausalEdgeName(mark.edge)
                   << "\",\"cat\":\"critpath\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(mark.t)
                   << ",\"pid\":" << kTracePid << ",\"tid\":" << track << "}";
        }
      }
    }
    uint64_t link_id = 1u << 20;  // Distinct id space from the retx arrows.
    for (const auto& [trace_id, slot] : exported) {
      const auto& exs =
          causal_.exemplars(static_cast<RequestClass>(slot / kCausalExemplars));
      const TraceExemplar& ex = exs[slot % kCausalExemplars];
      for (const CausalLink& link : ex.links) {
        auto from = exported.find(link.from_trace);
        if (from == exported.end()) {
          continue;  // Primary's trace was not retained; no arrow.
        }
        // The arrow fires when the primary fetch landed = the moment the
        // waiter's coalesce_wait edge ended. Find that mark on the waiter.
        TimeNs when = ex.end;
        for (const CausalMark& mark : ex.marks) {
          if (mark.edge == CausalEdge::kCoalesceWait) {
            when = mark.t;
            break;
          }
        }
        w.Next() << "{\"name\":\"coalesced_from\",\"cat\":\"critpath\",\"ph\":\"s\",\"id\":"
                 << link_id << ",\"ts\":" << TsUs(when) << ",\"pid\":" << kTracePid
                 << ",\"tid\":" << exemplar_tracks_[from->second] << "}";
        w.Next() << "{\"name\":\"coalesced_from\",\"cat\":\"critpath\",\"ph\":\"t\",\"id\":"
                 << link_id << ",\"ts\":" << TsUs(when) << ",\"pid\":" << kTracePid
                 << ",\"tid\":" << exemplar_tracks_[slot] << "}";
        ++link_id;
      }
    }
  }

  // Time series as counter ("C") tracks.
  for (const auto& series : sampler_.series()) {
    for (const auto& [t, v] : series->points()) {
      w.Next() << "{\"name\":";
      JsonEscape(series->name(), os);
      os << ",\"ph\":\"C\",\"ts\":" << TsUs(t) << ",\"pid\":" << kTracePid
         << ",\"args\":{\"value\":" << JsonNumber(v) << "}}";
    }
  }

  w.Close(",\"displayTimeUnit\":\"ms\"}\n");
}

bool Tracer::WriteAll(const std::string& prefix) const {
  struct Out {
    const char* suffix;
    void (Tracer::*write)(std::ostream&) const;
  };
  const Out outs[] = {
      {".metrics.jsonl", &Tracer::WriteMetricsJsonl},
      {".flow_events.jsonl", &Tracer::WriteFlowEventsJsonl},
      {".timeseries.jsonl", &Tracer::WriteTimeSeriesJsonl},
      {".perfetto.json", &Tracer::WritePerfettoJson},
  };
  for (const Out& out : outs) {
    std::ofstream os(prefix + out.suffix);
    if (!os) {
      return false;
    }
    (this->*out.write)(os);
  }
  if (config_.latency_stages) {
    std::ofstream os(prefix + ".latency.json");
    if (!os) {
      return false;
    }
    os << latency_.Report().ToJson() << "\n";
  }
  if (config_.causal) {
    std::ofstream os(prefix + ".critical_path.json");
    if (!os) {
      return false;
    }
    os << causal_.Report().ToJson() << "\n";
  }
  // A wrapped ring means the files above silently miss the oldest records —
  // say so once per export instead of letting a reader chase ghosts.
  const uint64_t lost_records =
      flow_events_.overwritten() + latency_.overwritten() + causal_.dropped();
  if (spans_.dropped() > 0 || lost_records > 0) {
    TAS_LOG_WARN << "trace export truncated: " << spans_.dropped() << " spans dropped, "
                 << lost_records
                 << " records overwritten (the rings keep the newest records)";
  }
  return true;
}

void RegisterSimulatorMetrics(MetricRegistry* registry, const Simulator* sim,
                              const std::string& prefix) {
  registry->AddCounterFn(prefix + ".events_executed", [sim] { return sim->events_executed(); });
  registry->AddGauge(prefix + ".pending_events",
                     [sim] { return static_cast<double>(sim->pending_events()); });
  registry->AddGauge(prefix + ".max_pending_events",
                     [sim] { return static_cast<double>(sim->max_pending_events()); });
  // Allocator-pressure view (DESIGN.md §8): cancellation traffic and event
  // slab occupancy, so Perfetto traces show hot-path memory discipline.
  registry->AddCounterFn(prefix + ".cancelled_events",
                         [sim] { return sim->cancelled_events(); });
  registry->AddCounterFn(prefix + ".cancelled_popped",
                         [sim] { return sim->cancelled_popped(); });
  registry->AddGauge(prefix + ".event_nodes_total",
                     [sim] { return static_cast<double>(sim->event_nodes_total()); });
  registry->AddGauge(prefix + ".event_nodes_free",
                     [sim] { return static_cast<double>(sim->event_nodes_free()); });
}

}  // namespace tas
