#include "src/trace/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/trace/causal.h"
#include "src/trace/metric_registry.h"
#include "src/trace/tracer.h"
#include "src/util/logging.h"

namespace tas {
namespace {

// Recorder tracks sit above the flow tracks of the full-trace bundle
// (kFlowTrackBase = 1<<20 there); one track per stream, the trigger's own
// track just below them.
constexpr uint64_t kStreamTrackBase = 1u << 22;

uint64_t StreamTrack(RecorderStream stream) {
  return kStreamTrackBase + static_cast<uint64_t>(stream);
}

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kE2eLatencyP99:
      return "e2e_latency_p99";
    case SloKind::kRetransmitRate:
      return "retransmit_rate";
    case SloKind::kSlowPathQueueDepth:
      return "slowpath_queue_depth";
    case SloKind::kFlowTableProbeP99:
      return "flow_table_probe_p99";
    case SloKind::kCoreImbalance:
      return "core_imbalance";
    case SloKind::kMetricValue:
      return "metric_value";
  }
  return "?";
}

const char* RecorderStreamName(RecorderStream stream) {
  switch (stream) {
    case RecorderStream::kFlow:
      return "flow";
    case RecorderStream::kLatency:
      return "latency";
    case RecorderStream::kCausal:
      return "causal";
    case RecorderStream::kSlo:
      return "slo";
  }
  return "?";
}

std::vector<SloSpec> DefaultSlos() {
  // Conservative: a healthy run (perf_smoke's clean RPC workload, the churn
  // bench's steady state) stays far below every threshold; CI hard-fails on
  // a false positive, so these err loose. Chaos/bench scenarios that want
  // sharp triggers set explicit specs.
  std::vector<SloSpec> slos;
  slos.push_back({"e2e_p99", SloKind::kE2eLatencyP99,
                  static_cast<double>(Ms(50)), 3, 64, ""});
  slos.push_back({"retransmit_rate", SloKind::kRetransmitRate, 1000.0, 3, 0, ""});
  slos.push_back({"slowpath_queue_depth", SloKind::kSlowPathQueueDepth, 128.0, 3, 0, ""});
  slos.push_back({"flow_table_probe_p99", SloKind::kFlowTableProbeP99, 64.0, 3, 64, ""});
  slos.push_back({"core_imbalance", SloKind::kCoreImbalance, 16.0, 3,
                  static_cast<uint64_t>(Us(100)), ""});
  return slos;
}

FlightRecorder::FlightRecorder(const WatchdogConfig& config)
    : config_(config),
      streams_{Ring<RecorderRecord>(kRecorderRingCapacity[0]),
               Ring<RecorderRecord>(kRecorderRingCapacity[1]),
               Ring<RecorderRecord>(kRecorderRingCapacity[2]),
               Ring<RecorderRecord>(kRecorderRingCapacity[3])} {}

void FlightRecorder::Append(RecorderStream stream, RecorderRecord rec) {
  rec.seq = next_seq_++;
  rec.stream = stream;
  streams_[static_cast<size_t>(stream)].Append() = rec;
}

void FlightRecorder::RecordFlowEvent(const FlowEvent& e) {
  RecorderRecord rec;
  rec.t = e.t;
  rec.type = static_cast<uint8_t>(e.type);
  rec.a = e.flow;
  rec.b = e.a;
  rec.c = e.b;
  rec.d = e.c;
  Append(RecorderStream::kFlow, rec);
}

void FlightRecorder::RecordLatency(TimeNs t, uint64_t e2e_ns, uint64_t queue_ns,
                                   uint64_t service_ns) {
  RecorderRecord rec;
  rec.t = t;
  rec.a = e2e_ns;
  rec.b = queue_ns;
  rec.c = service_ns;
  Append(RecorderStream::kLatency, rec);
}

void FlightRecorder::RecordCausal(TimeNs t, uint64_t trace_id, uint8_t request_class,
                                  uint64_t e2e_ns) {
  RecorderRecord rec;
  rec.t = t;
  rec.type = request_class;
  rec.a = trace_id;
  rec.b = e2e_ns;
  Append(RecorderStream::kCausal, rec);
}

void FlightRecorder::RecordSlo(TimeNs t, SloKind kind, double measured, bool breached) {
  RecorderRecord rec;
  rec.t = t;
  rec.type = static_cast<uint8_t>(kind);
  rec.a = breached ? 1 : 0;
  rec.v = measured;
  Append(RecorderStream::kSlo, rec);
}

std::vector<RecorderRecord> FlightRecorder::CaptureWindow(TimeNs from, TimeNs to) const {
  std::vector<RecorderRecord> out;
  for (const Ring<RecorderRecord>& ring : streams_) {
    ring.ForEach([&](const RecorderRecord& rec) {
      if (rec.t >= from && rec.t <= to) {
        out.push_back(rec);
      }
    });
  }
  std::sort(out.begin(), out.end(), [](const RecorderRecord& x, const RecorderRecord& y) {
    if (x.t != y.t) return x.t < y.t;
    return x.seq < y.seq;
  });
  return out;
}

void FlightRecorder::Trigger(SloTrigger trigger,
                             const std::function<std::string()>& context_json) {
  const bool write = !config_.bundle_prefix.empty() && bundles_written_ < kMaxBundles;
  trigger.bundle = write ? bundles_written_ : -1;
  if (write) {
    const std::vector<RecorderRecord> records =
        CaptureWindow(trigger.window_from, trigger.window_to);
    const std::string base =
        config_.bundle_prefix + ".bundle" + std::to_string(bundles_written_);
    {
      std::ofstream os(base + ".json");
      os << "{\"trigger\":" << SloTriggerToJson(trigger)
         << ",\"records\":" << records.size() << ",\"context\":"
         << (context_json ? context_json() : std::string("{}")) << "}\n";
    }
    {
      std::ofstream os(base + ".jsonl");
      WriteBundleJsonl(records, os);
    }
    {
      std::ofstream os(base + ".perfetto.json");
      WriteBundlePerfetto(trigger, records, os);
    }
    ++bundles_written_;
    TAS_LOG(INFO) << "watchdog breach '" << trigger.slo << "' at t=" << trigger.t
                  << "ns: wrote " << base << ".{json,jsonl,perfetto.json} ("
                  << records.size() << " records)";
  }
  triggers_.push_back(std::move(trigger));
}

void FlightRecorder::WriteBundleJsonl(const std::vector<RecorderRecord>& records,
                                      std::ostream& os) const {
  for (const RecorderRecord& rec : records) {
    // "append_seq", not "seq": flow records carry a wire "seq" argument.
    os << "{\"t\":" << rec.t << ",\"append_seq\":" << rec.seq
       << ",\"stream\":\"" << RecorderStreamName(rec.stream) << '"';
    switch (rec.stream) {
      case RecorderStream::kFlow: {
        const auto type = static_cast<FlowEventType>(rec.type);
        os << ",\"type\":\"" << FlowEventTypeName(type) << "\",\"flow\":" << rec.a;
        WriteFlowEventArgs(os, type, rec.b, rec.c, rec.d);
        break;
      }
      case RecorderStream::kLatency:
        os << ",\"e2e_ns\":" << rec.a << ",\"queue_ns\":" << rec.b
           << ",\"service_ns\":" << rec.c;
        break;
      case RecorderStream::kCausal:
        os << ",\"class\":\"" << RequestClassName(static_cast<RequestClass>(rec.type))
           << "\",\"trace\":" << rec.a << ",\"e2e_ns\":" << rec.b;
        break;
      case RecorderStream::kSlo:
        os << ",\"slo\":\"" << SloKindName(static_cast<SloKind>(rec.type))
           << "\",\"measured\":" << JsonNumber(rec.v) << ",\"breached\":" << rec.a;
        break;
    }
    os << "}\n";
  }
}

void FlightRecorder::WriteBundlePerfetto(const SloTrigger& trigger,
                                         const std::vector<RecorderRecord>& records,
                                         std::ostream& os) const {
  TraceEventWriter w(os, "flight-recorder");
  // Name one track per stream that actually has records.
  std::array<bool, kNumRecorderStreams> named{};
  for (const RecorderRecord& rec : records) {
    if (!named[static_cast<size_t>(rec.stream)]) {
      named[static_cast<size_t>(rec.stream)] = true;
      w.ThreadName(StreamTrack(rec.stream), RecorderStreamName(rec.stream));
    }
  }
  // The evidence window as one span on the trigger's own track, so the
  // breach context frames everything else.
  w.Next() << "{\"name\":\"" << trigger.slo << "\",\"cat\":\"slo\",\"ph\":\"X\",\"ts\":"
           << TsUs(trigger.window_from) << ",\"dur\":"
           << TsUs(trigger.window_to - trigger.window_from) << ",\"pid\":" << kTracePid
           << ",\"tid\":" << kStreamTrackBase - 1 << ",\"args\":{\"measured\":"
           << JsonNumber(trigger.measured) << ",\"threshold\":" << JsonNumber(trigger.threshold)
           << "}}";
  w.ThreadName(kStreamTrackBase - 1, "slo-trigger");
  for (const RecorderRecord& rec : records) {
    const uint64_t track = StreamTrack(rec.stream);
    switch (rec.stream) {
      case RecorderStream::kFlow:
        w.Next() << "{\"name\":\"" << FlowEventTypeName(static_cast<FlowEventType>(rec.type))
                 << "\",\"cat\":\"flow\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(rec.t)
                 << ",\"pid\":" << kTracePid << ",\"tid\":" << track
                 << ",\"args\":{\"flow\":" << rec.a << "}}";
        break;
      case RecorderStream::kLatency:
        // Packet e2e latency as a counter track (µs).
        w.Next() << "{\"name\":\"e2e_us\",\"cat\":\"latency\",\"ph\":\"C\",\"ts\":"
                 << TsUs(rec.t) << ",\"pid\":" << kTracePid << ",\"tid\":" << track
                 << ",\"args\":{\"e2e_us\":" << JsonNumber(static_cast<double>(rec.a) / 1000.0)
                 << "}}";
        break;
      case RecorderStream::kCausal:
        w.Next() << "{\"name\":\"" << RequestClassName(static_cast<RequestClass>(rec.type))
                 << "\",\"cat\":\"causal\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << TsUs(rec.t)
                 << ",\"pid\":" << kTracePid << ",\"tid\":" << track
                 << ",\"args\":{\"e2e_us\":" << JsonNumber(static_cast<double>(rec.b) / 1000.0)
                 << "}}";
        break;
      case RecorderStream::kSlo:
        w.Next() << "{\"name\":\"" << SloKindName(static_cast<SloKind>(rec.type))
                 << "\",\"cat\":\"slo\",\"ph\":\"C\",\"ts\":" << TsUs(rec.t)
                 << ",\"pid\":" << kTracePid << ",\"tid\":" << track
                 << ",\"args\":{\"measured\":" << JsonNumber(rec.v) << "}}";
        break;
    }
  }
  w.Close("}\n");
}

std::string SloTriggerToJson(const SloTrigger& trigger) {
  std::ostringstream os;
  os << "{\"slo\":";
  JsonEscape(trigger.slo, os);
  os << ",\"kind\":\"" << SloKindName(trigger.kind) << "\",\"measured\":"
     << JsonNumber(trigger.measured) << ",\"threshold\":" << JsonNumber(trigger.threshold)
     << ",\"burn_windows\":" << trigger.burn_windows << ",\"t\":" << trigger.t
     << ",\"window_from\":" << trigger.window_from << ",\"window_to\":" << trigger.window_to
     << ",\"source\":";
  JsonEscape(trigger.source, os);
  os << ",\"bundle\":" << trigger.bundle << "}";
  return os.str();
}

}  // namespace tas
