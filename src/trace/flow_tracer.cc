#include "src/trace/flow_tracer.h"

#include "src/trace/flight_recorder.h"
#include "src/util/logging.h"

namespace tas {
namespace {

struct TypeInfo {
  const char* name;
  const char* a;
  const char* b;
  const char* c;
};

const TypeInfo& InfoFor(FlowEventType type) {
  static const TypeInfo kInfo[] = {
      {"conn_state", "state", "", ""},
      {"syn_tx", "is_synack", "", ""},
      {"syn_rx", "peer_isn", "", ""},
      {"fin_tx", "seq", "", ""},
      {"fin_rx", "seq", "", ""},
      {"rst_rx", "", "", ""},
      {"data_tx", "seq", "len", "tx_sent"},
      {"data_rx", "seq", "len", "delivered"},
      {"ack_tx", "ack", "ecn_echo", ""},
      {"ack_rx", "ack", "acked", "ece"},
      {"dup_ack", "count", "", ""},
      {"fast_retransmit", "rewind_seq", "", ""},
      {"timeout_retransmit", "rewind_seq", "stalled_intervals", ""},
      {"handshake_retransmit", "kind", "", ""},
      {"ooo_accept", "seq", "len", "interval_len"},
      {"ooo_drop", "seq", "len", ""},
      {"rx_buffer_drop", "seq", "len", ""},
      {"cc_update", "rate_or_cwnd", "ecn_ppm", "rtt_us"},
      {"proxy_request", "object_id", "request_id", "hit"},
      {"proxy_response", "request_id", "body_len", "path"},
  };
  const size_t index = static_cast<size_t>(type);
  TAS_CHECK(index < sizeof(kInfo) / sizeof(kInfo[0]));
  return kInfo[index];
}

}  // namespace

const char* FlowEventTypeName(FlowEventType type) { return InfoFor(type).name; }

void WriteFlowEventArgs(std::ostream& os, FlowEventType type, uint64_t a, uint64_t b,
                        uint64_t c) {
  const TypeInfo& info = InfoFor(type);
  if (info.a[0] != '\0') {
    os << ",\"" << info.a << "\":" << a;
  }
  if (info.b[0] != '\0') {
    os << ",\"" << info.b << "\":" << b;
  }
  if (info.c[0] != '\0') {
    os << ",\"" << info.c << "\":" << c;
  }
}

void FlowTracer::RecordSlow(TimeNs t, uint64_t flow, FlowEventType type, uint64_t a,
                            uint64_t b, uint64_t c) {
  const FlowEvent e{t, flow, type, a, b, c};
  if (recorder_tap_) {
    if (FlightRecorder* recorder = FlightRecorder::Current()) {
      recorder->RecordFlowEvent(e);
    }
  }
  if (!global_) {
    return;
  }
  bool evicted = false;
  FlowEvent& slot = ring_.Append(&evicted);
  if (evicted) {
    // Ring full: this write evicts the oldest record — charge ITS type.
    ++overwritten_by_type_[static_cast<size_t>(slot.type)];
  }
  slot = e;
}

std::vector<FlowEvent> FlowTracer::Events() const {
  std::vector<FlowEvent> out;
  out.reserve(ring_.size());
  ring_.ForEach([&out](const FlowEvent& e) { out.push_back(e); });
  return out;
}

void FlowTracer::WriteJsonl(std::ostream& os) const {
  ring_.ForEach([&os](const FlowEvent& e) {
    os << "{\"t\":" << e.t << ",\"flow\":" << e.flow << ",\"type\":\""
       << FlowEventTypeName(e.type) << '"';
    WriteFlowEventArgs(os, e.type, e.a, e.b, e.c);
    os << "}\n";
  });
}

}  // namespace tas
