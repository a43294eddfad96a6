#include "perfbench/span_trace.h"

namespace tas {
namespace perfbench {

const char* SpanLayerName(SpanLayer layer) {
  switch (layer) {
    case SpanLayer::kLibtas:
      return "libtas";
    case SpanLayer::kBaseline:
      return "baseline";
    case SpanLayer::kApp:
      return "app";
  }
  return "?";
}

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "Listen",       "Connect",     "Send",        "Recv",           "RecvAvailable",
      "SendSpace",    "Splice",      "Close",       "ChargeApp",      "OnConnected",
      "OnAccepted",   "OnData",      "OnSendSpace", "OnRemoteClosed", "OnClosed",
  };
  const int i = static_cast<int>(name);
  return i < kNumSpanNames ? kNames[i] : "?";
}

void SpanLog::Reset() {
  kept_.clear();
  for (auto& host : totals_) {
    for (SpanTotals& t : host) {
      t = SpanTotals{};
    }
  }
}

void SpanLog::WriteJsonl(std::ostream& os) const {
  const int64_t base = kept_.empty() ? 0 : kept_.front().start_ns;
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    os << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"host\":" << s.host
       << ",\"layer\":\"" << SpanLayerName(s.layer) << "\",\"name\":\""
       << SpanNameString(s.name) << "\",\"conn\":"
       << (s.conn == kInvalidConn ? -1 : static_cast<int64_t>(s.conn))
       << ",\"start_ns\":" << s.start_ns - base << ",\"end_ns\":" << s.end_ns - base << "}\n";
  }
}

namespace {

// RAII span: Begin on construction, End on scope exit.
class Scope {
 public:
  Scope(SpanLog* log, uint16_t host, SpanLayer layer, SpanName name, ConnId conn) : log_(log) {
    log_->Begin(host, layer, name, conn);
  }
  ~Scope() { log_->End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace

void TracedStack::Listen(uint16_t port) {
  Scope s(log_, host_, layer_, SpanName::kListen, kInvalidConn);
  inner_->Listen(port);
}

ConnId TracedStack::Connect(IpAddr dst_ip, uint16_t dst_port) {
  Scope s(log_, host_, layer_, SpanName::kConnect, kInvalidConn);
  return inner_->Connect(dst_ip, dst_port);
}

size_t TracedStack::Send(ConnId conn, const uint8_t* data, size_t len) {
  Scope s(log_, host_, layer_, SpanName::kSend, conn);
  return inner_->Send(conn, data, len);
}

size_t TracedStack::Recv(ConnId conn, uint8_t* data, size_t len) {
  Scope s(log_, host_, layer_, SpanName::kRecv, conn);
  return inner_->Recv(conn, data, len);
}

size_t TracedStack::RecvAvailable(ConnId conn) const {
  Scope s(log_, host_, layer_, SpanName::kRecvAvailable, conn);
  return inner_->RecvAvailable(conn);
}

size_t TracedStack::SendSpace(ConnId conn) const {
  Scope s(log_, host_, layer_, SpanName::kSendSpace, conn);
  return inner_->SendSpace(conn);
}

size_t TracedStack::Splice(ConnId from, ConnId to, size_t len) {
  Scope s(log_, host_, layer_, SpanName::kSplice, to);
  return inner_->Splice(from, to, len);
}

void TracedStack::Close(ConnId conn) {
  Scope s(log_, host_, layer_, SpanName::kClose, conn);
  inner_->Close(conn);
}

void TracedStack::ChargeApp(ConnId conn, uint64_t cycles) {
  Scope s(log_, host_, layer_, SpanName::kChargeApp, conn);
  inner_->ChargeApp(conn, cycles);
}

void TracedStack::OnConnected(ConnId conn, bool success) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnConnected, conn);
  app_->OnConnected(conn, success);
}

void TracedStack::OnAccepted(ConnId conn, uint16_t local_port) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnAccepted, conn);
  app_->OnAccepted(conn, local_port);
}

void TracedStack::OnData(ConnId conn, size_t bytes) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnData, conn);
  app_->OnData(conn, bytes);
}

void TracedStack::OnSendSpace(ConnId conn, size_t bytes) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnSendSpace, conn);
  app_->OnSendSpace(conn, bytes);
}

void TracedStack::OnRemoteClosed(ConnId conn) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnRemoteClosed, conn);
  app_->OnRemoteClosed(conn);
}

void TracedStack::OnClosed(ConnId conn) {
  Scope s(log_, host_, SpanLayer::kApp, SpanName::kOnClosed, conn);
  app_->OnClosed(conn);
}

double MeasureEmptySpanNs(uint64_t iterations) {
  SpanLog log(/*max_kept=*/0);
  const int64_t start = HostNowNs();
  for (uint64_t i = 0; i < iterations; ++i) {
    log.Begin(0, SpanLayer::kApp, SpanName::kOnData, i);
    log.End();
  }
  const int64_t end = HostNowNs();
  return iterations == 0 ? 0 : static_cast<double>(end - start) / static_cast<double>(iterations);
}

}  // namespace perfbench
}  // namespace tas
