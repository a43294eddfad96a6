// Bench-side span tracing for the traced benchmark run.
//
// TracedStack decorates one host's Stack: every call the application makes
// into the stack, and every callback the stack makes into the application,
// becomes a span (name, host-clock start/end, enclosing span, host, conn).
// Nothing inside src/ is instrumented; the decorator only adds host time, so
// simulated results are unchanged (tas_perfbench checks this by comparing the
// traced trial's fingerprint with the untraced one's).
//
// SpanLog aggregates self time online (self = duration - time covered by
// child spans) and keeps the measured window's first `max_kept` spans in
// memory; they are written out once, at exit.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/baseline/stack_iface.h"

namespace tas {
namespace perfbench {

// Layers a span can belong to. kLibtas/kBaseline are calls into a TAS or an
// engine (Linux/IX/mTCP model) stack; kApp is a callback into the application.
enum class SpanLayer : uint8_t { kLibtas = 0, kBaseline = 1, kApp = 2 };
inline constexpr int kNumSpanLayers = 3;
const char* SpanLayerName(SpanLayer layer);

// Names of the Stack calls and AppHandler callbacks the decorator records.
enum class SpanName : uint8_t {
  kListen = 0,
  kConnect,
  kSend,
  kRecv,
  kRecvAvailable,
  kSendSpace,
  kSplice,
  kClose,
  kChargeApp,
  kOnConnected,
  kOnAccepted,
  kOnData,
  kOnSendSpace,
  kOnRemoteClosed,
  kOnClosed,
};
inline constexpr int kNumSpanNames = 15;
const char* SpanNameString(SpanName name);

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  ConnId conn = kInvalidConn;
  int32_t parent = -1;  // Index of the enclosing kept span; -1 at top level.
  uint16_t host = 0;
  SpanLayer layer = SpanLayer::kApp;
  SpanName name = SpanName::kListen;
};

// Per (host, layer) totals.
struct SpanTotals {
  uint64_t count = 0;
  int64_t self_ns = 0;
};

class SpanLog {
 public:
  static constexpr int kMaxHosts = 16;

  explicit SpanLog(size_t max_kept = 1u << 16) : max_kept_(max_kept) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void Begin(uint16_t host, SpanLayer layer, SpanName name, ConnId conn) {
    Open open;
    open.kept = -1;
    if (kept_.size() < max_kept_) {
      open.kept = static_cast<int32_t>(kept_.size());
      Span& s = kept_.emplace_back();
      s.conn = conn;
      s.parent = stack_.empty() ? -1 : stack_.back().kept;
      s.host = host;
      s.layer = layer;
      s.name = name;
    }
    open.host = host;
    open.layer = layer;
    open.name = name;
    open.start_ns = HostNowNs();
    stack_.push_back(open);
  }

  void End() {
    const int64_t now = HostNowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = now - open.start_ns;
    const int64_t self = duration - open.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    SpanTotals& t = totals_[open.host < kMaxHosts ? open.host : kMaxHosts - 1]
                           [static_cast<int>(open.layer)];
    ++t.count;
    t.self_ns += self;
    if (open.kept >= 0) {
      kept_[open.kept].start_ns = open.start_ns;
      kept_[open.kept].end_ns = now;
    }
  }

  // Zeroes the totals and drops the kept spans. The benchmark resets at the
  // start of the measured window, between events (no span open), so both
  // cover exactly that window.
  void Reset();

  const SpanTotals& totals(uint16_t host, SpanLayer layer) const {
    return totals_[host < kMaxHosts ? host : kMaxHosts - 1][static_cast<int>(layer)];
  }
  const std::vector<Span>& kept() const { return kept_; }
  bool balanced() const { return stack_.empty(); }

  // One JSON object per kept span, times relative to the first span.
  void WriteJsonl(std::ostream& os) const;

 private:
  struct Open {
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int32_t kept = -1;
    uint16_t host = 0;
    SpanLayer layer = SpanLayer::kApp;
    SpanName name = SpanName::kListen;
  };

  size_t max_kept_;
  std::vector<Span> kept_;
  std::vector<Open> stack_;
  SpanTotals totals_[kMaxHosts][kNumSpanLayers] = {};
};

// Stack decorator recording one span per call and per application callback.
class TracedStack final : public Stack, private AppHandler {
 public:
  TracedStack(Stack* inner, SpanLog* log, uint16_t host, SpanLayer stack_layer)
      : inner_(inner), log_(log), host_(host), layer_(stack_layer) {}
  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  // Stack:
  void SetHandler(AppHandler* handler) override {
    app_ = handler;
    inner_->SetHandler(this);
  }
  void Listen(uint16_t port) override;
  ConnId Connect(IpAddr dst_ip, uint16_t dst_port) override;
  size_t Send(ConnId conn, const uint8_t* data, size_t len) override;
  size_t Recv(ConnId conn, uint8_t* data, size_t len) override;
  size_t RecvAvailable(ConnId conn) const override;
  size_t SendSpace(ConnId conn) const override;
  size_t Splice(ConnId from, ConnId to, size_t len) override;
  void Close(ConnId conn) override;
  void ChargeApp(ConnId conn, uint64_t cycles) override;
  IpAddr local_ip() const override { return inner_->local_ip(); }

 private:
  // AppHandler (the inner stack's view of the application):
  void OnConnected(ConnId conn, bool success) override;
  void OnAccepted(ConnId conn, uint16_t local_port) override;
  void OnData(ConnId conn, size_t bytes) override;
  void OnSendSpace(ConnId conn, size_t bytes) override;
  void OnRemoteClosed(ConnId conn) override;
  void OnClosed(ConnId conn) override;

  Stack* inner_;
  SpanLog* log_;
  AppHandler* app_ = nullptr;
  uint16_t host_;
  SpanLayer layer_;
};

// Host cost of one empty Begin/End pair, averaged over `iterations`.
double MeasureEmptySpanNs(uint64_t iterations);

}  // namespace perfbench
}  // namespace tas

#endif  // PERFBENCH_SPAN_TRACE_H_
