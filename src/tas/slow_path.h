// The TAS slow path (paper §3.2): connection control (full TCP handshake and
// teardown), the congestion-control policy loop, retransmission timeouts,
// the TCP-stack/context registry, and the workload-proportionality core
// monitor (§3.4). Runs on its own (partially used) core; the fast path
// forwards everything non-common-case here as exceptions.
#ifndef SRC_TAS_SLOW_PATH_H_
#define SRC_TAS_SLOW_PATH_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/tas/flow.h"
#include "src/tas/service.h"

namespace tas {

class SlowPath {
 public:
  SlowPath(TasService* service, Core* cpu);
  ~SlowPath();

  // Starts the periodic congestion-control loop and the core monitor.
  void Start();

  Core* cpu() { return cpu_; }

  // --- Fast path hand-off ----------------------------------------------------
  // `known_flow`: the fast path's flow lookup found the segment's flow.
  // Exceptions are served in two classes by one dispatcher: segments of
  // flows the host already holds first, new SYNs and segments for unknown
  // flows only when no known-flow segment waits. A SYN burst or a flood of
  // stale segments then delays only new admissions, never the handshakes
  // and teardowns of admitted connections.
  void EnqueueException(PacketPtr pkt, bool known_flow);

  // Exception-queue depth right now (both classes), and the deepest it has
  // ever been. The watchdog's slow-path overload SLO reads the depth each
  // check; the high-water mark lands in diagnostic bundles.
  size_t exception_depth() const { return known_exceptions_.size() + new_exceptions_.size(); }
  uint64_t exception_depth_hw() const { return exception_depth_hw_; }

  // --- Commands from libTAS (via TasService) ---------------------------------
  void CmdListen(uint16_t port, uint64_t opaque, uint16_t context);
  void CmdConnect(FlowId flow_id);
  void CmdClose(FlowId flow_id);

  uint64_t control_iterations() const { return control_iterations_; }

 private:
  struct Listener {
    uint64_t opaque = 0;
    uint16_t context = 0;
  };

  // The exception dispatcher: MaybeProcess reserves the next exception's
  // slot on the core; ServeNext picks its packet (known flows first) when
  // the slot starts and handles it when the slot ends at `done`.
  void MaybeProcess();
  void ServeNext(TimeNs done);
  void HandleException(PacketPtr pkt);
  void HandleSyn(const Packet& pkt);
  // Returns true if the packet should be re-injected into the fast path
  // (it carried payload and the flow is now established).
  bool HandleFlowPacket(FlowId flow_id, Flow& flow, const Packet& pkt);
  void HandleFin(FlowId flow_id, Flow& flow, const Packet& pkt);

  void SendSyn(Flow& flow);
  void SendSynAck(Flow& flow);
  void SendFin(Flow& flow);
  void SendControlAck(Flow& flow);
  void Establish(FlowId flow_id, Flow& flow, bool from_listener);
  // Half-close notification (kConnFin): the peer's receive direction ended
  // but ours may keep transmitting. Terminal kConnClosed still follows from
  // NotifyClosed when the flow is released.
  void NotifyRemoteClosed(Flow& flow);
  void NotifyClosed(Flow& flow);
  void ReleaseFlow(FlowId flow_id, Flow& flow);
  void AddPending(FlowId flow_id, Flow& flow);
  void TrySendFin(FlowId flow_id, Flow& flow);

  void ControlLoop();
  void RunCongestionControl(FlowId flow_id, Flow& flow);
  void ScanPending();
  void MonitorCores();

  // Records a kConnState flow event for the flow's current state.
  void TraceState(FlowId flow_id, const Flow& flow);

  TasService* service_;
  Core* cpu_;
  std::deque<PacketPtr> known_exceptions_;  // Segments of flows we hold.
  std::deque<PacketPtr> new_exceptions_;    // New SYNs, unknown flows.
  uint64_t exception_depth_hw_ = 0;
  bool busy_ = false;
  std::unordered_map<uint16_t, Listener> listeners_;
  std::vector<FlowId> pending_;  // Flows in handshake or teardown.
  std::vector<FlowId> pending_keep_;  // ScanPending's survivors; swapped in.
  std::vector<FlowId> dirty_scan_;    // ControlLoop's half of the dirty list.
  std::unique_ptr<PeriodicTask> cc_task_;
  std::unique_ptr<PeriodicTask> monitor_task_;
  std::vector<TimeNs> busy_snapshot_;
  uint64_t control_iterations_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_SLOW_PATH_H_
