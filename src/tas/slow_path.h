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

  // Entries on the handshake/teardown list, including stale ones the next
  // scan drops.
  size_t pending_flows() const { return pending_.size(); }

  // The flow's state changed in a way that may bring its pending work
  // forward: its pending entry is visited at the next scan, whatever its due
  // time. Called by both paths (the fast path on an ACK of our FIN).
  void Wake(FlowId flow_id);

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
  // Puts the flow on the pending list, or wakes it if it is already there.
  void AddPending(FlowId flow_id, Flow& flow);
  // The earliest scan time at which ScanPending can find work for the flow
  // in its current state: when its handshake/FIN retransmission timer or
  // TIME_WAIT expires, or the next tick. ScanPending tests timer expiry with
  // it too. Any state change that brings work forward wakes the flow.
  TimeNs PendingDue(const Flow& flow, TimeNs now) const;
  void TrySendFin(FlowId flow_id, Flow& flow);

  void ControlLoop();
  void RunCongestionControl(FlowId flow_id, Flow& flow);
  // Visits the pending flows that are due or woken, in list order.
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
  // A flow in handshake or teardown, and when it is next due.
  struct PendingEntry {
    FlowId id;
    TimeNs due;
  };
  std::vector<PendingEntry> pending_;
  std::vector<PendingEntry> pending_keep_;  // ScanPending's survivors; swapped in.
  // Per slab slot: woken since its flow was last visited. Only a visit that
  // resolves to a live flow clears it, so a stale entry never eats the wake
  // of the slot's next flow.
  std::vector<uint8_t> woken_;
  std::vector<FlowId> dirty_scan_;    // ControlLoop's half of the dirty list.
  std::unique_ptr<PeriodicTask> cc_task_;
  std::unique_ptr<PeriodicTask> monitor_task_;
  std::vector<TimeNs> busy_snapshot_;
  uint64_t control_iterations_ = 0;
};

}  // namespace tas

#endif  // SRC_TAS_SLOW_PATH_H_
