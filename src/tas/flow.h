// Runtime flow record, split hot/cold for million-flow cache residency
// (paper §3.1, Table 3): `Flow` is the compact record the fast path touches
// per packet — the packed FlowState, negotiated parameters, transmit pacing
// and the ring anchors — while `FlowCold` holds everything only the slow
// path or libTAS setup/teardown touches: the congestion-control instance and
// the connection-FSM bookkeeping. FlowSlab stores the two in parallel arrays,
// wires each Flow to its side record and to its payload rings; a standalone
// Flow (tests, ad-hoc use) lazily owns a side record and points fs.rx_base /
// fs.tx_base at caller-owned memory.
#ifndef SRC_TAS_FLOW_H_
#define SRC_TAS_FLOW_H_

#include <algorithm>
#include <memory>

#include "src/cc/cc.h"
#include "src/cc/dctcp_window.h"
#include "src/tas/flow_state.h"
#include "src/util/time.h"

namespace tas {

// Connection FSM, owned by the slow path. The fast path serves the data and
// ACKs of the states Flow::FastPathEligible admits (DESIGN.md §4 has the
// table); packets in any other state, and every SYN/FIN/RST, are exceptions
// (paper §3.1).
enum class ConnState : uint8_t {
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,   // Our FIN sent, not acked.
  kFinWait2,   // Our FIN acked, waiting for peer FIN.
  kCloseWait,  // Peer FIN consumed, app has not closed yet.
  kLastAck,    // Peer closed first, our FIN sent.
  kTimeWait,
  kFreed,
};

// Cold slow-path side record. Nothing here is read on the fast-path
// per-packet path; keeping it out of Flow keeps the hot array dense. The
// payload rings are not here: FlowSlab owns them (flow_table.h).
struct FlowCold {
  std::unique_ptr<RateCc> cc;     // Rate mode policy...
  std::unique_ptr<WindowCc> wcc;  // ...or window mode policy.
  uint32_t last_seq_sampled = 0;  // RTO detection: seq unchanged across
  int stalled_intervals = 0;      // control intervals with data outstanding.
  bool fin_received = false;      // Peer FIN consumed (ack covers it).
  bool fin_sent = false;
  bool app_closed = false;        // App requested close.
  bool fin_event_sent = false;    // kConnFin (half-close) pushed to the app.
  bool closed_event_sent = false;
  bool in_pending = false;        // On the handshake/teardown scan list.
  int ctrl_retries = 0;           // Handshake / FIN retransmission count.
  TimeNs last_ctrl_send = 0;
  TimeNs timewait_start = 0;
  TimeNs established_at = 0;

  // Returns to freshly-constructed state without freeing anything it can
  // keep, so recycling a slab slot is allocation-free.
  void Reset();
};

struct Flow {
  FlowState fs;

  // Negotiated TCP parameters (slow path writes once at setup).
  uint16_t mss = 1448;
  uint8_t peer_wscale = 0;
  uint32_t ts_echo = 0;  // Peer ts_val to echo (fast path updates).

  // --- Fast-path transmit scheduling ---------------------------------------
  // Rate enforcement via the per-flow bucket (paper §3.1): credit accrues at
  // rate_bps while the flow is idle, capped at a small burst, so an RPC
  // response is never delayed behind a stale pacing gap.
  double rate_bps = 10e6;       // Enforced rate (slow path sets).
  uint64_t cc_window = 0;       // Window-mode limit; 0 = rate mode.
  double tx_tokens = 0;         // Bucket fill, in bytes.
  TimeNs tokens_updated = 0;
  TimeNs next_tx_time = 0;      // Earliest next segment (bucket refill time).
  bool tx_pending = false;      // Work queued or pacing timer armed.
  bool in_dirty = false;        // Queued for the next CC iteration.
  // Our FIN has been acknowledged (RecordFinAck); the slow path turns it
  // into kFinWait2/kTimeWait. Hot so the fast path never reads FlowCold.
  bool fin_acked = false;
  // Sticky: libTAS moved rx_tail / tx_head at least one ring size past the
  // anchor, so any ring byte may hold payload and Reset zeroes the whole
  // ring. Each move is at most one ring size, so the crossing cannot be
  // skipped, and the bit stays exact after positions wrap at 4 GiB.
  bool rx_wrapped = false;
  bool tx_wrapped = false;
  ConnState cstate = ConnState::kSynSent;
  // First wire position of each ring (AnchorRx/AnchorTx). The byte at wire
  // position `pos` lives at ring offset (pos - anchor) mod size, so a flow's
  // first byte lands at offset 0 and a short flow touches only the first
  // page of each ring. Hot because every payload copy indexes with them.
  uint32_t rx_anchor = 0;
  uint32_t tx_anchor = 0;

  // Refreshes the bucket to `now` and returns the available byte credit.
  double RefillTokens(TimeNs now, double burst_bytes) {
    const double delta = static_cast<double>(now - tokens_updated);
    tx_tokens = std::min(burst_bytes, tx_tokens + rate_bps / 8e9 * delta);
    tokens_updated = now;
    return tx_tokens;
  }

  // --- Cold side record -----------------------------------------------------
  // Slab-resident flows are bound to their chunk's parallel FlowCold array;
  // a standalone Flow allocates an owned record on first access.
  FlowCold& cold() { return cold_ptr_ != nullptr ? *cold_ptr_ : EnsureCold(); }
  const FlowCold& cold() const { return const_cast<Flow*>(this)->cold(); }
  void BindCold(FlowCold* cold_record) { cold_ptr_ = cold_record; }

  // A FIN ends one direction only, so the fast path keeps serving the open
  // one: kCloseWait (peer's FIN consumed) still transmits, and kFinWait1/2
  // (our FIN sent) still receive. Either way the remaining stream is the
  // established-flow common case.
  bool FastPathEligible() const {
    return cstate == ConnState::kEstablished || cstate == ConnState::kCloseWait ||
           FinSentOnFastPath();
  }
  // Our FIN is out and the flow is still fast-path eligible: nothing more may
  // be transmitted, and every ACK carries seq + 1 to cover the FIN.
  bool FinSentOnFastPath() const {
    return cstate == ConnState::kFinWait1 || cstate == ConnState::kFinWait2;
  }
  // Called by whichever path sees an ACK: in kFinWait1, an ACK of exactly
  // seq + 1 acknowledges our FIN. Returns whether it did.
  bool RecordFinAck(uint32_t ack) {
    if (cstate != ConnState::kFinWait1 || ack != fs.seq + 1) {
      return false;
    }
    fin_acked = true;
    return true;
  }

  // Anchor a ring at its first wire position (the byte after the SYN): rx at
  // irs+1 (also rcv_nxt), tx at iss+1 (also the next byte to send). Called
  // before the ring holds any byte.
  void AnchorRx(uint32_t pos);
  void AnchorTx(uint32_t pos);

  // Returns the record (hot fields and the bound cold record) to
  // freshly-constructed state; allocation-free for slab-resident flows.
  // First zeroes the ring bytes the flow wrote, so a free slot's rings are
  // all zero and the next flow never sees this one's payload. The written
  // bytes start at ring offset 0, so the cost is the bytes written (at most
  // the ring size), not the ring size. Clears fs, rx_base/tx_base included.
  void Reset();

  // --- Buffer arithmetic (all positions are free-running wire sequences) ---
  uint32_t RxUsed() const { return fs.rx_head - fs.rx_tail; }
  uint32_t RxFree() const { return fs.rx_size - RxUsed(); }
  uint32_t TxQueued() const { return fs.tx_head - fs.tx_tail; }
  // Bytes written by the app but not yet sent.
  uint32_t TxAvailable() const { return fs.tx_head - (fs.tx_tail + fs.tx_sent); }

  void CopyIntoRx(uint32_t wire_pos, const uint8_t* src, uint32_t len);
  void CopyFromTx(uint32_t wire_pos, uint8_t* dst, uint32_t len) const;
  // libTAS side: append payload at tx_head / read payload at rx_tail.
  uint32_t AppWriteTx(const uint8_t* src, uint32_t len);
  uint32_t AppReadRx(uint8_t* dst, uint32_t len);

 private:
  FlowCold& EnsureCold();

  FlowCold* cold_ptr_ = nullptr;          // Slab-bound side record, if any.
  std::unique_ptr<FlowCold> owned_cold_;  // Standalone-Flow fallback.
};

const char* ConnStateName(ConnState state);

}  // namespace tas

#endif  // SRC_TAS_FLOW_H_
