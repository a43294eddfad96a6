#include "src/tas/flow.h"

#include <algorithm>
#include <cstring>

#include "src/tcp/seq.h"
#include "src/util/logging.h"

namespace tas {

const char* ConnStateName(ConnState state) {
  switch (state) {
    case ConnState::kSynSent:
      return "SYN_SENT";
    case ConnState::kSynRcvd:
      return "SYN_RCVD";
    case ConnState::kEstablished:
      return "ESTABLISHED";
    case ConnState::kFinWait1:
      return "FIN_WAIT_1";
    case ConnState::kFinWait2:
      return "FIN_WAIT_2";
    case ConnState::kCloseWait:
      return "CLOSE_WAIT";
    case ConnState::kLastAck:
      return "LAST_ACK";
    case ConnState::kTimeWait:
      return "TIME_WAIT";
    case ConnState::kFreed:
      return "FREED";
  }
  return "?";
}

namespace {

// Copies len bytes to/from a ring at ring offset `at` (< size), split at the
// ring end.
void RingCopyIn(uint8_t* base, uint32_t size, uint32_t at, const uint8_t* src, uint32_t len) {
  const uint32_t first = std::min(len, size - at);
  std::memcpy(base + at, src, first);
  if (first < len) {
    std::memcpy(base, src + first, len - first);
  }
}

void RingCopyOut(const uint8_t* base, uint32_t size, uint32_t at, uint8_t* dst, uint32_t len) {
  const uint32_t first = std::min(len, size - at);
  std::memcpy(dst, base + at, first);
  if (first < len) {
    std::memcpy(dst + first, base, len - first);
  }
}

// Zeroes what a flow wrote into a ring: the first `used` bytes past the
// anchor, or the whole ring once it has wrapped.
void RingScrub(uint8_t* base, uint32_t size, uint32_t used, bool wrapped) {
  if (base != nullptr) {
    std::memset(base, 0, wrapped ? size : std::min(used, size));
  }
}

}  // namespace

void FlowCold::Reset() {
  cc.reset();
  wcc.reset();
  last_seq_sampled = 0;
  stalled_intervals = 0;
  fin_received = false;
  fin_sent = false;
  app_closed = false;
  fin_event_sent = false;
  closed_event_sent = false;
  in_pending = false;
  ctrl_retries = 0;
  last_ctrl_send = 0;
  timewait_start = 0;
  established_at = 0;
}

FlowCold& Flow::EnsureCold() {
  owned_cold_ = std::make_unique<FlowCold>();
  cold_ptr_ = owned_cold_.get();
  return *cold_ptr_;
}

void Flow::AnchorRx(uint32_t pos) {
  fs.ack = pos;
  fs.rx_head = pos;
  fs.rx_tail = pos;
  rx_anchor = pos;
}

void Flow::AnchorTx(uint32_t pos) {
  fs.seq = pos;
  fs.tx_head = pos;
  fs.tx_tail = pos;
  fs.tx_sent = 0;
  tx_anchor = pos;
}

void Flow::Reset() {
  // Every rx write is in order (ending at or before rx_head) or inside the
  // out-of-order interval, which only grows until the gap closes; every tx
  // write is an app append ending at tx_head. Until a ring wraps, each lies
  // less than one ring size past rx_tail / tx_tail, so the 32-bit distances
  // from the anchors are exact.
  uint32_t rx_end = fs.rx_head;
  const uint32_t ooo_end = fs.ooo_start + fs.ooo_len;
  if (fs.ooo_len > 0 && SeqGt(ooo_end, rx_end)) {
    rx_end = ooo_end;
  }
  RingScrub(fs.rx_base, fs.rx_size, rx_end - rx_anchor, rx_wrapped);
  RingScrub(fs.tx_base, fs.tx_size, fs.tx_head - tx_anchor, tx_wrapped);
  if (cold_ptr_ != nullptr) {
    cold_ptr_->Reset();
  }
  fs = FlowState{};
  mss = 1448;
  peer_wscale = 0;
  ts_echo = 0;
  rate_bps = 10e6;
  cc_window = 0;
  tx_tokens = 0;
  tokens_updated = 0;
  next_tx_time = 0;
  tx_pending = false;
  in_dirty = false;
  fin_acked = false;
  rx_wrapped = false;
  tx_wrapped = false;
  cstate = ConnState::kSynSent;
  rx_anchor = 0;
  tx_anchor = 0;
}

void Flow::CopyIntoRx(uint32_t wire_pos, const uint8_t* src, uint32_t len) {
  if (len == 0) {
    return;
  }
  RingCopyIn(fs.rx_base, fs.rx_size, (wire_pos - rx_anchor) % fs.rx_size, src, len);
}

void Flow::CopyFromTx(uint32_t wire_pos, uint8_t* dst, uint32_t len) const {
  if (len == 0) {
    return;
  }
  RingCopyOut(fs.tx_base, fs.tx_size, (wire_pos - tx_anchor) % fs.tx_size, dst, len);
}

uint32_t Flow::AppWriteTx(const uint8_t* src, uint32_t len) {
  const uint32_t free_space = fs.tx_size - TxQueued();
  const uint32_t n = std::min(len, free_space);
  if (n == 0) {
    return 0;
  }
  const uint32_t at = fs.tx_head - tx_anchor;
  RingCopyIn(fs.tx_base, fs.tx_size, at % fs.tx_size, src, n);
  fs.tx_head += n;
  tx_wrapped = tx_wrapped || at + n >= fs.tx_size;
  return n;
}

uint32_t Flow::AppReadRx(uint8_t* dst, uint32_t len) {
  const uint32_t n = std::min(len, RxUsed());
  if (n == 0) {
    return 0;
  }
  const uint32_t at = fs.rx_tail - rx_anchor;
  RingCopyOut(fs.rx_base, fs.rx_size, at % fs.rx_size, dst, n);
  fs.rx_tail += n;
  rx_wrapped = rx_wrapped || at + n >= fs.rx_size;
  return n;
}

}  // namespace tas
