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

// Copies len bytes to/from a ring at a free-running position.
void RingCopyIn(uint8_t* base, uint32_t size, uint32_t pos, const uint8_t* src, uint32_t len) {
  const uint32_t at = pos % size;
  const uint32_t first = std::min(len, size - at);
  std::memcpy(base + at, src, first);
  if (first < len) {
    std::memcpy(base, src + first, len - first);
  }
}

void RingCopyOut(const uint8_t* base, uint32_t size, uint32_t pos, uint8_t* dst, uint32_t len) {
  const uint32_t at = pos % size;
  const uint32_t first = std::min(len, size - at);
  std::memcpy(dst, base + at, first);
  if (first < len) {
    std::memcpy(dst + first, base, len - first);
  }
}

// Zeroes the ring bytes at free-running positions [from, to), capped at the
// ring size and split at the wrap.
void RingZero(uint8_t* base, uint32_t size, uint32_t from, uint32_t to) {
  const uint32_t len = std::min(to - from, size);
  if (len == 0) {
    return;
  }
  const uint32_t at = from % size;
  const uint32_t first = std::min(len, size - at);
  std::memset(base + at, 0, first);
  if (first < len) {
    std::memset(base, 0, len - first);
  }
}

}  // namespace

void FlowCold::Reset() {
  rx_start = 0;
  tx_start = 0;
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
  cold().rx_start = pos;
}

void Flow::AnchorTx(uint32_t pos) {
  fs.seq = pos;
  fs.tx_head = pos;
  fs.tx_tail = pos;
  fs.tx_sent = 0;
  cold().tx_start = pos;
}

void Flow::Reset() {
  if (cold_ptr_ != nullptr) {
    // Every rx write is in order (ending at or before rx_head) or inside the
    // out-of-order interval, which only grows until the gap closes; every tx
    // write is an app append ending at tx_head.
    uint32_t rx_end = fs.rx_head;
    const uint32_t ooo_end = fs.ooo_start + fs.ooo_len;
    if (fs.ooo_len > 0 && SeqGt(ooo_end, rx_end)) {
      rx_end = ooo_end;
    }
    RingZero(fs.rx_base, fs.rx_size, cold_ptr_->rx_start, rx_end);
    RingZero(fs.tx_base, fs.tx_size, cold_ptr_->tx_start, fs.tx_head);
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
  cstate = ConnState::kSynSent;
}

void Flow::CopyIntoRx(uint32_t wire_pos, const uint8_t* src, uint32_t len) {
  if (len == 0) {
    return;
  }
  RingCopyIn(fs.rx_base, fs.rx_size, wire_pos, src, len);
}

void Flow::CopyFromTx(uint32_t wire_pos, uint8_t* dst, uint32_t len) const {
  if (len == 0) {
    return;
  }
  RingCopyOut(fs.tx_base, fs.tx_size, wire_pos, dst, len);
}

uint32_t Flow::AppWriteTx(const uint8_t* src, uint32_t len) {
  const uint32_t free_space = fs.tx_size - TxQueued();
  const uint32_t n = std::min(len, free_space);
  if (n == 0) {
    return 0;
  }
  RingCopyIn(fs.tx_base, fs.tx_size, fs.tx_head, src, n);
  fs.tx_head += n;
  return n;
}

uint32_t Flow::AppReadRx(uint8_t* dst, uint32_t len) {
  const uint32_t n = std::min(len, RxUsed());
  if (n == 0) {
    return 0;
  }
  RingCopyOut(fs.rx_base, fs.rx_size, fs.rx_tail, dst, n);
  fs.rx_tail += n;
  return n;
}

}  // namespace tas
