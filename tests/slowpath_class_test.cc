// Slow-path exception service classes (paper §3.2: one slow-path core owns
// all connection control). Segments of flows the host already holds are
// served before new SYNs and segments for unknown flows, so a SYN backlog or
// a flood of stale segments delays only new admissions, never the handshake
// or teardown of an admitted connection. Also covers the fast path's paced
// transmit: a rate-limited flow runs about one TX item per segment sent.
#include <gtest/gtest.h>

#include <memory>

#include "src/app/bulk.h"
#include "src/harness/experiment.h"
#include "src/tas/fast_path.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

constexpr uint16_t kPort = 6000;
constexpr uint32_t kPeerIss = 5000;
const IpAddr kPeer = MakeIp(10, 9, 0, 2);

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

LinkConfig TestLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  return link;
}

// Segments from a peer nobody simulates are injected straight into host 0's
// NIC, so the fast path classifies them exactly as it does wire traffic.
class ExceptionClassFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    exp_ = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
    service_ = exp_->host(0).tas();
    slow_ = service_->slow_path();
    exp_->host(0).stack()->SetHandler(&handler_);
    exp_->host(0).stack()->Listen(kPort);
  }

  void Inject(uint16_t peer_port, uint32_t seq, uint32_t ack, uint8_t flags) {
    service_->nic()->Receive(
        MakeTcpPacket(kPeer, peer_port, service_->local_ip(), kPort, seq, ack, flags));
  }
  void InjectSyn(uint16_t peer_port) { Inject(peer_port, kPeerIss, 0, TcpFlags::kSyn); }
  // The ACK completing the handshake of a kSynRcvd flow.
  void InjectHandshakeAck(uint16_t peer_port) {
    Inject(peer_port, kPeerIss + 1, FlowOf(peer_port)->fs.seq, TcpFlags::kAck);
  }
  void InjectFin(uint16_t peer_port) {
    Inject(peer_port, kPeerIss + 1, FlowOf(peer_port)->fs.seq, TcpFlags::kFin | TcpFlags::kAck);
  }

  Flow* FlowOf(uint16_t peer_port) {
    const FlowId id = service_->LookupFlowId(FlowKey{kPort, kPeer, peer_port});
    return id == kInvalidFlow ? nullptr : service_->flow_by_id(id);
  }
  bool Admitted(uint16_t peer_port) { return FlowOf(peer_port) != nullptr; }

  // Advances the simulation in 10 ns steps until `done()` holds (or 10 ms
  // pass), so a test can look at the slow path the moment something happens.
  template <typename Pred>
  bool StepUntil(Pred done) {
    const TimeNs limit = exp_->sim().Now() + Ms(10);
    while (!done()) {
      if (exp_->sim().Now() >= limit) {
        return false;
      }
      exp_->sim().RunUntil(exp_->sim().Now() + 10);
    }
    return true;
  }
  // Waits until the fast path has handed `n` more exceptions to the slow path.
  void HandOver(uint64_t before, uint64_t n) {
    ASSERT_TRUE(StepUntil([&] { return service_->stats().exceptions >= before + n; }));
  }
  // Runs until the slow path has drained its queue and finished its charges.
  void Settle() { exp_->sim().RunUntil(exp_->sim().Now() + Us(500)); }

  // Admits a connection from `peer_port` through a full handshake.
  void Establish(uint16_t peer_port) {
    InjectSyn(peer_port);
    Settle();
    ASSERT_NE(FlowOf(peer_port), nullptr);
    InjectHandshakeAck(peer_port);
    Settle();
    ASSERT_EQ(FlowOf(peer_port)->cstate, ConnState::kEstablished);
  }

  TimeNs SetupCharge() {
    return service_->slowpath_cpu()->CyclesToTime(service_->config().costs->connection_setup / 2);
  }

  std::unique_ptr<Experiment> exp_;
  TasService* service_ = nullptr;
  SlowPath* slow_ = nullptr;
  AppHandler handler_;
};

TEST_F(ExceptionClassFixture, HandshakeAckOvertakesSynBacklog) {
  constexpr int kBacklog = 16;
  InjectSyn(7000);
  Settle();
  ASSERT_NE(FlowOf(7000), nullptr);
  ASSERT_EQ(FlowOf(7000)->cstate, ConnState::kSynRcvd);

  // A SYN burst reaches the slow path first...
  const uint64_t before = service_->stats().exceptions;
  for (int i = 0; i < kBacklog; ++i) {
    InjectSyn(static_cast<uint16_t>(8000 + i));
  }
  HandOver(before, kBacklog);
  // ...then the ACK that completes the admitted handshake.
  const TimeNs t0 = exp_->sim().Now();
  InjectHandshakeAck(7000);
  ASSERT_TRUE(StepUntil([&] { return FlowOf(7000)->cstate == ConnState::kEstablished; }));
  const TimeNs waited = exp_->sim().Now() - t0;

  // It waited for the SYN already in service and nothing else.
  int admitted = 0;
  for (int i = 0; i < kBacklog; ++i) {
    admitted += Admitted(static_cast<uint16_t>(8000 + i)) ? 1 : 0;
  }
  EXPECT_LE(admitted, 1);
  EXPECT_LE(waited, SetupCharge() + Us(2)) << "waited " << waited << " ns";

  // The backlog is still served afterwards.
  Settle();
  for (int i = 0; i < kBacklog; ++i) {
    EXPECT_TRUE(Admitted(static_cast<uint16_t>(8000 + i))) << i;
  }
  EXPECT_EQ(slow_->exception_depth(), 0u);
}

TEST_F(ExceptionClassFixture, UnknownFlowFloodDoesNotDelayFin) {
  // Hostile input: ACKs with payload for 4-tuples the host never admitted
  // (stale segments, or a scan). The slow path drops each one, but only
  // after an exception charge.
  constexpr int kFlood = 64;
  Establish(7000);
  const uint64_t before = service_->stats().exceptions;
  for (int i = 0; i < kFlood; ++i) {
    auto pkt = MakeTcpPacket(kPeer, static_cast<uint16_t>(20000 + i), service_->local_ip(), kPort,
                             1, 1, TcpFlags::kAck);
    pkt->payload.assign(100, 0xAB);
    service_->nic()->Receive(std::move(pkt));
  }
  HandOver(before, kFlood);
  InjectFin(7000);
  HandOver(before, kFlood + 1);

  // The FIN reached the slow path behind most of the flood...
  const size_t depth_at_fin = slow_->exception_depth();
  ASSERT_GE(depth_at_fin, static_cast<size_t>(kFlood / 2));
  ASSERT_TRUE(StepUntil([&] { return FlowOf(7000)->cstate == ConnState::kCloseWait; }));
  // ...and was served next: only the FIN and the flood segment in service
  // when it arrived have left the queue.
  EXPECT_GE(slow_->exception_depth(), depth_at_fin - 2);

  Settle();
  EXPECT_EQ(slow_->exception_depth(), 0u);
  EXPECT_EQ(service_->num_flows(), 1u);  // The flood admitted nothing.
}

TEST_F(ExceptionClassFixture, DepthCountsBothClasses) {
  Establish(7000);
  Establish(7001);

  uint64_t before = service_->stats().exceptions;
  for (uint16_t port : {8000, 8001, 8002}) {
    InjectSyn(port);
  }
  HandOver(before, 3);
  before = service_->stats().exceptions;
  InjectFin(7000);
  InjectFin(7001);
  HandOver(before, 2);

  // SYN 8000 is in service; two SYNs and two FINs wait.
  EXPECT_EQ(slow_->exception_depth(), 4u);
  EXPECT_GE(slow_->exception_depth_hw(), 4u);

  // The FINs are served next, before the SYNs that arrived first.
  ASSERT_TRUE(StepUntil([&] {
    return FlowOf(7000)->cstate == ConnState::kCloseWait &&
           FlowOf(7001)->cstate == ConnState::kCloseWait;
  }));
  EXPECT_FALSE(Admitted(8001));
  EXPECT_FALSE(Admitted(8002));

  Settle();
  EXPECT_EQ(slow_->exception_depth(), 0u);
  for (uint16_t port : {8000, 8001, 8002}) {
    ASSERT_TRUE(Admitted(port)) << port;
    EXPECT_EQ(FlowOf(port)->cstate, ConnState::kSynRcvd);
  }
}

TEST(PacedTransmitTest, RateLimitedFlowRunsOneTxItemPerSegment) {
  // A flow capped far below line rate: each send schedules the next for its
  // bucket refill time, so no TX item finds the bucket short.
  HostSpec spec = TasSpec();
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  spec.tas.dctcp.max_bps = 50e6;
  spec.tas.dctcp.initial_bps = 50e6;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});

  BulkReceiver rx(exp->host_sim(0), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 1;
  BulkSender tx(exp->host_sim(1), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(100));

  TasService* sender = exp->host(1).tas();
  uint64_t items = 0;
  for (int i = 0; i < sender->max_cores(); ++i) {
    items += sender->fastpath(i)->items_processed();
  }
  // Every packet the sender's NIC accepted is one RX item; the rest are TX
  // items (the sender reads nothing, so it sends no window updates).
  ASSERT_EQ(sender->nic()->rx_drops(), 0u);
  const uint64_t tx_items = items - sender->nic()->rx_packets();
  const uint64_t segments = sender->stats().fastpath_tx_packets;
  ASSERT_GT(segments, 300u);
  EXPECT_LE(static_cast<double>(tx_items), 1.01 * static_cast<double>(segments))
      << tx_items << " TX items for " << segments << " segments";
}

}  // namespace
}  // namespace tas
