// Graceful half-close on TAS (paper §2: TCP termination is a slow-path
// concern, but a FIN only ends one direction). A peer that closes its send
// side must still receive everything the other side owes it: the receiving
// flow keeps transmitting from kCloseWait, and the FIN'd side keeps
// consuming data in kFinWait1/2, both on the fast path. libTAS surfaces the
// peer's FIN as OnRemoteClosed and full termination as OnClosed, in that
// order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/net/pcap.h"
#include "src/tas/flow.h"

namespace tas {
namespace {

LinkConfig TestLink() {
  LinkConfig link;
  link.gbps = 10.0;
  link.propagation_delay = Us(2);
  link.queue_limit_pkts = 256;
  return link;
}

HostSpec TasSpec() {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  return spec;
}

// Response byte at stream offset i: position-dependent, so a reordered,
// duplicated or dropped segment shows as corruption.
uint8_t BodyByte(size_t i) { return static_cast<uint8_t>(i % 251); }

// Server: consumes the request, and once the client half-closes, answers
// with `response_bytes` on the half-open connection, then closes.
class HalfCloseServer : public AppHandler {
 public:
  HalfCloseServer(Stack* stack, uint16_t port, size_t response_bytes)
      : stack_(stack), port_(port), response_bytes_(response_bytes) {}

  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }

  void OnAccepted(ConnId conn, uint16_t) override { conn_ = conn; }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void OnRemoteClosed(ConnId conn) override {
    ++remote_closed_;
    remote_closed_seq_ = ++event_seq_;
    // The interesting part: transmit *after* the peer's FIN.
    std::vector<uint8_t> body(response_bytes_);
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = BodyByte(i);
    }
    size_t sent = 0;
    while (sent < body.size()) {
      const size_t n = stack_->Send(conn, body.data() + sent, body.size() - sent);
      if (n == 0) {
        break;
      }
      sent += n;
    }
    response_sent_ = sent;
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override {
    ++fully_closed_;
    closed_seq_ = ++event_seq_;
  }

  Stack* stack_;
  uint16_t port_;
  size_t response_bytes_;
  ConnId conn_ = kInvalidConn;
  size_t received_ = 0;
  size_t response_sent_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
  int event_seq_ = 0;
  int remote_closed_seq_ = 0;
  int closed_seq_ = 0;
};

// Client: writes a small request, immediately closes its direction, and
// keeps reading the response on the half-open connection.
class HalfCloseClient : public AppHandler {
 public:
  HalfCloseClient(Stack* stack, IpAddr server, uint16_t port) : stack_(stack), server_(server), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(server_, port_);
  }

  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    uint8_t req[12] = {1};
    ASSERT_EQ(stack_->Send(conn, req, sizeof(req)), sizeof(req));
    stack_->Close(conn);  // FIN rides out right behind the request.
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    const size_t n = stack_->Recv(conn, buf.data(), bytes);
    for (size_t i = 0; i < n; ++i) {
      if (buf[i] != BodyByte(received_ + i)) {
        ++corrupt_;
      }
    }
    received_ += n;
  }
  void OnRemoteClosed(ConnId) override {
    ++remote_closed_;
    remote_closed_seq_ = ++event_seq_;
  }
  void OnClosed(ConnId) override {
    ++fully_closed_;
    closed_seq_ = ++event_seq_;
  }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  ConnId conn_ = kInvalidConn;
  size_t received_ = 0;
  size_t corrupt_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
  int event_seq_ = 0;
  int remote_closed_seq_ = 0;
  int closed_seq_ = 0;
};

TEST(HalfCloseTest, ResponseFlowsAfterClientFin) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  const size_t kResponse = 48 * 1024;  // Under the 64KB buffers.
  HalfCloseServer server(exp->host(0).stack(), 7000, kResponse);
  HalfCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7000);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  EXPECT_EQ(server.received_, 12u);
  EXPECT_EQ(server.remote_closed_, 1);
  EXPECT_EQ(server.response_sent_, kResponse);
  // The whole response crossed the half-open connection.
  EXPECT_EQ(client.received_, kResponse);
  EXPECT_EQ(client.corrupt_, 0u);
  // OnRemoteClosed strictly precedes OnClosed on both sides.
  EXPECT_EQ(client.remote_closed_, 1);
  EXPECT_EQ(client.fully_closed_, 1);
  EXPECT_LT(client.remote_closed_seq_, client.closed_seq_);
  EXPECT_EQ(server.fully_closed_, 1);
  EXPECT_LT(server.remote_closed_seq_, server.closed_seq_);
}

// The half-open receive direction runs on the fast path: a 60 KiB response
// to a client that already sent its FIN costs the client's slow path only
// its control segments (the SYN-ACK and the server's FIN), not one exception
// per data segment. Data ACKed late from a busy slow path would fire the
// server's retransmission timeout even on a loss-free link.
TEST(HalfCloseTest, HalfOpenResponseStaysOnFastPath) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  const size_t kResponse = 60 * 1024;
  HalfCloseServer server(exp->host(0).stack(), 7002, kResponse);
  HalfCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7002);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  ASSERT_EQ(server.response_sent_, kResponse);
  EXPECT_EQ(client.received_, kResponse);
  EXPECT_EQ(client.corrupt_, 0u);
  EXPECT_EQ(client.fully_closed_, 1);
  EXPECT_EQ(server.fully_closed_, 1);
  const TasStats& client_stats = exp->host(1).tas()->stats();
  EXPECT_LE(client_stats.slowpath_packets, 3u);
  EXPECT_EQ(client_stats.timeout_retransmits, 0u);
  EXPECT_EQ(exp->host(0).tas()->stats().timeout_retransmits, 0u);
}

// Reads back every frame of a classic pcap file written by PcapWriter.
std::vector<Packet> ReadPcap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  std::vector<Packet> frames;
  size_t at = 24;  // Global header.
  while (at + 16 <= bytes.size()) {
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + at + 8, sizeof(len));
    at += 16;
    if (at + len > bytes.size()) {
      break;
    }
    auto pkt = Parse(std::vector<uint8_t>(bytes.begin() + static_cast<long>(at),
                                          bytes.begin() + static_cast<long>(at + len)));
    if (pkt) {
      frames.push_back(std::move(*pkt));
    }
    at += len;
  }
  return frames;
}

// A TAS client half-closes against a full TCP engine (the Linux model): the
// engine keeps streaming its response into the client's kFinWait1/2 flow.
// On the wire, every segment the client sends after its FIN carries the
// sequence number one past the FIN, as a strict peer requires.
TEST(HalfCloseTest, HalfOpenResponseFromLinuxServer) {
  HostSpec linux_spec;
  linux_spec.stack = StackKind::kLinux;
  auto exp = Experiment::PointToPoint(linux_spec, TasSpec(), TestLink());
  const std::string pcap_path = ::testing::TempDir() + "halfclose_linux.pcap";
  auto pcap = std::make_unique<PcapWriter>(pcap_path);
  ASSERT_TRUE(pcap->ok());
  exp->host_link(1)->AttachPcap(1, pcap.get());  // Frames the TAS client sends.
  const size_t kResponse = 60 * 1024;
  HalfCloseServer server(exp->host(0).stack(), 7003, kResponse);
  HalfCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7003);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));
  exp->host_link(1)->AttachPcap(1, nullptr);
  pcap.reset();  // Flushes the file.

  EXPECT_EQ(server.received_, 12u);
  EXPECT_EQ(server.remote_closed_, 1);
  ASSERT_EQ(server.response_sent_, kResponse);
  EXPECT_EQ(client.received_, kResponse);
  EXPECT_EQ(client.corrupt_, 0u);
  EXPECT_EQ(client.remote_closed_, 1);
  EXPECT_EQ(client.fully_closed_, 1);
  EXPECT_EQ(server.fully_closed_, 1);
  EXPECT_EQ(exp->host(1).tas()->stats().timeout_retransmits, 0u);

  const std::vector<Packet> frames = ReadPcap(pcap_path);
  std::remove(pcap_path.c_str());
  bool fin_seen = false;
  uint32_t fin_seq = 0;
  size_t after_fin = 0;
  for (const Packet& pkt : frames) {
    ASSERT_EQ(pkt.ip.src, exp->host(1).ip());
    if (pkt.tcp.fin()) {
      fin_seen = true;
      fin_seq = pkt.tcp.seq;
      continue;
    }
    if (fin_seen) {
      EXPECT_EQ(pkt.tcp.seq, fin_seq + 1);
      ++after_fin;
    }
  }
  EXPECT_TRUE(fin_seen);
  // One ACK per response segment, at least.
  EXPECT_GE(after_fin, kResponse / 1448);
}

// Hostile ACKs (paper §3: the peer is untrusted). Only the ACK of a FIN we
// actually sent may mark it acknowledged: an ACK for seq + 1 on a flow that
// never sent a FIN, or a kFinWait1 ACK short of seq + 1, changes nothing.
class FinAckFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    exp_ = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
    service_ = exp_->host(0).tas();
    // A flow to an address nobody answers from, so only the ACKs injected
    // below ever reach it.
    const FlowKey key{5555, MakeIp(10, 9, 0, 2), 7000};
    id_ = service_->AllocateFlow(key);
    flow_ = service_->flow_by_id(id_);
    flow_->AnchorRx(1000);
    SetPeerWindowBytes(flow_->fs, 64 * 1024);
    flow_->cstate = ConnState::kEstablished;
  }

  void InjectAck(uint32_t ack) {
    service_->nic()->Receive(MakeTcpPacket(flow_->fs.peer_ip, flow_->fs.peer_port,
                                           service_->local_ip(), flow_->fs.local_port,
                                           flow_->fs.ack, ack, TcpFlags::kAck));
  }

  // Runs a few control intervals, so the slow path scans its pending list.
  void Run() { exp_->sim().RunUntil(exp_->sim().Now() + Ms(1)); }

  std::unique_ptr<Experiment> exp_;
  TasService* service_ = nullptr;
  FlowId id_ = kInvalidFlow;
  Flow* flow_ = nullptr;
};

TEST_F(FinAckFixture, SeqPlusOneWithoutFinIsIgnored) {
  for (ConnState state : {ConnState::kEstablished, ConnState::kCloseWait}) {
    flow_->cstate = state;
    const uint32_t seq = flow_->fs.seq;
    InjectAck(seq + 1);
    Run();
    EXPECT_FALSE(flow_->fin_acked) << ConnStateName(state);
    EXPECT_EQ(flow_->cstate, state);
    // FlowState is packed: compare copies, not references to its fields.
    EXPECT_EQ(uint32_t{flow_->fs.seq}, seq);
    EXPECT_EQ(uint32_t{flow_->fs.tx_tail}, seq);  // Nothing was sent, nothing acked.
  }
  EXPECT_EQ(service_->stats().slowpath_packets, 0u);
}

TEST_F(FinAckFixture, OnlyTheFinAckMovesFinWait1) {
  service_->Close(id_);  // Nothing queued: the FIN goes out at once.
  ASSERT_EQ(flow_->cstate, ConnState::kFinWait1);
  const uint32_t seq = flow_->fs.seq;  // The FIN's sequence number.
  for (uint32_t ack : {seq, seq - 1, seq - 1000}) {
    InjectAck(ack);
    Run();
    EXPECT_FALSE(flow_->fin_acked) << "ack = seq - " << (seq - ack);
    EXPECT_EQ(flow_->cstate, ConnState::kFinWait1);
  }

  // The real FIN ACK is served by the fast path, which only records it...
  const uint64_t slow_before = service_->stats().slowpath_packets;
  InjectAck(seq + 1);
  exp_->sim().RunUntil(exp_->sim().Now() + Us(10));
  EXPECT_TRUE(flow_->fin_acked);
  EXPECT_EQ(flow_->cstate, ConnState::kFinWait1);
  // ...and the slow path's next control iteration takes the transition.
  Run();
  EXPECT_EQ(flow_->cstate, ConnState::kFinWait2);
  EXPECT_EQ(service_->stats().slowpath_packets, slow_before);
}

// Close() with unacked data still queued in the stack: the FIN must
// sequence after the data, so the receiver sees every byte, then the FIN.
class FloodAndCloseClient : public AppHandler {
 public:
  FloodAndCloseClient(Stack* stack, IpAddr server, uint16_t port)
      : stack_(stack), server_(server), port_(port) {}

  void Start() {
    stack_->SetHandler(this);
    stack_->Connect(server_, port_);
  }
  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    // Stuff the send buffer to the brim, then close with it all pending.
    std::vector<uint8_t> chunk(4096);
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<uint8_t>(i % 251);
    }
    size_t n;
    while ((n = stack_->Send(conn, chunk.data(), chunk.size())) > 0) {
      sent_ += n;
    }
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  size_t sent_ = 0;
  int fully_closed_ = 0;
};

class CountingServer : public AppHandler {
 public:
  CountingServer(Stack* stack, uint16_t port) : stack_(stack), port_(port) {}
  void Start() {
    stack_->SetHandler(this);
    stack_->Listen(port_);
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void OnRemoteClosed(ConnId conn) override {
    received_at_fin_ = received_;
    ++remote_closed_;
    stack_->Close(conn);
  }
  void OnClosed(ConnId) override { ++fully_closed_; }

  Stack* stack_;
  uint16_t port_;
  size_t received_ = 0;
  size_t received_at_fin_ = 0;
  int remote_closed_ = 0;
  int fully_closed_ = 0;
};

TEST(HalfCloseTest, CloseWithDataPendingFlushesFirst) {
  auto exp = Experiment::PointToPoint(TasSpec(), TasSpec(), TestLink());
  CountingServer server(exp->host(0).stack(), 7001);
  FloodAndCloseClient client(exp->host(1).stack(), exp->host(0).ip(), 7001);
  server.Start();
  client.Start();
  exp->sim().RunUntil(Sec(5));

  EXPECT_GT(client.sent_, 0u);
  EXPECT_EQ(server.received_, client.sent_);
  // Every queued byte had been delivered by the time the FIN surfaced.
  EXPECT_EQ(server.received_at_fin_, client.sent_);
  EXPECT_EQ(server.remote_closed_, 1);
  EXPECT_EQ(server.fully_closed_, 1);
  EXPECT_EQ(client.fully_closed_, 1);
}

}  // namespace
}  // namespace tas
