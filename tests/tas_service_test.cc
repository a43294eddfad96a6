// Unit and component tests for TAS internals: per-flow state and buffers,
// the service's flow table and port allocator, context queues, the core
// scaler, and rate enforcement.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "src/app/bulk.h"
#include "src/app/rpc_echo.h"
#include "src/fault/impairment.h"
#include "src/harness/experiment.h"
#include "src/shm/context_queue.h"
#include "src/tas/slow_path.h"

namespace tas {
namespace {

TEST(FlowBufferTest, AppWriteReadRoundTrip) {
  Flow flow;
  std::vector<uint8_t> rx(1024);
  std::vector<uint8_t> tx(1024);
  flow.fs.rx_base = rx.data();
  flow.fs.tx_base = tx.data();
  flow.fs.rx_size = 1024;
  flow.fs.tx_size = 1024;

  uint8_t data[300];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(flow.AppWriteTx(data, 300), 300u);
  EXPECT_EQ(flow.TxQueued(), 300u);
  EXPECT_EQ(flow.TxAvailable(), 300u);

  uint8_t out[300];
  flow.CopyFromTx(flow.fs.tx_tail, out, 300);
  EXPECT_EQ(std::memcmp(data, out, 300), 0);
}

TEST(FlowBufferTest, WirePositionWrapAround) {
  // Positions are free-running wire sequences: verify modular indexing.
  Flow flow;
  std::vector<uint8_t> rx(256);
  flow.fs.rx_base = rx.data();
  flow.fs.rx_size = 256;
  const uint32_t base = 0xFFFFFF80u;  // Near the 32-bit wrap.
  flow.fs.rx_head = base;
  flow.fs.rx_tail = base;
  uint8_t data[200];
  for (size_t i = 0; i < sizeof(data); ++i) {
    data[i] = static_cast<uint8_t>(i * 3);
  }
  flow.CopyIntoRx(base, data, 200);  // Crosses the wrap.
  flow.fs.rx_head += 200;
  uint8_t out[200];
  EXPECT_EQ(flow.AppReadRx(out, 200), 200u);
  EXPECT_EQ(std::memcmp(data, out, 200), 0);
  EXPECT_EQ(uint32_t{flow.fs.rx_tail}, base + 200);  // Wrapped past zero.
}

TEST(FlowBufferTest, TxWriteRespectsCapacity) {
  Flow flow;
  std::vector<uint8_t> tx(128);
  flow.fs.tx_base = tx.data();
  flow.fs.tx_size = 128;
  uint8_t data[200] = {};
  EXPECT_EQ(flow.AppWriteTx(data, 200), 128u);
  EXPECT_EQ(flow.AppWriteTx(data, 10), 0u);  // Full.
}

TEST(FlowBufferTest, TokenBucketRefills) {
  Flow flow;
  flow.rate_bps = 8e9;  // 1 byte per ns.
  flow.tx_tokens = 0;
  flow.tokens_updated = 0;
  EXPECT_NEAR(flow.RefillTokens(1000, 1e9), 1000.0, 1.0);
  flow.tx_tokens = 0;
  // Burst cap limits accumulation over long idle.
  EXPECT_NEAR(flow.RefillTokens(1000000, 2896), 2896.0, 1.0);
}

// --- Zero-free-slot invariant: Reset() scrubs every byte the flow wrote ---

// A standalone flow whose rings are caller-owned, sized as a slab flow's
// rings are.
struct RingFlow {
  explicit RingFlow(uint32_t size) : rx(size), tx(size) {
    flow.fs.rx_base = rx.data();
    flow.fs.tx_base = tx.data();
    flow.fs.rx_size = size;
    flow.fs.tx_size = size;
  }
  std::vector<uint8_t> rx;
  std::vector<uint8_t> tx;
  Flow flow;
};

bool AllZero(const uint8_t* ring, size_t len) {
  return std::all_of(ring, ring + len, [](uint8_t b) { return b == 0; });
}
bool AllZero(const std::vector<uint8_t>& ring) { return AllZero(ring.data(), ring.size()); }

// Nonzero payload, so a byte the scrub missed shows.
std::vector<uint8_t> Pattern(size_t len) {
  std::vector<uint8_t> data(len);
  for (size_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i % 251 + 1);
  }
  return data;
}

// In-order receive of `len` bytes at rx_head, as the fast path does it.
void ReceiveInOrder(Flow& flow, uint32_t len) {
  const std::vector<uint8_t> data = Pattern(len);
  flow.CopyIntoRx(flow.fs.rx_head, data.data(), len);
  flow.fs.ack += len;
  flow.fs.rx_head += len;
}

void ExpectScrubbed(RingFlow& r) {
  r.flow.Reset();
  EXPECT_TRUE(AllZero(r.rx));
  EXPECT_TRUE(AllZero(r.tx));
}

TEST(FlowScrubTest, DataAcrossWireWrapAndRingEnd) {
  RingFlow r(256);
  Flow& flow = r.flow;
  flow.AnchorRx(0xFFFFFF80u);  // 200 bytes cross 2^32.
  flow.AnchorTx(0xFFFFFFC0u);
  ReceiveInOrder(flow, 200);
  EXPECT_NE(r.rx[0], 0);  // The first byte sits at ring offset 0 ...
  EXPECT_EQ(r.rx[200], 0);  // ... and nothing past the last one.
  const std::vector<uint8_t> data = Pattern(150);
  EXPECT_EQ(flow.AppWriteTx(data.data(), 150), 150u);
  EXPECT_TRUE(AllZero(&r.tx[150], 106));
  const uint32_t rx_head = flow.fs.rx_head;  // Copied: gtest binds a reference.
  EXPECT_LT(rx_head, flow.rx_anchor);         // Wrapped past zero.
  // Read it all, then 100 more bytes cross the ring end.
  uint8_t sink[200];
  EXPECT_EQ(flow.AppReadRx(sink, 200), 200u);
  ReceiveInOrder(flow, 100);
  EXPECT_NE(r.rx[0], 0);
  ExpectScrubbed(r);
}

TEST(FlowScrubTest, OpenOutOfOrderInterval) {
  RingFlow r(1024);
  Flow& flow = r.flow;
  flow.AnchorRx(5000);
  flow.AnchorTx(9000);
  ReceiveInOrder(flow, 100);
  // An out-of-order interval past a gap, never closed before the free.
  const std::vector<uint8_t> ooo = Pattern(300);
  flow.fs.ooo_start = 5400;
  flow.fs.ooo_len = 300;
  flow.CopyIntoRx(5400, ooo.data(), 300);
  ExpectScrubbed(r);
}

TEST(FlowScrubTest, MoreWrittenThanRingSize) {
  RingFlow r(256);
  Flow& flow = r.flow;
  flow.AnchorRx(1);
  flow.AnchorTx(2);
  const std::vector<uint8_t> data = Pattern(100);
  uint8_t sink[100];
  for (int i = 0; i < 10; ++i) {  // 1000 bytes each way through 256-byte rings.
    ReceiveInOrder(flow, 100);
    EXPECT_EQ(flow.AppReadRx(sink, 100), 100u);
    EXPECT_EQ(flow.AppWriteTx(data.data(), 100), 100u);
    flow.fs.tx_tail += 100;  // Acked.
  }
  ExpectScrubbed(r);
}

TEST(FlowScrubTest, MovedFourGiBOrMore) {
  // After 2^32 + 10 bytes a direction's positions stand 10 past the anchor
  // again, yet every ring byte has held payload. Fill each ring once through
  // libTAS, then move the positions on by the rest of the 4 GiB at once.
  RingFlow r(256);
  Flow& flow = r.flow;
  flow.AnchorRx(0x12345678u);
  flow.AnchorTx(0x9ABCDEF0u);
  ReceiveInOrder(flow, 256);
  uint8_t sink[256];
  EXPECT_EQ(flow.AppReadRx(sink, 256), 256u);
  const std::vector<uint8_t> data = Pattern(256);
  EXPECT_EQ(flow.AppWriteTx(data.data(), 256), 256u);
  EXPECT_TRUE(flow.rx_wrapped);
  EXPECT_TRUE(flow.tx_wrapped);
  const uint32_t rx_pos = flow.rx_anchor + 10;
  flow.fs.ack = rx_pos;
  flow.fs.rx_head = rx_pos;
  flow.fs.rx_tail = rx_pos;
  const uint32_t tx_pos = flow.tx_anchor + 10;
  flow.fs.seq = tx_pos;
  flow.fs.tx_head = tx_pos;
  flow.fs.tx_tail = tx_pos;
  ExpectScrubbed(r);
}

TEST(FlowScrubTest, FreedBeforeHandshake) {
  // AllocateFlow anchored tx and the app queued data; the SYN-ACK never came,
  // so rx was never anchored.
  RingFlow r(512);
  Flow& flow = r.flow;
  flow.AnchorTx(0xFFFFFF00u);
  const std::vector<uint8_t> data = Pattern(400);
  EXPECT_EQ(flow.AppWriteTx(data.data(), 400), 400u);
  ExpectScrubbed(r);
}

TEST(ContextQueueTest, NotifyOnlyOnEmptyToNonEmpty) {
  AppContext ctx(16);
  int notifications = 0;
  ctx.set_app_notify([&] { ++notifications; });
  ctx.PushEvent(AppEvent{AppEventType::kRxData, 1, 10});
  ctx.PushEvent(AppEvent{AppEventType::kRxData, 1, 10});
  EXPECT_EQ(notifications, 1);
  ctx.rx().Pop();
  ctx.rx().Pop();
  ctx.PushEvent(AppEvent{AppEventType::kRxData, 1, 10});
  EXPECT_EQ(notifications, 2);
}

TEST(ContextQueueTest, FullQueueCountsDrops) {
  AppContext ctx(2);
  size_t accepted = 0;
  while (ctx.PushEvent(AppEvent{})) {
    ++accepted;
    if (accepted > 100) {
      FAIL() << "queue never filled";
    }
  }
  EXPECT_GT(ctx.dropped_events(), 0u);
}

TEST(ContextQueueTest, CommandNotifyFiresFastpathHook) {
  AppContext ctx(16);
  int kicks = 0;
  ctx.set_fastpath_notify([&] { ++kicks; });
  ctx.PushCommand(TxCommand{TxCommandType::kSend, 1, 100});
  ctx.PushCommand(TxCommand{TxCommandType::kSend, 1, 100});
  EXPECT_EQ(kicks, 1);  // Second push: queue already non-empty.
}

class TasServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HostSpec spec;
    spec.stack = StackKind::kTas;
    spec.stack_cores = 4;
    LinkConfig link;
    exp_ = Experiment::PointToPoint(spec, spec, link);
    service_ = exp_->host(0).tas();
  }
  std::unique_ptr<Experiment> exp_;
  TasService* service_ = nullptr;
};

TEST_F(TasServiceFixture, FlowAllocationAndLookup) {
  const FlowKey key{80, MakeIp(10, 0, 0, 2), 5555};
  const FlowId id = service_->AllocateFlow(key);
  EXPECT_NE(id, kInvalidFlow);
  EXPECT_EQ(service_->LookupFlowId(key), id);
  EXPECT_EQ(service_->num_flows(), 1u);

  Flow* flow = service_->flow_by_id(id);
  ASSERT_NE(flow, nullptr);
  // Packed fields are copied (T{...}): gtest binds a reference.
  EXPECT_EQ(uint32_t{flow->fs.rx_size}, service_->config().rx_buffer_bytes);
  // Transmit positions anchored at iss+1 with nothing outstanding.
  EXPECT_EQ(uint32_t{flow->fs.seq}, uint32_t{flow->fs.tx_tail});
  EXPECT_EQ(uint32_t{flow->fs.tx_sent}, 0u);

  service_->FreeFlow(id);
  EXPECT_EQ(service_->LookupFlowId(key), kInvalidFlow);
  EXPECT_EQ(service_->num_flows(), 0u);
  EXPECT_EQ(service_->flow_by_id(id), nullptr);
}

TEST_F(TasServiceFixture, EphemeralPortsUniqueWhileInUse) {
  std::set<uint16_t> ports;
  for (int i = 0; i < 100; ++i) {
    const uint16_t port = service_->AllocateEphemeralPort();
    EXPECT_TRUE(ports.insert(port).second) << "port reused while free";
    service_->AllocateFlow(FlowKey{port, MakeIp(10, 0, 0, 2), 1000});
  }
}

TEST_F(TasServiceFixture, CoreForFlowStableAndInActiveRange) {
  for (int i = 0; i < 64; ++i) {
    const FlowKey key{static_cast<uint16_t>(2000 + i), MakeIp(10, 0, 0, 2),
                      static_cast<uint16_t>(3000 + i)};
    const FlowId id = service_->AllocateFlow(key);
    Flow* flow = service_->flow_by_id(id);
    flow->fs.local_port = key.local_port;
    flow->fs.peer_ip = key.peer_ip;
    flow->fs.peer_port = key.peer_port;
    const int core = service_->CoreForFlow(*flow);
    EXPECT_GE(core, 0);
    EXPECT_LT(core, service_->active_cores());
    EXPECT_EQ(core, service_->CoreForFlow(*flow));  // Deterministic.
  }
}

TEST_F(TasServiceFixture, SetActiveCoresRestersAndRecordsTrace) {
  service_->SetActiveCores(2);
  EXPECT_EQ(service_->active_cores(), 2);
  service_->SetActiveCores(4);
  service_->SetActiveCores(1);
  const auto& points = service_->core_trace().points();
  ASSERT_GE(points.size(), 4u);
  EXPECT_EQ(points.back().second, 1.0);
  // All RSS entries now point at queue 0.
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(service_->nic()->RedirectionEntryQueue(i), 0);
  }
}

// Connection churn for the recycled-slot check: keeps `concurrency`
// connections open until `total` have run; each sends one nonzero request,
// reads the full echo, then closes and opens the next.
class ChurnClient : public AppHandler {
 public:
  ChurnClient(Stack* stack, IpAddr server, uint16_t port, size_t bytes, size_t concurrency,
              size_t total)
      : stack_(stack), server_(server), port_(port), request_(Pattern(bytes)),
        concurrency_(concurrency), total_(total) {}
  void Start() {
    stack_->SetHandler(this);
    for (size_t i = 0; i < concurrency_; ++i) {
      Open();
    }
  }
  void OnConnected(ConnId conn, bool success) override {
    if (!success) {
      Open();
      return;
    }
    EXPECT_EQ(stack_->Send(conn, request_.data(), request_.size()), request_.size());
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    size_t& got = received_[conn];
    got += stack_->Recv(conn, buf.data(), bytes);
    if (got == request_.size()) {
      stack_->Close(conn);
      ++completed_;
      Open();
    }
  }
  size_t completed() const { return completed_; }

 private:
  void Open() {
    if (opened_ < total_) {
      ++opened_;
      stack_->Connect(server_, port_);
    }
  }

  Stack* stack_;
  IpAddr server_;
  uint16_t port_;
  std::vector<uint8_t> request_;
  size_t concurrency_;
  size_t total_;
  size_t opened_ = 0;
  size_t completed_ = 0;
  std::map<ConnId, size_t> received_;
};

TEST(TasRecycleTest, RecycledSlotsStartWithZeroBuffers) {
  // Reordering and loss put out-of-order intervals, retransmissions and
  // handshake retries through the real service; every flow then closes.
  HostSpec spec;
  spec.stack = StackKind::kTas;
  LinkConfig link;
  link.faults.Add(Reordering(0.1, Us(20), Us(80)));
  link.faults.Add(BernoulliLoss(0.01));
  auto exp = Experiment::PointToPoint(spec, spec, link);

  EchoServerConfig sc;
  sc.request_bytes = 6000;  // Several segments: reordering opens OOO intervals.
  sc.response_bytes = 6000;
  EchoServer server(exp->host_sim(0), exp->host(0).stack(), sc);
  server.Start();
  ChurnClient client(exp->host(1).stack(), exp->host(0).ip(), sc.port, sc.request_bytes,
                     /*concurrency=*/16, /*total=*/200);
  client.Start();
  // Long enough for backed-off SYN/FIN retries to release every straggler.
  exp->sim().RunUntil(Sec(30));

  EXPECT_EQ(client.completed(), 200u);
  EXPECT_GT(exp->host(0).tas()->stats().ooo_accepted +
                exp->host(1).tas()->stats().ooo_accepted,
            0u);
  for (int h = 0; h < 2; ++h) {
    TasService* service = exp->host(h).tas();
    ASSERT_EQ(service->num_flows(), 0u) << "host " << h;
    // Allocation pops freed slots LIFO; stop at the first never-used one.
    size_t recycled = 0;
    for (uint16_t port = 40000;; ++port) {
      const FlowId id = service->AllocateFlow(FlowKey{port, MakeIp(10, 9, 9, 9), 1});
      if (FlowGenOf(id) == 0) {
        break;
      }
      ++recycled;
      const FlowState& fs = service->flow_by_id(id)->fs;
      const uint32_t rx_size = fs.rx_size;  // Copied: gtest binds a reference.
      const uint32_t tx_size = fs.tx_size;
      EXPECT_EQ(rx_size, service->config().rx_buffer_bytes);
      EXPECT_EQ(tx_size, service->config().tx_buffer_bytes);
      EXPECT_TRUE(AllZero(fs.rx_base, fs.rx_size)) << "host " << h << " slot " << FlowSlotOf(id);
      EXPECT_TRUE(AllZero(fs.tx_base, fs.tx_size)) << "host " << h << " slot " << FlowSlotOf(id);
    }
    EXPECT_GE(recycled, 16u) << "host " << h;
  }
}

// --- Ring residency: memory follows the bytes a flow moves ---

// Indexes of the resident pages among those overlapping [ring, ring + len).
std::vector<size_t> ResidentPages(const uint8_t* ring, size_t len) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(ring) / page * page;
  const uintptr_t end = reinterpret_cast<uintptr_t>(ring) + len;
  std::vector<unsigned char> vec((end - begin + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()), 0);
  std::vector<size_t> resident;
  for (size_t i = 0; i < vec.size(); ++i) {
    if ((vec[i] & 1) != 0) {
      resident.push_back(i);
    }
  }
  return resident;
}

// The live flow in slab slot 0 (each host below holds one flow at a time).
Flow* SlotZeroFlow(TasService* service) {
  for (uint32_t gen = 0; gen < 8; ++gen) {
    if (Flow* flow = service->flow_by_id(MakeFlowId(0, gen))) {
      return flow;
    }
  }
  return nullptr;
}

// Connects, sends one request and reads its echo; closes on demand.
class OneRequestClient : public AppHandler {
 public:
  OneRequestClient(Stack* stack, IpAddr server, uint16_t port, size_t bytes)
      : stack_(stack), request_(Pattern(bytes)) {
    stack_->SetHandler(this);
    conn_ = stack_->Connect(server, port);
  }
  void OnConnected(ConnId conn, bool success) override {
    ASSERT_TRUE(success);
    EXPECT_EQ(stack_->Send(conn, request_.data(), request_.size()), request_.size());
  }
  void OnData(ConnId conn, size_t bytes) override {
    std::vector<uint8_t> buf(bytes);
    received_ += stack_->Recv(conn, buf.data(), bytes);
  }
  void Close() { stack_->Close(conn_); }
  size_t received() const { return received_; }

 private:
  Stack* stack_;
  std::vector<uint8_t> request_;
  ConnId conn_ = 0;
  size_t received_ = 0;
};

TEST(RingResidencyTest, ShortFlowTouchesOnlyFirstPageOfEachRing) {
  HostSpec spec;
  spec.stack = StackKind::kTas;
  LinkConfig link;
  auto exp = Experiment::PointToPoint(spec, spec, link);
  TasService* hosts[2] = {exp->host(0).tas(), exp->host(1).tas()};
  const auto expect_rings = [&](const std::vector<size_t>& pages, const char* when) {
    for (TasService* service : hosts) {
      const Flow* flow = SlotZeroFlow(service);
      ASSERT_NE(flow, nullptr) << when;
      const FlowState& fs = flow->fs;
      EXPECT_EQ(ResidentPages(fs.rx_base, fs.rx_size), pages) << when << ": rx";
      EXPECT_EQ(ResidentPages(fs.tx_base, fs.tx_size), pages) << when << ": tx";
    }
  };

  // A fresh slot's rings are mapped but hold no resident page.
  for (TasService* service : hosts) {
    service->AllocateFlow(FlowKey{40000, MakeIp(10, 9, 9, 9), 1});
  }
  expect_rings({}, "fresh");
  for (TasService* service : hosts) {
    service->FreeFlow(service->LookupFlowId(FlowKey{40000, MakeIp(10, 9, 9, 9), 1}));
  }

  EchoServerConfig sc;
  sc.request_bytes = 100;
  sc.response_bytes = 100;
  EchoServer server(exp->host_sim(0), exp->host(0).stack(), sc);
  server.Start();
  for (int round = 0; round < 2; ++round) {
    // Each round's flows reuse slot 0 on both hosts.
    OneRequestClient client(exp->host(1).stack(), exp->host(0).ip(), sc.port, 100);
    exp->sim().RunUntil(exp->sim().Now() + Ms(5));
    ASSERT_EQ(client.received(), 100u);
    expect_rings({0}, round == 0 ? "after exchange" : "after exchange on a reused slot");
    client.Close();
    exp->sim().RunUntil(exp->sim().Now() + Ms(50));
    for (TasService* service : hosts) {
      ASSERT_EQ(service->num_flows(), 0u);
    }
  }
  // Freed and reused: the scrub rewrote page 0 and touched nothing else.
  for (TasService* service : hosts) {
    const FlowId id = service->AllocateFlow(FlowKey{40001, MakeIp(10, 9, 9, 9), 1});
    EXPECT_GT(FlowGenOf(id), 0u);
  }
  expect_rings({0}, "freed and reused");
  // Checked last: reading a never-written page maps the zero page, which
  // mincore counts as resident.
  for (TasService* service : hosts) {
    const FlowState& fs = SlotZeroFlow(service)->fs;
    EXPECT_TRUE(AllZero(fs.rx_base, fs.rx_size));
    EXPECT_TRUE(AllZero(fs.tx_base, fs.tx_size));
  }
}

#if defined(__SANITIZE_ADDRESS__)
// The slab's rings share one mapping, so only the poisoned gap after each
// ring stops an overrun from landing silently in the next one.
TEST(RingGuardDeathTest, OneByteOverrunAborts) {
  FlowSlab slab(4096, 4096);
  Flow& flow = *slab.Get(slab.Allocate());
  volatile uint8_t* rx = flow.fs.rx_base;
  volatile uint8_t* tx = flow.fs.tx_base;
  const uint32_t rx_size = flow.fs.rx_size;
  const uint32_t tx_size = flow.fs.tx_size;
  rx[rx_size - 1] = 1;
  tx[tx_size - 1] = 1;
  EXPECT_DEATH(rx[rx_size] = 1, "AddressSanitizer");
  EXPECT_DEATH(tx[tx_size] = 1, "AddressSanitizer");
}
#endif

TEST(TasScalerTest, CoresGrowUnderLoadAndShrinkWhenIdle) {
  HostSpec server_spec;
  server_spec.stack = StackKind::kTas;
  server_spec.app_cores = 4;
  server_spec.tas_overridden = true;
  server_spec.tas.max_fastpath_cores = 4;
  server_spec.tas.dynamic_cores = true;
  server_spec.tas.monitor_interval = Ms(1);
  HostSpec client_spec;
  client_spec.stack = StackKind::kIx;
  client_spec.app_cores = 4;
  client_spec.engine_overridden = true;
  client_spec.engine = IxStackConfig();
  client_spec.engine.costs = &MinimalCostModel();
  LinkConfig link;
  link.gbps = 40.0;
  auto exp = Experiment::PointToPoint(server_spec, client_spec, link);

  EchoServerConfig sc;
  EchoServer server(exp->host_sim(0), exp->host(0).stack(), sc);
  server.Start();
  EchoClientConfig cc;
  cc.server_ip = exp->host(0).ip();
  cc.num_connections = 128;
  cc.pipeline_depth = 8;
  EchoClient client(exp->host_sim(1), exp->host(1).stack(), cc);
  client.Start();

  EXPECT_EQ(exp->host(0).tas()->active_cores(), 1);  // Dynamic start: 1 core.
  exp->sim().RunUntil(Ms(100));
  const int under_load = exp->host(0).tas()->active_cores();
  EXPECT_GT(under_load, 1) << "scaler never added cores under load";

  // Stop the load; cores must be released.
  exp->host(1).stack()->SetHandler(nullptr);
  exp->sim().RunUntil(Ms(400));
  EXPECT_EQ(exp->host(0).tas()->active_cores(), 1)
      << "scaler failed to release idle cores";
}

TEST(TasRateTest, FastPathEnforcesSlowPathRate) {
  // Cap one flow's rate via the CC floor and verify goodput obeys it.
  HostSpec spec;
  spec.stack = StackKind::kTas;
  spec.tas_overridden = true;
  spec.tas.max_fastpath_cores = 2;
  spec.tas.dctcp.max_bps = 50e6;  // Hard policy cap: 50 Mbps.
  spec.tas.dctcp.initial_bps = 50e6;
  auto exp = Experiment::PointToPoint(spec, spec, LinkConfig{});

  BulkReceiver rx(exp->host_sim(0), exp->host(0).stack(), BulkReceiverConfig{});
  rx.Start();
  BulkSenderConfig sc;
  sc.server_ip = exp->host(0).ip();
  sc.num_flows = 1;
  BulkSender tx(exp->host_sim(1), exp->host(1).stack(), sc);
  tx.Start();
  exp->sim().RunUntil(Ms(20));
  rx.BeginMeasurement();
  exp->sim().RunUntil(Ms(120));
  // Policy enforced on the fast path: goodput stays near the 50 Mbps cap
  // even though the link is 10G.
  EXPECT_LT(rx.ThroughputBps(), 80e6);
  EXPECT_GT(rx.ThroughputBps(), 20e6);
}

TEST(TasStateTest, BucketHelpersRoundTrip) {
  FlowState fs;
  SetBucket(fs, 0x123456);
  EXPECT_EQ(BucketOf(fs), 0x123456u);
  SetPeerWindowBytes(fs, 65536);
  EXPECT_EQ(PeerWindowBytes(fs), 65536u);
  // Saturation at the 16-bit granule limit.
  SetPeerWindowBytes(fs, 1ull << 40);
  EXPECT_EQ(uint16_t{fs.window}, 0xFFFF);
}

}  // namespace
}  // namespace tas
