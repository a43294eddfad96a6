#include "src/trace/latency.h"

#include <iomanip>
#include <sstream>

#include "src/trace/flight_recorder.h"
#include "src/util/logging.h"

namespace tas {

const char* LatencyStageName(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kCtxQueue:
      return "ctx_queue";
    case LatencyStage::kFpTx:
      return "fp_tx";
    case LatencyStage::kLinkQueue:
      return "link_queue";
    case LatencyStage::kLinkWire:
      return "link_wire";
    case LatencyStage::kSwitchQueue:
      return "switch_queue";
    case LatencyStage::kNicRxRing:
      return "nic_rx_ring";
    case LatencyStage::kFpRx:
      return "fp_rx";
  }
  return "?";
}

bool LatencyStageIsQueue(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kCtxQueue:
    case LatencyStage::kLinkQueue:
    case LatencyStage::kSwitchQueue:
    case LatencyStage::kNicRxRing:
      return true;
    case LatencyStage::kFpTx:
    case LatencyStage::kLinkWire:
    case LatencyStage::kFpRx:
      return false;
  }
  return false;
}

uint64_t LatencyTracer::Begin(TimeNs start) {
  // Wrapping onto a record that never finished drops that oldest in-flight
  // record (counted overwritten); its late stamps then fail the id check.
  ring_.Append() = Record{start, start, 0, {}};
  return ring_.recorded();
}

void LatencyTracer::Stamp(uint64_t id, LatencyStage stage, TimeNs now) {
  Record* r = ring_.Find(id);
  if (r == nullptr) {
    return;
  }
  const size_t i = static_cast<size_t>(stage);
  r->stage_ns[i] += static_cast<uint64_t>(now - r->last);
  r->last = now;
  r->touched |= 1u << i;
}

void LatencyTracer::Finish(uint64_t id, LatencyStage stage, TimeNs now) {
  Record* r = ring_.Find(id);
  if (r == nullptr) {
    return;
  }
  const size_t fi = static_cast<size_t>(stage);
  r->stage_ns[fi] += static_cast<uint64_t>(now - r->last);
  r->touched |= 1u << fi;

  uint64_t total = 0;
  uint64_t queue_ns = 0;
  uint64_t service_ns = 0;
  for (int i = 0; i < kNumLatencyStages; ++i) {
    if ((r->touched & (1u << i)) == 0) {
      continue;
    }
    const uint64_t ns = r->stage_ns[static_cast<size_t>(i)];
    stage_hist_[static_cast<size_t>(i)].Add(ns);
    stage_stats_[static_cast<size_t>(i)].Add(static_cast<double>(ns));
    total += ns;
    if (LatencyStageIsQueue(static_cast<LatencyStage>(i))) {
      queue_ns += ns;
    } else {
      service_ns += ns;
    }
  }
  const uint64_t e2e = static_cast<uint64_t>(now - r->start);
  if (total != e2e) {
    // Every interval between Begin and Finish must be attributed to exactly
    // one stage; a mismatch means a stamp site double-charged or skipped.
    ++partition_mismatches_;
  }
  e2e_hist_.Add(e2e);
  e2e_stats_.Add(static_cast<double>(e2e));
  queue_wait_hist_.Add(queue_ns);
  queue_wait_stats_.Add(static_cast<double>(queue_ns));
  service_hist_.Add(service_ns);
  service_stats_.Add(static_cast<double>(service_ns));
  ++completed_;
  ring_.Retire(id);

  if (FlightRecorder* recorder = FlightRecorder::Current()) {
    recorder->RecordLatency(now, e2e, queue_ns, service_ns);
  }
}

void LatencyTracer::Abandon(uint64_t id) {
  // Dropping an already-dead record again is not an error.
  if (ring_.Retire(id)) {
    ++abandoned_;
  }
}

namespace {

LatencyStageSummary Summarize(const std::string& name, const std::string& cls,
                              const LogHistogram& hist, const RunningStats& stats) {
  LatencyStageSummary s;
  s.stage = name;
  s.cls = cls;
  s.count = stats.count();
  s.mean_ns = stats.mean();
  s.max_ns = stats.max();
  s.p50_ns = hist.ApproxPercentile(50);
  s.p90_ns = hist.ApproxPercentile(90);
  s.p99_ns = hist.ApproxPercentile(99);
  s.p999_ns = hist.ApproxPercentile(99.9);
  return s;
}

}  // namespace

LatencyReport LatencyTracer::Report() const {
  LatencyReport report;
  report.completed = completed();
  report.abandoned = abandoned();
  report.overwritten = overwritten();
  report.stale = stale();
  for (int i = 0; i < kNumLatencyStages; ++i) {
    const LatencyStage stage = static_cast<LatencyStage>(i);
    report.stages.push_back(Summarize(LatencyStageName(stage),
                                      LatencyStageIsQueue(stage) ? "queue" : "service",
                                      stage_hist(stage), stage_stats(stage)));
  }
  report.stages.push_back(Summarize("queue_wait", "total", queue_wait_hist_,
                                    queue_wait_stats_));
  report.stages.push_back(Summarize("service", "total", service_hist_, service_stats_));
  report.stages.push_back(Summarize("e2e", "total", e2e_hist(), e2e_stats()));
  return report;
}

const LatencyStageSummary* LatencyReport::Find(const std::string& stage) const {
  for (const LatencyStageSummary& s : stages) {
    if (s.stage == stage) {
      return &s;
    }
  }
  return nullptr;
}

std::string LatencyReport::ToJson() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "{\"report\":\"latency\""
     << ",\"completed\":" << completed << ",\"abandoned\":" << abandoned
     << ",\"overwritten\":" << overwritten << ",\"stale\":" << stale << ",\"stages\":[";
  for (size_t i = 0; i < stages.size(); ++i) {
    const LatencyStageSummary& s = stages[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"stage\":\"" << s.stage << "\",\"class\":\"" << s.cls << "\""
       << ",\"count\":" << s.count << ",\"mean_ns\":" << s.mean_ns
       << ",\"max_ns\":" << s.max_ns << ",\"p50_ns\":" << s.p50_ns
       << ",\"p90_ns\":" << s.p90_ns << ",\"p99_ns\":" << s.p99_ns
       << ",\"p999_ns\":" << s.p999_ns << "}";
  }
  os << "]}";
  return os.str();
}

std::string LatencyReport::ToTable() const {
  std::ostringstream os;
  os << std::left << std::setw(14) << "stage" << std::setw(9) << "class" << std::right
     << std::setw(10) << "count" << std::setw(12) << "mean_us" << std::setw(10) << "p50_us"
     << std::setw(10) << "p90_us" << std::setw(10) << "p99_us" << std::setw(11)
     << "p99.9_us" << std::setw(11) << "max_us" << "\n";
  os << std::string(97, '-') << "\n";
  os << std::fixed;
  for (const LatencyStageSummary& s : stages) {
    os << std::left << std::setw(14) << s.stage << std::setw(9) << s.cls << std::right
       << std::setw(10) << s.count << std::setw(12) << std::setprecision(2)
       << s.mean_ns / 1000.0 << std::setw(10) << std::setprecision(2)
       << static_cast<double>(s.p50_ns) / 1000.0 << std::setw(10)
       << static_cast<double>(s.p90_ns) / 1000.0 << std::setw(10)
       << static_cast<double>(s.p99_ns) / 1000.0 << std::setw(11)
       << static_cast<double>(s.p999_ns) / 1000.0 << std::setw(11)
       << s.max_ns / 1000.0 << "\n";
  }
  return os.str();
}

}  // namespace tas
