// Tests for the CI regression gate (src/trace/gate, bench/bench_gate): the
// verdict of each rule at its bound, the sample floor, vanished rows and
// classes, and the exit codes for good, regressed and malformed input.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/trace/gate.h"
#include "src/trace/metric_registry.h"

namespace tas {
namespace {

std::string Row(const char* key, const std::string& name, double count, double mean,
                double p99) {
  return std::string("{\"") + key + "\":\"" + name + "\",\"count\":" + JsonNumber(count) +
         ",\"mean_ns\":" + JsonNumber(mean) + ",\"p99_ns\":" + JsonNumber(p99) + "}";
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) {
    out += (out.empty() ? "" : ",") + p;
  }
  return out;
}

std::string Stages(const std::vector<std::string>& stages) {
  return "{\"report\":\"latency\",\"stages\":[" + Join(stages) + "]}";
}

std::string Class(const std::string& name, double count, const std::vector<std::string>& edges) {
  return "{\"request_class\":\"" + name + "\",\"count\":" + JsonNumber(count) + ",\"edges\":[" +
         Join(edges) + "]}";
}

std::string Classes(const std::vector<std::string>& classes) {
  return "{\"report\":\"critical_path\",\"classes\":[" + Join(classes) + "]}";
}

std::string Million(double probe_p99, double events_per_packet) {
  return "{\"benchmark\":\"million_flow_churn\",\"probe_p99\":" + JsonNumber(probe_p99) +
         ",\"events_per_packet\":" + JsonNumber(events_per_packet) + "}";
}

// Violations of `current` against `baseline`; throws (failing the test) when
// the comparator rejects either document.
std::vector<GateViolation> Violations(const std::string& baseline, const std::string& current,
                                      std::optional<double> tolerance = std::nullopt) {
  std::string error;
  return CompareReports(baseline, current, tolerance, &error).value().violations;
}

// One report per gated metric: doc(v) sets exactly that metric to v.
struct MetricCase {
  const char* name;
  double base;
  double tolerance;  // The rule's default bound.
  std::string (*doc)(double v);
  bool tolerance_settable = true;  // Whether an explicit tolerance replaces it.
};

const MetricCase kCases[] = {
    {"latency mean_ns", 1000, 0.25,
     [](double v) { return Stages({Row("stage", "fp_tx", 100, v, 2047)}); }},
    {"latency p99_ns", 2047, 0.25,
     [](double v) { return Stages({Row("stage", "fp_tx", 100, 1000, v)}); }},
    {"critical_path edge mean_ns", 1000, 0.25,
     [](double v) {
       return Classes({Class("hit", 100, {Row("edge", "e2e", 100, 5e3, 8191),
                                          Row("edge", "net_request", 100, v, 4095)})});
     }},
    {"critical_path edge p99_ns", 4095, 0.25,
     [](double v) {
       return Classes({Class("hit", 100, {Row("edge", "e2e", 100, 5e3, 8191),
                                          Row("edge", "net_request", 100, 1000, v)})});
     }},
    {"critical_path e2e mean_ns", 5e3, 0.25,
     [](double v) { return Classes({Class("hit", 100, {Row("edge", "e2e", 100, v, 8191)})}); }},
    {"million_flow_churn probe_p99", 2, 0.5, [](double v) { return Million(v, 0.1); }, false},
    {"million_flow_churn events_per_packet", 0.1, 0.30, [](double v) { return Million(2, v); },
     false},
};

TEST(GateTest, EachMetricFailsJustAboveItsBoundAndPassesJustBelow) {
  for (const MetricCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const std::string baseline = c.doc(c.base);
    const double bound = c.base * (1 + c.tolerance);
    EXPECT_TRUE(Violations(baseline, baseline).empty());
    EXPECT_TRUE(Violations(baseline, c.doc(bound * (1 - 1e-6))).empty());
    EXPECT_TRUE(Violations(baseline, c.doc(bound)).empty()) << "the bound itself passes";
    const auto over = Violations(baseline, c.doc(bound * (1 + 1e-6)));
    ASSERT_EQ(over.size(), 1u);
    EXPECT_DOUBLE_EQ(over[0].baseline, c.base);
    EXPECT_TRUE(Violations(baseline, c.doc(c.base * 0.5)).empty()) << "improvements pass";
    if (!c.tolerance_settable) {
      std::string error;
      EXPECT_FALSE(CompareReports(baseline, baseline, 0.25, &error).has_value());
      continue;
    }
    // An explicit tolerance replaces the default bound.
    EXPECT_TRUE(Violations(baseline, c.doc(c.base * 1.1 * (1 - 1e-6)), 0.10).empty());
    EXPECT_EQ(Violations(baseline, c.doc(c.base * 1.1 * (1 + 1e-6)), 0.10).size(), 1u);
    // Improvements pass even at zero tolerance.
    EXPECT_TRUE(Violations(baseline, c.doc(c.base * 0.5), 0.0).empty());
  }
}

TEST(GateTest, RowsBelowTheCountFloorAreIgnored) {
  const double floor = static_cast<double>(kGateMinCount);
  const auto stage = [](double count, double v) {
    return Stages({Row("stage", "fp_tx", count, v, v)});
  };
  EXPECT_TRUE(Violations(stage(floor - 1, 100), stage(floor - 1, 1e6)).empty());
  EXPECT_EQ(Violations(stage(floor, 100), stage(floor, 1e6)).size(), 2u);
  const auto edge = [](double count, double v) {
    return Classes({Class("store", 100, {Row("edge", "origin_queue", count, v, v)})});
  };
  EXPECT_TRUE(Violations(edge(floor - 1, 100), edge(floor - 1, 1e6)).empty());
  EXPECT_EQ(Violations(edge(floor, 100), edge(floor, 1e6)).size(), 2u);
  // A whole class under the floor: neither its rows nor its absence count.
  const std::string hit = Class("hit", 100, {Row("edge", "e2e", 100, 5e3, 8191)});
  const auto splice = [](double v) {
    return Class("splice", kGateMinCount - 1, {Row("edge", "e2e", 100, v, v)});
  };
  EXPECT_TRUE(Violations(Classes({hit, splice(100)}), Classes({hit, splice(1e6)})).empty());
  EXPECT_TRUE(Violations(Classes({hit, splice(100)}), Classes({hit})).empty());
  // A baseline value of 0 has no bound to scale.
  EXPECT_TRUE(Violations(Million(0, 0), Million(7, 5)).empty());
}

TEST(GateTest, VanishedClassFailsVanishedStageOrEdgePasses) {
  const std::string fp_tx = Row("stage", "fp_tx", 100, 1000, 2047);
  EXPECT_TRUE(
      Violations(Stages({fp_tx, Row("stage", "fp_rx", 100, 900, 1023)}), Stages({fp_tx})).empty());

  const std::string e2e = Row("edge", "e2e", 100, 5e3, 8191);
  const std::string hit = Class("hit", 100, {e2e, Row("edge", "cache_work", 100, 80, 127)});
  const std::string store = Class("store", 100, {e2e});
  const std::string hit_without_edge = Class("hit", 100, {e2e});
  EXPECT_TRUE(Violations(Classes({hit, store}), Classes({hit_without_edge, store})).empty());
  const auto lost = Violations(Classes({hit, store}), Classes({hit}));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].row, "store");
  EXPECT_EQ(lost[0].metric, "count");
}

TEST(GateTest, ExitCodesForPassRegressionAndMalformedInput) {
  const auto write = [](const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "gate_test_" + name;
    std::ofstream(path) << text;
    return path;
  };
  const auto run = [](const std::string& baseline, const std::string& current,
                      std::optional<double> tolerance = std::nullopt) {
    std::ostringstream out;
    return RunGate(baseline, current, tolerance, out);
  };
  const std::string doc = kCases[0].doc(1000);
  const std::string base = write("base.json", doc + "\n");
  EXPECT_EQ(run(base, base), 0);
  EXPECT_EQ(run(base, write("slow.json", kCases[0].doc(1300))), 1);
  EXPECT_EQ(run(base, write("slow.json", kCases[0].doc(1300)), 0.5), 0);

  // The reader's grammar is util_test's; here, one case per way to exit 2.
  const std::string malformed[] = {
      doc.substr(0, doc.size() / 2),  // Not one JSON document.
      "PERF_LATENCY_JSON " + doc,     // A whole stdout line, not the payload.
      Million(1, 0.1),                // Another kind of report.
      "{\"report\":\"other\"}",       // A kind without rules.
      Stages({}),                     // No rows.
      "{\"report\":\"latency\",\"stages\":[{\"stage\":\"fp_tx\"}]}",  // No values.
  };
  for (const std::string& text : malformed) {
    EXPECT_EQ(run(base, write("bad.json", text)), 2) << text;
    EXPECT_EQ(run(write("bad.json", text), base), 2) << text;
  }
  EXPECT_EQ(run(base, ::testing::TempDir() + "gate_test_missing.json"), 2);
  const std::string million = write("million.json", Million(2, 0.1));
  EXPECT_EQ(run(million, million), 0);
  EXPECT_EQ(run(million, million, 0.25), 2) << "million_flow_churn takes no tolerance";
}

}  // namespace
}  // namespace tas
