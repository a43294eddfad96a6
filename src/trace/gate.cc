#include "src/trace/gate.h"

#include <fstream>
#include <sstream>

#include "src/util/json.h"

namespace tas {
namespace {

// million_flow_churn's default bounds (probe_p99 moves in log buckets).
constexpr double kProbeP99Tolerance = 0.5;
constexpr double kEventsPerPacketTolerance = 0.30;

std::string KindOf(const JsonValue& doc) {
  const std::string* kind = doc.FindString("report");
  kind = kind != nullptr ? kind : doc.FindString("benchmark");
  return kind != nullptr ? *kind : "";
}

// Walks one baseline/current pair. The first missing or mistyped field is
// kept in error() and voids the comparison.
class Comparator {
 public:
  Comparator(std::optional<double> tolerance, GateOutcome* out)
      : tolerance_(tolerance), out_(out) {}

  const std::string& error() const { return error_; }

  void Latency(const JsonValue& base, const JsonValue& cur) {
    GateRows("", Rows(base, "stages"), Rows(cur, "stages"), "stage");
  }

  void CriticalPath(const JsonValue& base, const JsonValue& cur) {
    const JsonValue* cur_classes = Rows(cur, "classes");
    const JsonValue* base_classes = Rows(base, "classes");
    for (size_t i = 0; error_.empty() && i < base_classes->items().size(); ++i) {
      const JsonValue& bc = base_classes->items()[i];
      const std::string cls = Name(bc, "request_class");
      const double count = Number(bc, "count");
      if (count < kGateMinCount) {
        continue;
      }
      ++out_->checked;
      if (const JsonValue* cc = FindRow(cur_classes, "request_class", cls)) {
        GateRows(cls + "/", Rows(bc, "edges"), Rows(*cc, "edges"), "edge");
      } else {
        // The workload lost a whole request class.
        out_->violations.push_back(GateViolation{cls, "count", count, 0});
      }
    }
  }

  void MillionFlowChurn(const JsonValue& base, const JsonValue& cur) {
    Check("", "probe_p99", Number(base, "probe_p99"), Number(cur, "probe_p99"),
          kProbeP99Tolerance);
    Check("", "events_per_packet", Number(base, "events_per_packet"),
          Number(cur, "events_per_packet"), kEventsPerPacketTolerance);
  }

 private:
  void Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what;
    }
  }

  double Number(const JsonValue& obj, const char* key) {
    const std::optional<double> v = obj.FindNumber(key);
    if (!v) {
      Fail(std::string("missing number \"") + key + "\"");
    }
    return v.value_or(0);
  }

  std::string Name(const JsonValue& obj, const char* key) {
    const std::string* s = obj.FindString(key);
    if (s == nullptr) {
      Fail(std::string("missing string \"") + key + "\"");
    }
    return s != nullptr ? *s : "";
  }

  // A non-empty array of rows; an empty stand-in (and an error) otherwise.
  const JsonValue* Rows(const JsonValue& obj, const char* key) {
    static const JsonValue kNone;
    const JsonValue* rows = obj.Find(key);
    if (rows == nullptr || rows->type() != JsonValue::Type::kArray || rows->items().empty()) {
      Fail(std::string("missing non-empty array \"") + key + "\"");
      return &kNone;
    }
    return rows;
  }

  const JsonValue* FindRow(const JsonValue* rows, const char* key, const std::string& name) {
    for (const JsonValue& row : rows->items()) {
      if (Name(row, key) == name) {
        return &row;
      }
    }
    return nullptr;
  }

  // Gates mean_ns and p99_ns of every baseline row with enough samples. A
  // row the current run no longer has is not gated: the time moved out of
  // that stage or edge.
  void GateRows(const std::string& prefix, const JsonValue* base, const JsonValue* cur,
                const char* key) {
    for (const JsonValue& b : base->items()) {
      const std::string name = Name(b, key);
      if (Number(b, "count") < kGateMinCount) {
        continue;
      }
      if (const JsonValue* c = FindRow(cur, key, name)) {
        Check(prefix + name, "mean_ns", Number(b, "mean_ns"), Number(*c, "mean_ns"),
              kGateReportTolerance);
        Check(prefix + name, "p99_ns", Number(b, "p99_ns"), Number(*c, "p99_ns"),
              kGateReportTolerance);
      }
    }
  }

  // The one rule every gated metric obeys. A baseline value <= 0 has no
  // bound to scale.
  void Check(const std::string& row, const char* metric, double base, double cur,
             double default_tolerance) {
    if (base <= 0) {
      return;
    }
    ++out_->checked;
    if (cur > base * (1.0 + tolerance_.value_or(default_tolerance))) {
      out_->violations.push_back(GateViolation{row, metric, base, cur});
    }
  }

  std::optional<double> tolerance_;
  GateOutcome* out_;
  std::string error_;
};

}  // namespace

std::optional<GateOutcome> CompareReports(std::string_view baseline, std::string_view current,
                                          std::optional<double> tolerance,
                                          std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> base = ParseJson(baseline, &parse_error);
  const std::optional<JsonValue> cur = base ? ParseJson(current, &parse_error) : std::nullopt;
  if (!cur) {
    *error = std::string(base ? "current" : "baseline") + " is not one JSON document: " +
             parse_error;
    return std::nullopt;
  }
  GateOutcome outcome;
  outcome.kind = KindOf(*base);
  if (KindOf(*cur) != outcome.kind) {
    *error = "current report is \"" + KindOf(*cur) + "\", baseline is \"" + outcome.kind + "\"";
    return std::nullopt;
  }
  Comparator cmp(tolerance, &outcome);
  if (outcome.kind == "latency") {
    cmp.Latency(*base, *cur);
  } else if (outcome.kind == "critical_path") {
    cmp.CriticalPath(*base, *cur);
  } else if (outcome.kind == "million_flow_churn") {
    if (tolerance) {
      // Two metrics with two bounds: one number cannot replace both.
      *error = "million_flow_churn reports take no tolerance (fixed +50%/+30% bounds)";
      return std::nullopt;
    }
    cmp.MillionFlowChurn(*base, *cur);
  } else {
    *error = "no gate rules for report kind \"" + outcome.kind + "\"";
    return std::nullopt;
  }
  if (!cmp.error().empty()) {
    *error = outcome.kind + " report: " + cmp.error();
    return std::nullopt;
  }
  return outcome;
}

int RunGate(const std::string& baseline_path, const std::string& current_path,
            std::optional<double> tolerance, std::ostream& out) {
  std::string text[2];
  for (int i = 0; i < 2; ++i) {
    const std::string& path = i == 0 ? baseline_path : current_path;
    std::ifstream in(path);
    if (!in) {
      out << "bench_gate: cannot read " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text[i] = buf.str();
  }
  std::string error;
  const std::optional<GateOutcome> outcome = CompareReports(text[0], text[1], tolerance, &error);
  if (!outcome) {
    out << "bench_gate: " << error << "\n";
    return 2;
  }
  out << "bench_gate: " << outcome->kind << " report, " << outcome->checked
      << " metrics gated\n";
  for (const GateViolation& v : outcome->violations) {
    out << "bench_gate: REGRESSION " << (v.row.empty() ? "" : v.row + " ") << v.metric
        << ": baseline " << v.baseline << " -> current " << v.current << " ("
        << v.current / v.baseline << "x)\n";
  }
  const size_t n = outcome->violations.size();
  out << (n == 0 ? "bench_gate: PASS\n" : "bench_gate: FAIL (" + std::to_string(n) + ")\n");
  return n == 0 ? 0 : 1;
}

}  // namespace tas
