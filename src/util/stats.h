// Measurement utilities: running moments, latency percentiles, log-scale
// histograms, and windowed rate counters. These back every table and figure
// the benchmark harness regenerates.
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace tas {

// Running mean / min / max / variance without storing samples (Welford).
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  uint64_t count() const { return count_; }
  double mean() const;
  double min() const;
  double max() const;
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
};

// Stores samples and answers percentile queries; sorts lazily on query.
// Optionally caps retained samples via uniform reservoir sampling so
// long-running experiments stay memory-bounded.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(size_t max_samples = 1u << 20);

  void Add(double x);
  void Clear();

  // p in [0, 100]. Linear interpolation between closest ranks.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  double Max() const;
  uint64_t count() const { return total_count_; }

  // CDF points (value, cumulative fraction) downsampled to at most
  // `max_points` entries, suitable for plotting Figs 9 and 12.
  std::vector<std::pair<double, double>> Cdf(size_t max_points = 200) const;

 private:
  size_t max_samples_;
  uint64_t total_count_ = 0;
  double sum_ = 0;
  uint64_t reservoir_seed_ = 0x853c49e6748fea9bull;
  mutable bool sorted_ = false;
  mutable std::vector<double> samples_;
};

// Power-of-two bucketed histogram for quick distribution summaries.
class LogHistogram {
 public:
  LogHistogram();

  void Add(uint64_t value);
  // Folds another histogram in (bucket-wise sum) — combines per-core or
  // per-stage histograms into one distribution.
  void Merge(const LogHistogram& other);
  // Bucket-wise clamped difference against an earlier snapshot of the same
  // (cumulative, never-reset) histogram: the distribution of samples added
  // since `earlier` was copied. Windowed percentiles — e.g. an SLO watchdog
  // evaluating "p99 over the last interval" — come from
  // cur.DiffSince(prev).ApproxPercentile(p).
  LogHistogram DiffSince(const LogHistogram& earlier) const;
  uint64_t count() const { return count_; }
  // Upper bound of the smallest non-empty bucket whose cumulative count
  // covers p% (p=0 returns the first non-empty bucket's bound; an empty
  // histogram returns 0 for every p).
  uint64_t ApproxPercentile(double p) const;

 private:
  static constexpr int kBuckets = 64;
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
};

// Counts events and reports a rate over the elapsed window.
class RateCounter {
 public:
  void Start(TimeNs now) { start_ = now; }
  void Add(uint64_t n = 1) { count_ += n; }
  void AddBytes(uint64_t b) { bytes_ += b; }

  uint64_t count() const { return count_; }
  uint64_t bytes() const { return bytes_; }
  // Events per second over [start, now].
  double Rate(TimeNs now) const;
  // Bits per second over [start, now].
  double BitRate(TimeNs now) const;

 private:
  TimeNs start_ = 0;
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace tas

#endif  // SRC_UTIL_STATS_H_
