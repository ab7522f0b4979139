// Structured metrics registry: named counters, gauges, histograms, and
// sim-time series, organized by component-style names ("controller/plan_ms",
// "spot/revocations") with optional labels ({market=us-east-1c}).
//
// Design points:
//   * Get* returns a stable pointer — components resolve their metrics once
//     (at attach time) and then update through the pointer, so hot paths pay
//     one null check + one increment, never a map lookup.
//   * Iteration order is the lexicographic full-name order (std::map), so
//     every exporter snapshot is deterministic.
//   * Histograms are backed by util's LogHistogram (O(1) record, ~5 %
//     relative-error quantiles) — cheap enough for per-request recording.
//   * Series are keyed by SimTime, not wall time, so exported CSV streams are
//     bit-identical under deterministic replay.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/stats.h"
#include "src/util/time.h"

namespace spotcache {

/// Sorted-by-key (label, value) pairs; callers may pass them in any order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// A count with a single writer that any thread may read. Increment is a
/// relaxed atomic load and store, not a locked read-modify-write, so the
/// owning thread pays what a plain add costs while a reactor's `stats` sums
/// its peers' counts. Two threads must never write one Counter unless a
/// lock they both hold orders the writes.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  /// For porting pre-aggregated totals (e.g. FaultCounters) onto the registry.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Histogram {
 public:
  void Record(double v) { hist_.Record(v); }
  uint64_t count() const { return hist_.count(); }
  double mean() const { return hist_.mean(); }
  double sum() const { return hist_.sum(); }
  double max_recorded() const { return hist_.max_recorded(); }
  double Quantile(double q) const { return hist_.Quantile(q); }
  /// Batched quantiles (ascending `qs`); one cumulative pass.
  std::vector<double> Quantiles(const std::vector<double>& qs) const {
    return hist_.Quantiles(qs);
  }

  /// Folds another histogram's samples into this one (exact on bucket
  /// counts; see LogHistogram::Merge). All registry histograms share the
  /// same bucket geometry, so any two are mergeable.
  void MergeFrom(const Histogram& other) { hist_.Merge(other.hist_); }
  /// The underlying log-bucketed histogram (per-connection recorders merge
  /// through this when aggregating outside a registry).
  const LogHistogram& log_histogram() const { return hist_; }

 private:
  LogHistogram hist_{1e-6, 1.05};
};

/// An append-only (sim time, value) series for CSV export.
struct MetricSeries {
  struct Point {
    int64_t t_us = 0;
    double value = 0.0;
  };
  std::vector<Point> points;
};

class MetricsRegistry {
 public:
  /// Canonical full name: `name` + "{k=v,...}" with labels sorted by key
  /// (empty labels add nothing). Two Get* calls with the same canonical name
  /// return the same object.
  static std::string FullName(std::string_view name, MetricLabels labels);
  /// The inverse of FullName: splits "spot/revocations{market=m4.L-c}" into
  /// its base name and its label pairs, in their canonical order.
  static void SplitFullName(std::string_view full, std::string* base,
                            MetricLabels* labels);

  Counter* GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge* GetGauge(std::string_view name, MetricLabels labels = {});
  Histogram* GetHistogram(std::string_view name, MetricLabels labels = {});

  /// Appends a sample to the named series (created on first use).
  void AddSample(std::string_view name, SimTime t, double value,
                 MetricLabels labels = {});

  /// Value of a counter, or 0 if it was never registered.
  int64_t CounterValue(std::string_view name, MetricLabels labels = {}) const;
  /// Value of a gauge, or 0.0 if it was never registered.
  double GaugeValue(std::string_view name, MetricLabels labels = {}) const;

  /// Deterministically ordered views for exporters.
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, MetricSeries>& series() const { return series_; }

  /// Adds `other` into this registry: counters and gauges sum, histograms
  /// merge bucket-exactly (one shared geometry). Series are not merged.
  void MergeFrom(const MetricsRegistry& other);

 private:
  // std::map: stable addresses across inserts (Get* pointers never dangle).
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, MetricSeries> series_;
};

}  // namespace spotcache
