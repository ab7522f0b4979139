#include "src/obs/metrics_registry.h"

#include <algorithm>

namespace spotcache {

std::string MetricsRegistry::FullName(std::string_view name,
                                      MetricLabels labels) {
  std::string full(name);
  if (labels.empty()) {
    return full;
  }
  std::sort(labels.begin(), labels.end());
  full += '{';
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      full += ',';
    }
    full += labels[i].first;
    full += '=';
    full += labels[i].second;
  }
  full += '}';
  return full;
}

void MetricsRegistry::SplitFullName(std::string_view full, std::string* base,
                                    MetricLabels* labels) {
  const size_t brace = full.find('{');
  if (brace == std::string_view::npos) {
    *base = std::string(full);
    return;
  }
  *base = std::string(full.substr(0, brace));
  size_t pos = brace + 1;
  while (pos < full.size() && full[pos] != '}') {
    const size_t comma = full.find(',', pos);
    const size_t end =
        comma == std::string_view::npos ? full.size() - 1 : comma;  // '}' or ','
    const std::string_view pair = full.substr(pos, end - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      labels->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
    pos = end + 1;
  }
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     MetricLabels labels) {
  return &counters_[FullName(name, std::move(labels))];
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  return &gauges_[FullName(name, std::move(labels))];
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         MetricLabels labels) {
  return &histograms_[FullName(name, std::move(labels))];
}

void MetricsRegistry::AddSample(std::string_view name, SimTime t, double value,
                                MetricLabels labels) {
  series_[FullName(name, std::move(labels))].points.push_back(
      {t.micros(), value});
}

int64_t MetricsRegistry::CounterValue(std::string_view name,
                                      MetricLabels labels) const {
  const auto it = counters_.find(FullName(name, std::move(labels)));
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricsRegistry::GaugeValue(std::string_view name,
                                   MetricLabels labels) const {
  const auto it = gauges_.find(FullName(name, std::move(labels)));
  return it == gauges_.end() ? 0.0 : it->second.value();
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  // Keys are already canonical full names, so re-registering one by its
  // full key lands on the same metric.
  for (const auto& [name, counter] : other.counters()) {
    GetCounter(name)->Increment(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges()) {
    GetGauge(name)->Add(gauge.value());
  }
  for (const auto& [name, hist] : other.histograms()) {
    GetHistogram(name)->MergeFrom(hist);
  }
}

}  // namespace spotcache
