#include "trace/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "sim/simulator.h"

namespace tpu::trace {
namespace {

// Thread-local for the same reason as the trace recorder (trace.cc):
// worker threads running throwaway or parallel simulations must not race on
// (or pollute) the main thread's registry.
thread_local MetricsRegistry* g_metrics = nullptr;

// Buckets per doubling of the value; 8 gives ~9%-wide buckets, tight enough
// that interpolated percentiles are within a few percent of exact.
constexpr int kBucketsPerOctave = 8;

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

MetricsRegistry* CurrentMetrics() { return g_metrics; }
void SetCurrentMetrics(MetricsRegistry* metrics) { g_metrics = metrics; }

int MetricHistogram::BucketOf(double value) {
  // value in (BucketLow(b), BucketHigh(b)]  with bounds 2^(b / 8).
  return static_cast<int>(
      std::ceil(std::log2(value) * kBucketsPerOctave - 1e-9));
}

double MetricHistogram::BucketLow(int bucket) {
  return std::exp2(static_cast<double>(bucket - 1) / kBucketsPerOctave);
}

double MetricHistogram::BucketHigh(int bucket) {
  return std::exp2(static_cast<double>(bucket) / kBucketsPerOctave);
}

void MetricHistogram::Record(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (value <= 0) {
    ++zero_or_less_;
    return;
  }
  ++buckets_[BucketOf(value)];
}

double MetricHistogram::Percentile(double p) const {
  TPU_CHECK_GE(p, 0.0);
  TPU_CHECK_LE(p, 1.0);
  if (count_ == 0) return 0;
  // Degenerate distributions are exact, not interpolated: a single-sample
  // or all-equal histogram reports the sample itself at every percentile.
  if (min_ == max_) return min_;
  if (p <= 0.0) return min_;
  if (p >= 1.0) return max_;
  // Rank of the requested percentile among the sorted samples (1-based).
  const double rank = p * static_cast<double>(count_);
  double seen = static_cast<double>(zero_or_less_);
  if (rank <= seen) {
    // Inside the <=0 block: interpolate from the observed minimum up to the
    // block's top (zero, or the observed max when even that is negative) —
    // clamp(0, min, max) here would misreport all-negative histograms.
    const double high = std::min(0.0, max_);
    const double fraction = rank / seen;
    return std::clamp(min_ + fraction * (high - min_), min_, max_);
  }
  for (const auto& [bucket, bucket_count] : buckets_) {
    const double next = seen + static_cast<double>(bucket_count);
    if (rank <= next) {
      // Linear interpolation inside the bucket, clamped to the observed
      // range so single-sample and narrow histograms stay exact.
      const double fraction = (rank - seen) / bucket_count;
      const double low = BucketLow(bucket);
      const double high = BucketHigh(bucket);
      return std::clamp(low + fraction * (high - low), min_, max_);
    }
    seen = next;
  }
  return max_;
}

void MetricHistogram::Reset() {
  buckets_.clear();
  zero_or_less_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

MetricCounter& MetricsRegistry::Counter(const std::string& name) {
  return counters_[name];
}

MetricGauge& MetricsRegistry::Gauge(const std::string& name) {
  return gauges_[name];
}

MetricHistogram& MetricsRegistry::Histogram(const std::string& name) {
  return histograms_[name];
}

void MetricsRegistry::WriteText(std::ostream& out) const {
  for (const auto& [name, counter] : counters_) {
    out << name << " = " << counter.value << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " = " << FormatDouble(gauge.value) << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << ": count=" << histogram.count()
        << " mean=" << FormatDouble(histogram.mean())
        << " p50=" << FormatDouble(histogram.Percentile(0.50))
        << " p95=" << FormatDouble(histogram.Percentile(0.95))
        << " p99=" << FormatDouble(histogram.Percentile(0.99))
        << " max=" << FormatDouble(histogram.max()) << "\n";
  }
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  auto write_map = [&out](const auto& map, const auto& emit) {
    bool first = true;
    for (const auto& [name, metric] : map) {
      if (!first) out << ",";
      first = false;
      out << "\"" << name << "\":";
      emit(metric);
    }
  };
  out << "{\"counters\":{";
  write_map(counters_,
            [&out](const MetricCounter& c) { out << c.value; });
  out << "},\"gauges\":{";
  write_map(gauges_,
            [&out](const MetricGauge& g) { out << FormatDouble(g.value); });
  out << "},\"histograms\":{";
  write_map(histograms_, [&out](const MetricHistogram& h) {
    out << "{\"count\":" << h.count() << ",\"mean\":" << FormatDouble(h.mean())
        << ",\"p50\":" << FormatDouble(h.Percentile(0.50))
        << ",\"p95\":" << FormatDouble(h.Percentile(0.95))
        << ",\"p99\":" << FormatDouble(h.Percentile(0.99))
        << ",\"min\":" << FormatDouble(h.min())
        << ",\"max\":" << FormatDouble(h.max()) << "}";
  });
  out << "}}\n";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

void ExportSimulatorMetrics(const sim::Simulator& simulator,
                            const std::string& prefix,
                            MetricsRegistry& metrics) {
  metrics.Counter(prefix + ".events_processed")
      .Add(static_cast<std::int64_t>(simulator.events_processed()));
  metrics.Counter(prefix + ".events_scheduled")
      .Add(static_cast<std::int64_t>(simulator.events_scheduled()));
  metrics.Gauge(prefix + ".peak_queue_depth")
      .Max(static_cast<double>(simulator.peak_queue_depth()));
  metrics.Counter(prefix + ".callbacks_inline")
      .Add(static_cast<std::int64_t>(simulator.callbacks_inline()));
  metrics.Counter(prefix + ".callbacks_pooled")
      .Add(static_cast<std::int64_t>(simulator.callbacks_pooled()));
  metrics.Counter(prefix + ".pool_hits")
      .Add(static_cast<std::int64_t>(simulator.pool_hits()));
  metrics.Counter(prefix + ".pool_fresh_allocs")
      .Add(static_cast<std::int64_t>(simulator.pool_fresh_allocs()));
  metrics.Counter(prefix + ".pool_oversize_allocs")
      .Add(static_cast<std::int64_t>(simulator.pool_oversize_allocs()));
  metrics.Counter(prefix + ".queue_refills")
      .Add(static_cast<std::int64_t>(simulator.queue_refills()));
  // Telemetry-class events are accounted separately and only when present,
  // so a telemetry-off run's metrics dump is byte-identical to before the
  // telemetry subsystem existed.
  if (simulator.telemetry_events_scheduled() > 0) {
    metrics.Counter(prefix + ".telemetry_events_scheduled")
        .Add(static_cast<std::int64_t>(simulator.telemetry_events_scheduled()));
    metrics.Counter(prefix + ".telemetry_events_processed")
        .Add(static_cast<std::int64_t>(simulator.telemetry_events_processed()));
  }
}

}  // namespace tpu::trace
