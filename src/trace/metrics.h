// Simulation metrics: counters, gauges and log-scale histograms with a
// deterministic text/JSON dump.
//
// Complements the trace timeline (trace.h): the trace answers "when and
// where", the registry answers "how much and how distributed" — total bytes
// per link class, queueing-delay percentiles, simulator queue depths. Like
// tracing, metrics are off by default (CurrentMetrics() is null) and
// instrumentation sites guard on that, so benches pay one branch when
// metrics are disabled.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/units.h"
#include "sim/run_context.h"

namespace tpu::sim {
class Simulator;
}  // namespace tpu::sim

namespace tpu::trace {

// Monotonic event count (messages sent, faults injected, ...).
struct MetricCounter {
  std::int64_t value = 0;
  void Add(std::int64_t delta) { value += delta; }
  void Reset() { value = 0; }
};

// Last-written instantaneous value (utilization, queue depth, ...).
struct MetricGauge {
  double value = 0;
  void Set(double v) { value = v; }
  // Keeps the larger of the current and new value (peak tracking).
  void Max(double v) { value = value > v ? value : v; }
  void Reset() { value = 0; }
};

// Log-scale histogram: geometric buckets (ratio 2^(1/8), ~9% wide) over the
// positive reals, with exact min/max/sum/count. Percentiles interpolate
// linearly inside the containing bucket and clamp to [min, max], so an
// empty histogram reports 0 and a single-sample histogram reports exactly
// that sample at every percentile.
class MetricHistogram {
 public:
  void Record(double value);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0; }
  // p in [0, 1]; Percentile(0.5) is the median.
  double Percentile(double p) const;
  // Forgets every recorded sample (back to the empty-histogram state).
  void Reset();

  // The bucket a positive value lands in: b = ceil(8 log2(value) - 1e-9),
  // so bucket b holds (2^((b - 1) / 8), 2^(b / 8)] and the slack keeps a
  // value rounded to a bound in the bucket that bound closes.
  static int BucketOf(double value);

 private:
  static double BucketLow(int bucket);
  static double BucketHigh(int bucket);

  std::map<int, std::int64_t> buckets_;  // ordered: percentile scans
  std::int64_t zero_or_less_ = 0;        // values <= 0 land below all buckets
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Named metrics, created on first use. Names are dotted paths
// ("net.bytes.mesh_x", "sim.peak_queue_depth"); the dump is sorted by name,
// so output is deterministic.
class MetricsRegistry {
 public:
  MetricCounter& Counter(const std::string& name);
  MetricGauge& Gauge(const std::string& name);
  MetricHistogram& Histogram(const std::string& name);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Drops every metric. Call between sweep repetitions when one registry is
  // reused (e.g. one registry installed across every sweep point) so
  // samples from one repetition cannot leak into the next one's dump.
  void Reset() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    ++epoch_;
  }
  // Counts Resets. A reference returned by Counter/Gauge/Histogram stays
  // valid until the epoch changes (or the registry dies), so hot paths can
  // bind a handle once and rebind only when this moves.
  std::uint64_t epoch() const { return epoch_; }

  // Human-readable table: one metric per line, histograms with
  // count/mean/p50/p95/p99/max.
  void WriteText(std::ostream& out) const;
  // {"counters":{...},"gauges":{...},"histograms":{...}}
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;

 private:
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, MetricGauge> gauges_;
  std::map<std::string, MetricHistogram> histograms_;
  std::uint64_t epoch_ = 0;
};

// The current registry, one member of the thread-local sim::RunContext; null
// (the default) disables metric collection.
inline MetricsRegistry* CurrentMetrics() {
  return sim::CurrentRunContext().metrics;
}

using ScopedMetrics = sim::ScopedSink<&sim::RunContext::metrics>;

// Accumulates one simulator's lifetime statistics into the registry under
// `prefix`: events processed/scheduled, peak queue depth, callback storage
// split (inline vs pooled), callback-pool allocator health (hits vs fresh vs
// oversize allocations), and queue refills (always 0; see
// Simulator::queue_refills).
void ExportSimulatorMetrics(const sim::Simulator& simulator,
                            const std::string& prefix,
                            MetricsRegistry& metrics);

}  // namespace tpu::trace
