// Continuous telemetry on the simulated clock: time series, structured
// events, anomaly watchdogs and an anomaly-triggered flight recorder.
//
// The trace subsystem (trace/trace.h) answers "when did each span run" and
// the metrics registry answers "how much in total" — neither shows how link
// utilization, queue depth, goodput or recovery state *evolve* over a run.
// This layer does: a TimeSeriesSampler (sampler.h) ticks on the simulated
// clock via telemetry-class DES events (sim::Simulator::ScheduleTelemetryAt)
// and feeds every registered probe's value into a TelemetrySession, which
//   * keeps fixed-capacity downsampled TimeSeries per probe,
//   * keeps a FlightRecorder ring of the last flight_window seconds of
//     high-resolution ticks plus recent structured events, dumped
//     retroactively when an anomaly (or a configured event such as
//     "recovery.detected") triggers,
//   * runs the anomaly/SLO watchdogs (step-time regression vs a rolling
//     baseline, goodput SLO burn rate, link-utilization collapse) on every
//     tick, recording breach intervals that cross-link — via
//     NoteSuspectLinks from the recovery controller's diagnosis — to the
//     same links the critical-path engine attributes,
//   * exports everything as deterministic JSON/CSV (simulated clock only,
//     %.12g doubles: identical runs produce byte-identical files).
//
// Null-by-default, like tracing and metrics: CurrentTelemetry() is null
// unless a session is installed, instrumentation sites guard on it, and
// telemetry-class events are excluded from user-visible simulator counters —
// with telemetry off every simulated timestamp and benchmark JSON is
// bit-identical to a build without this subsystem (asserted in
// tests/determinism_test.cc).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/run_context.h"

namespace tpu::trace {
class MetricsRegistry;
}  // namespace tpu::trace

namespace tpu::telemetry {

// Thresholds for the three anomaly/SLO watchdogs. All of them evaluate on
// every sampler tick against rolling state rebuilt per run.
struct WatchdogConfig {
  bool enabled = true;

  // Step-time regression (series "run.step_seconds"): breach when the
  // current step estimate exceeds `step_regression_factor` times the rolling
  // mean of the last `baseline_window` healthy (non-breach, nonzero)
  // samples, or when the step reads 0 while a baseline exists — the
  // controller prices a stalled machine at step 0, so that is a stall.
  double step_regression_factor = 1.5;
  int baseline_window = 8;
  // Baseline samples required before the watchdog may breach at all.
  int min_baseline_samples = 3;

  // Goodput SLO burn rate (series "run.work_rate"): the SLO is "mean work
  // rate over the last `slo_window` ticks >= slo_target x the reference
  // rate" (reference = first nonzero sample of the run, i.e. the healthy
  // rate). Burn rate is (1 - observed/reference) / (1 - slo_target); breach
  // when it reaches `slo_burn_threshold` — budget burning that many times
  // faster than allowed.
  double slo_target = 0.9;
  double slo_burn_threshold = 2.0;
  int slo_window = 8;

  // Link-utilization collapse (series "net.max_link_util"): breach when the
  // busiest link's utilization drops below `link_collapse_fraction` times
  // its rolling baseline while that baseline is at least
  // `link_min_baseline_util` — traffic that was flowing has stopped
  // (a stalled collective), as opposed to a run that never loaded the
  // network.
  double link_collapse_fraction = 0.5;
  double link_min_baseline_util = 0.05;
};

struct TelemetryConfig {
  // Simulated seconds between sampler ticks.
  SimTime sample_interval = Seconds(0.25);
  // Max stored points per series; when full, adjacent points merge pairwise
  // and the per-point stride doubles (must be even, >= 2).
  int series_capacity = 64;
  // Seconds of high-resolution history the flight recorder retains.
  SimTime flight_window = Seconds(20);
  // Structured events retained in the flight ring.
  int flight_max_events = 64;
  // Dumps kept per run; further triggers count as dropped.
  int max_dumps = 4;
  // Min simulated seconds between dumps with the same trigger name.
  SimTime dump_cooldown = Seconds(60);
  // Structured events kept per run (ring: oldest dropped first).
  int max_run_events = 256;
  // Structured-event names that retroactively dump the flight recorder the
  // instant they are recorded — by default the recovery controller's
  // detection event, so the dump's trigger timestamp *is* the fault's
  // detection instant.
  std::vector<std::string> dump_on_events = {"recovery.detected"};
  WatchdogConfig watchdog;
};

// Fixed-capacity downsampled series. Raw samples accumulate into buckets of
// `stride()` consecutive ticks; when the point store fills, adjacent points
// merge pairwise and the stride doubles, so memory stays bounded while the
// full run remains covered at progressively coarser resolution.
class TimeSeries {
 public:
  struct Point {
    SimTime t = 0;  // timestamp of the bucket's first raw sample
    double mean = 0;
    double min = 0;
    double max = 0;
    int count = 0;
  };

  TimeSeries(std::string name, int capacity);

  void Add(SimTime t, double value);

  const std::string& name() const { return name_; }
  // Raw samples currently merged into each stored point.
  int stride() const { return stride_; }
  std::int64_t samples() const { return samples_; }
  // Stored points plus the still-filling partial bucket (if any).
  std::vector<Point> Points() const;

 private:
  std::string name_;
  int capacity_;
  int stride_ = 1;
  std::vector<Point> points_;
  Point pending_;
  bool has_pending_ = false;
  std::int64_t samples_ = 0;
};

// A timestamped out-of-band occurrence: recovery transitions, watchdog
// firings, fault injections — anything series can't express.
struct StructuredEvent {
  SimTime t = 0;
  std::string name;
  std::string detail;
};

// One retroactive snapshot of the flight recorder: the high-resolution rows
// (times x columns) and structured events that were in the ring when
// `trigger` fired at `triggered_at`.
struct FlightDump {
  std::string trigger;
  SimTime triggered_at = 0;
  std::vector<std::string> columns;
  std::vector<SimTime> times;
  std::vector<std::vector<double>> rows;  // rows[i] aligns with columns
  std::vector<StructuredEvent> events;
};

// One watchdog's breach interval: opened at the first breaching tick,
// extended while breaches continue, closed by the first healthy tick.
// `suspect_links` is backfilled by NoteSuspectLinks (the recovery
// controller's diagnosis) so the interval cross-links to the same links the
// critical-path report attributes.
struct WatchdogFiring {
  std::string watchdog;  // "step_regression" | "slo_burn" | "link_collapse"
  std::string series;
  SimTime first_breach = 0;
  SimTime last_breach = 0;
  int breaches = 0;
  double baseline = 0;  // rolling baseline at the opening breach
  double worst = 0;     // most extreme breaching value
  bool open = true;
  std::vector<int> suspect_links;
};

// Everything telemetry collected for one run (one recovery job, one
// benchmark scenario, ...). Sessions archive a RunData per CommitRun.
struct RunData {
  std::string label;
  SimTime started_at = 0;
  SimTime last_sample_at = 0;
  std::int64_t ticks = 0;
  std::vector<TimeSeries> series;  // registration order
  std::vector<StructuredEvent> events;
  int dropped_events = 0;
  std::vector<WatchdogFiring> firings;
  std::vector<FlightDump> dumps;
  int dropped_dumps = 0;
  std::vector<int> suspect_links;
};

// The telemetry sink: owns per-run series/events/watchdog/flight-recorder
// state and the deterministic exporters. A session outlives the simulators
// it observes — BeginRun/CommitRun bracket each simulated run. An
// uncommitted run is discarded by the next BeginRun and exported as the
// open run until then; a recovery job commits its run only when the work
// completed.
//
// Threading: like TraceRecorder and MetricsRegistry, a session must only be
// written from one thread at a time.
class TelemetrySession {
 public:
  explicit TelemetrySession(TelemetryConfig config = {});

  const TelemetryConfig& config() const { return config_; }

  void BeginRun(const std::string& label, SimTime started_at = 0);
  void CommitRun();
  bool in_run() const { return in_run_; }

  // One sampler tick: every probe's value at simulated time t, in the
  // sampler's registration order (`columns` is the same vector every tick).
  // Feeds the series, the flight ring and the watchdogs.
  void RecordTick(SimTime t, const std::vector<std::string>& columns,
                  const std::vector<double>& values);

  // Records a structured event into the run and the flight ring; names
  // listed in config.dump_on_events trigger a retroactive dump at exactly t.
  void RecordEvent(SimTime t, std::string name, std::string detail = {});

  // Attributes the current anomaly to concrete links (from the recovery
  // controller's diagnosis): merged into the run's suspect set and into
  // every open watchdog firing.
  void NoteSuspectLinks(const std::vector<int>& links);

  // Retroactively snapshots the flight ring. Applies the per-trigger-name
  // cooldown and the max_dumps cap.
  void TriggerDump(const std::string& trigger, SimTime t);

  const std::vector<RunData>& runs() const { return runs_; }
  const RunData& current_run() const { return current_; }

  // {"config":{...},"runs":[...]} — committed runs plus the current run if
  // it holds data. Simulated-clock values only; byte-identical across
  // identical runs.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
  // Long-format series table: run,series,t,mean,min,max,count.
  void WriteCsv(std::ostream& out) const;
  // telemetry.* counters: ticks, events, dumps, per-watchdog firings.
  void ExportMetrics(trace::MetricsRegistry& metrics) const;

 private:
  struct WatchdogState {
    // Rolling baseline of recent healthy samples (step regression and link
    // collapse) or the SLO window (burn rate).
    std::deque<double> window;
    double reference = 0;  // SLO: first nonzero work-rate sample
    bool breaching = false;
    int firing_index = -1;  // into current_.firings while breaching
  };

  void ResetRunState();
  void EvaluateWatchdogs(SimTime t, const std::vector<std::string>& columns,
                         const std::vector<double>& values);
  void OpenOrExtendFiring(WatchdogState& state, const char* watchdog,
                          const char* series, SimTime t, double baseline,
                          double value);
  void CloseFiring(WatchdogState& state);
  void AppendRunJson(std::ostream& out, const RunData& run) const;

  TelemetryConfig config_;
  bool in_run_ = false;
  RunData current_;
  std::vector<RunData> runs_;

  // Watchdog input columns, resolved once per run from the sampler's column
  // order (-2 = unresolved, -1 = probe not registered).
  int step_col_ = -2;
  int slo_col_ = -2;
  int link_col_ = -2;

  // Flight ring: the last flight_capacity_ ticks, plus recent structured
  // events. head_ is the oldest row's position once the ring wraps.
  int flight_capacity_ = 1;
  std::vector<SimTime> flight_times_;
  std::vector<std::vector<double>> flight_rows_;
  std::vector<std::string> flight_columns_;
  std::size_t flight_head_ = 0;
  std::deque<StructuredEvent> flight_events_;
  std::map<std::string, SimTime> last_dump_at_;  // per trigger name

  WatchdogState step_state_;
  WatchdogState slo_state_;
  WatchdogState link_state_;

  // Session-lifetime totals for ExportMetrics.
  std::int64_t total_ticks_ = 0;
  std::int64_t total_events_ = 0;
  std::int64_t total_dumps_ = 0;
  std::int64_t suppressed_dumps_ = 0;
  std::map<std::string, std::int64_t> firing_counts_;
};

// The current session, one member of the thread-local sim::RunContext; null
// (the default) disables all telemetry instrumentation. Same contract as
// trace::CurrentTrace().
inline TelemetrySession* CurrentTelemetry() {
  return sim::CurrentRunContext().telemetry;
}

using ScopedTelemetry = sim::ScopedSink<&sim::RunContext::telemetry>;

}  // namespace tpu::telemetry
