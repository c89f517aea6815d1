#include "telemetry/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::telemetry {
namespace {

// %.12g, the same precision RecoveryTimeline::ToJson uses: enough that
// distinct simulated values stay distinct, short enough that the files stay
// readable. All values are pure functions of the simulation, so identical
// runs produce byte-identical output.
void AppendNum(std::ostream& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out << buf;
}

void AppendString(std::ostream& out, const std::string& value) {
  out << '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

double WindowMean(const std::deque<double>& window) {
  if (window.empty()) return 0;
  double sum = 0;
  for (const double v : window) sum += v;
  return sum / static_cast<double>(window.size());
}

void PushWindow(std::deque<double>& window, double value, int capacity) {
  window.push_back(value);
  while (static_cast<int>(window.size()) > capacity) window.pop_front();
}

int FindColumn(const std::vector<std::string>& columns, const char* name) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------------
// TimeSeries

TimeSeries::TimeSeries(std::string name, int capacity)
    : name_(std::move(name)), capacity_(capacity) {
  TPU_CHECK_GE(capacity_, 2);
  TPU_CHECK_EQ(capacity_ % 2, 0);
  points_.reserve(capacity_);
}

void TimeSeries::Add(SimTime t, double value) {
  ++samples_;
  if (!has_pending_) {
    pending_ = Point{t, value, value, value, 1};
    has_pending_ = true;
  } else {
    pending_.mean += value;  // running sum until the bucket closes
    pending_.min = std::min(pending_.min, value);
    pending_.max = std::max(pending_.max, value);
    ++pending_.count;
  }
  if (pending_.count < stride_) return;
  pending_.mean /= pending_.count;
  points_.push_back(pending_);
  has_pending_ = false;
  if (static_cast<int>(points_.size()) < capacity_) return;
  // Full: merge adjacent pairs and double the stride. Capacity is even, so
  // the merge is exact and the series keeps covering the whole run.
  for (std::size_t i = 0; i < points_.size() / 2; ++i) {
    const Point& a = points_[2 * i];
    const Point& b = points_[2 * i + 1];
    const int count = a.count + b.count;
    points_[i] = Point{a.t,
                       (a.mean * a.count + b.mean * b.count) / count,
                       std::min(a.min, b.min), std::max(a.max, b.max), count};
  }
  points_.resize(points_.size() / 2);
  stride_ *= 2;
}

std::vector<TimeSeries::Point> TimeSeries::Points() const {
  std::vector<Point> result = points_;
  if (has_pending_) {
    Point partial = pending_;
    partial.mean /= partial.count;
    result.push_back(partial);
  }
  return result;
}

// ---------------------------------------------------------------------------
// TelemetrySession

TelemetrySession::TelemetrySession(TelemetryConfig config)
    : config_(std::move(config)) {
  TPU_CHECK_GT(config_.sample_interval, 0.0);
  TPU_CHECK_GE(config_.series_capacity, 2);
  TPU_CHECK_EQ(config_.series_capacity % 2, 0);
  TPU_CHECK_GT(config_.flight_window, 0.0);
  flight_capacity_ = std::max(
      1, static_cast<int>(
             std::llround(config_.flight_window / config_.sample_interval)));
}

void TelemetrySession::ResetRunState() {
  flight_times_.clear();
  flight_rows_.clear();
  flight_columns_.clear();
  flight_head_ = 0;
  flight_events_.clear();
  last_dump_at_.clear();
  step_state_ = WatchdogState{};
  slo_state_ = WatchdogState{};
  link_state_ = WatchdogState{};
  step_col_ = slo_col_ = link_col_ = -2;
}

void TelemetrySession::BeginRun(const std::string& label, SimTime started_at) {
  // An uncommitted run (e.g. a recovery job whose last horizon expired) is
  // discarded: only runs the caller commits outlive the next BeginRun.
  current_ = RunData{};
  current_.label = label;
  current_.started_at = started_at;
  in_run_ = true;
  ResetRunState();
}

void TelemetrySession::CommitRun() {
  if (!in_run_) return;
  runs_.push_back(std::move(current_));
  current_ = RunData{};
  in_run_ = false;
  ResetRunState();
}

void TelemetrySession::RecordTick(SimTime t,
                                  const std::vector<std::string>& columns,
                                  const std::vector<double>& values) {
  if (!in_run_ || columns.empty()) return;
  TPU_CHECK_EQ(columns.size(), values.size());
  if (current_.series.empty()) {
    current_.series.reserve(columns.size());
    for (const std::string& name : columns) {
      current_.series.emplace_back(name, config_.series_capacity);
    }
    flight_columns_ = columns;
  }
  TPU_CHECK_EQ(current_.series.size(), values.size());
  ++current_.ticks;
  ++total_ticks_;
  current_.last_sample_at = t;
  for (std::size_t i = 0; i < values.size(); ++i) {
    current_.series[i].Add(t, values[i]);
  }
  // Flight ring: overwrite the oldest row once full.
  if (static_cast<int>(flight_rows_.size()) < flight_capacity_) {
    flight_times_.push_back(t);
    flight_rows_.push_back(values);
  } else {
    flight_times_[flight_head_] = t;
    flight_rows_[flight_head_] = values;
    flight_head_ = (flight_head_ + 1) % flight_rows_.size();
  }
  if (config_.watchdog.enabled) EvaluateWatchdogs(t, columns, values);
}

void TelemetrySession::RecordEvent(SimTime t, std::string name,
                                   std::string detail) {
  if (!in_run_) return;
  ++total_events_;
  StructuredEvent event{t, std::move(name), std::move(detail)};
  flight_events_.push_back(event);
  while (static_cast<int>(flight_events_.size()) > config_.flight_max_events) {
    flight_events_.pop_front();
  }
  if (static_cast<int>(current_.events.size()) >= config_.max_run_events) {
    current_.events.erase(current_.events.begin());
    ++current_.dropped_events;
  }
  const std::string& recorded_name = event.name;
  const bool dump = std::find(config_.dump_on_events.begin(),
                              config_.dump_on_events.end(),
                              recorded_name) != config_.dump_on_events.end();
  current_.events.push_back(std::move(event));
  if (dump) TriggerDump(current_.events.back().name, t);
}

void TelemetrySession::NoteSuspectLinks(const std::vector<int>& links) {
  if (!in_run_ || links.empty()) return;
  const auto merge = [&links](std::vector<int>& into) {
    into.insert(into.end(), links.begin(), links.end());
    std::sort(into.begin(), into.end());
    into.erase(std::unique(into.begin(), into.end()), into.end());
  };
  merge(current_.suspect_links);
  for (WatchdogFiring& firing : current_.firings) {
    if (firing.open) merge(firing.suspect_links);
  }
}

void TelemetrySession::TriggerDump(const std::string& trigger, SimTime t) {
  if (!in_run_) return;
  const auto it = last_dump_at_.find(trigger);
  if (it != last_dump_at_.end() && t - it->second < config_.dump_cooldown) {
    ++suppressed_dumps_;
    return;
  }
  if (static_cast<int>(current_.dumps.size()) >= config_.max_dumps) {
    ++current_.dropped_dumps;
    ++suppressed_dumps_;
    return;
  }
  last_dump_at_[trigger] = t;
  FlightDump dump;
  dump.trigger = trigger;
  dump.triggered_at = t;
  dump.columns = flight_columns_;
  // Ring rows oldest -> newest.
  const std::size_t n = flight_rows_.size();
  dump.times.reserve(n);
  dump.rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = (flight_head_ + i) % n;
    dump.times.push_back(flight_times_[pos]);
    dump.rows.push_back(flight_rows_[pos]);
  }
  dump.events.assign(flight_events_.begin(), flight_events_.end());
  current_.dumps.push_back(std::move(dump));
  ++total_dumps_;
}

void TelemetrySession::OpenOrExtendFiring(WatchdogState& state,
                                          const char* watchdog,
                                          const char* series, SimTime t,
                                          double baseline, double value) {
  if (state.breaching) {
    WatchdogFiring& firing = current_.firings[state.firing_index];
    firing.last_breach = t;
    ++firing.breaches;
    // "Worst" is the most extreme breaching value: high steps and burn
    // rates breach upward, collapsed utilization breaches downward.
    if (value > firing.baseline) {
      firing.worst = std::max(firing.worst, value);
    } else {
      firing.worst = std::min(firing.worst, value);
    }
    return;
  }
  WatchdogFiring firing;
  firing.watchdog = watchdog;
  firing.series = series;
  firing.first_breach = firing.last_breach = t;
  firing.breaches = 1;
  firing.baseline = baseline;
  firing.worst = value;
  firing.suspect_links = current_.suspect_links;
  state.breaching = true;
  state.firing_index = static_cast<int>(current_.firings.size());
  current_.firings.push_back(std::move(firing));
  ++firing_counts_[watchdog];
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    recorder->Instant(recorder->Track("system", "telemetry"),
                      std::string("telemetry: ") + watchdog, t);
  }
  TriggerDump(watchdog, t);
}

void TelemetrySession::CloseFiring(WatchdogState& state) {
  if (!state.breaching) return;
  current_.firings[state.firing_index].open = false;
  state.breaching = false;
  state.firing_index = -1;
}

void TelemetrySession::EvaluateWatchdogs(
    SimTime t, const std::vector<std::string>& columns,
    const std::vector<double>& values) {
  const WatchdogConfig& wd = config_.watchdog;
  if (step_col_ == -2) {
    step_col_ = FindColumn(columns, "run.step_seconds");
    slo_col_ = FindColumn(columns, "run.work_rate");
    link_col_ = FindColumn(columns, "net.max_link_util");
  }

  // Step-time regression: the current step estimate against the rolling
  // mean of recent healthy samples. A zero step with a nonzero baseline is
  // the controller's stalled machine — the hardest regression there is.
  if (step_col_ >= 0) {
    const double value = values[step_col_];
    WatchdogState& state = step_state_;
    double baseline = 0;
    bool breach = false;
    if (static_cast<int>(state.window.size()) >= wd.min_baseline_samples) {
      baseline = WindowMean(state.window);
      breach = baseline > 0 &&
               (value <= 0 || value > wd.step_regression_factor * baseline);
    }
    if (breach) {
      OpenOrExtendFiring(state, "step_regression", "run.step_seconds", t,
                         baseline, value);
    } else {
      CloseFiring(state);
      if (value > 0) PushWindow(state.window, value, wd.baseline_window);
    }
  }

  // Goodput SLO burn rate: how fast the error budget burns relative to the
  // reference (healthy) rate.
  if (slo_col_ >= 0 && wd.slo_target < 1.0) {
    const double value = values[slo_col_];
    WatchdogState& state = slo_state_;
    if (state.reference <= 0 && value > 0) state.reference = value;
    PushWindow(state.window, value, wd.slo_window);
    bool breach = false;
    double burn = 0;
    if (state.reference > 0) {
      const double observed = WindowMean(state.window) / state.reference;
      burn = (1.0 - observed) / (1.0 - wd.slo_target);
      breach = burn >= wd.slo_burn_threshold;
    }
    if (breach) {
      OpenOrExtendFiring(state, "slo_burn", "run.work_rate", t,
                         state.reference, burn);
    } else {
      CloseFiring(state);
    }
  }

  // Link-utilization collapse: the busiest link went quiet relative to its
  // own rolling baseline — traffic that was flowing has stopped.
  if (link_col_ >= 0) {
    const double value = values[link_col_];
    WatchdogState& state = link_state_;
    double baseline = 0;
    bool breach = false;
    if (static_cast<int>(state.window.size()) >= wd.min_baseline_samples) {
      baseline = WindowMean(state.window);
      breach = baseline >= wd.link_min_baseline_util &&
               value < wd.link_collapse_fraction * baseline;
    }
    if (breach) {
      OpenOrExtendFiring(state, "link_collapse", "net.max_link_util", t,
                         baseline, value);
    } else {
      CloseFiring(state);
      PushWindow(state.window, value, wd.baseline_window);
    }
  }
}

// ---------------------------------------------------------------------------
// Exporters

void TelemetrySession::AppendRunJson(std::ostream& out,
                                     const RunData& run) const {
  out << "{\"label\":";
  AppendString(out, run.label);
  out << ",\"started_at\":";
  AppendNum(out, run.started_at);
  out << ",\"last_sample_at\":";
  AppendNum(out, run.last_sample_at);
  out << ",\"ticks\":" << run.ticks;

  out << ",\"series\":[";
  for (std::size_t i = 0; i < run.series.size(); ++i) {
    const TimeSeries& series = run.series[i];
    if (i > 0) out << ",";
    out << "{\"name\":";
    AppendString(out, series.name());
    out << ",\"stride\":" << series.stride()
        << ",\"samples\":" << series.samples() << ",\"points\":[";
    const std::vector<TimeSeries::Point> points = series.Points();
    for (std::size_t j = 0; j < points.size(); ++j) {
      const TimeSeries::Point& point = points[j];
      if (j > 0) out << ",";
      out << "{\"t\":";
      AppendNum(out, point.t);
      out << ",\"mean\":";
      AppendNum(out, point.mean);
      out << ",\"min\":";
      AppendNum(out, point.min);
      out << ",\"max\":";
      AppendNum(out, point.max);
      out << ",\"count\":" << point.count << "}";
    }
    out << "]}";
  }
  out << "]";

  out << ",\"events\":[";
  for (std::size_t i = 0; i < run.events.size(); ++i) {
    const StructuredEvent& event = run.events[i];
    if (i > 0) out << ",";
    out << "{\"t\":";
    AppendNum(out, event.t);
    out << ",\"name\":";
    AppendString(out, event.name);
    if (!event.detail.empty()) {
      out << ",\"detail\":";
      AppendString(out, event.detail);
    }
    out << "}";
  }
  out << "]";
  if (run.dropped_events > 0) {
    out << ",\"dropped_events\":" << run.dropped_events;
  }

  out << ",\"watchdogs\":[";
  for (std::size_t i = 0; i < run.firings.size(); ++i) {
    const WatchdogFiring& firing = run.firings[i];
    if (i > 0) out << ",";
    out << "{\"watchdog\":";
    AppendString(out, firing.watchdog);
    out << ",\"series\":";
    AppendString(out, firing.series);
    out << ",\"first_breach\":";
    AppendNum(out, firing.first_breach);
    out << ",\"last_breach\":";
    AppendNum(out, firing.last_breach);
    out << ",\"breaches\":" << firing.breaches << ",\"baseline\":";
    AppendNum(out, firing.baseline);
    out << ",\"worst\":";
    AppendNum(out, firing.worst);
    out << ",\"open\":" << (firing.open ? "true" : "false")
        << ",\"suspect_links\":[";
    for (std::size_t j = 0; j < firing.suspect_links.size(); ++j) {
      if (j > 0) out << ",";
      out << firing.suspect_links[j];
    }
    out << "]}";
  }
  out << "]";

  out << ",\"dumps\":[";
  for (std::size_t i = 0; i < run.dumps.size(); ++i) {
    const FlightDump& dump = run.dumps[i];
    if (i > 0) out << ",";
    out << "{\"trigger\":";
    AppendString(out, dump.trigger);
    out << ",\"triggered_at\":";
    AppendNum(out, dump.triggered_at);
    out << ",\"columns\":[";
    for (std::size_t j = 0; j < dump.columns.size(); ++j) {
      if (j > 0) out << ",";
      AppendString(out, dump.columns[j]);
    }
    out << "],\"times\":[";
    for (std::size_t j = 0; j < dump.times.size(); ++j) {
      if (j > 0) out << ",";
      AppendNum(out, dump.times[j]);
    }
    out << "],\"rows\":[";
    for (std::size_t j = 0; j < dump.rows.size(); ++j) {
      if (j > 0) out << ",";
      out << "[";
      for (std::size_t k = 0; k < dump.rows[j].size(); ++k) {
        if (k > 0) out << ",";
        AppendNum(out, dump.rows[j][k]);
      }
      out << "]";
    }
    out << "],\"events\":[";
    for (std::size_t j = 0; j < dump.events.size(); ++j) {
      const StructuredEvent& event = dump.events[j];
      if (j > 0) out << ",";
      out << "{\"t\":";
      AppendNum(out, event.t);
      out << ",\"name\":";
      AppendString(out, event.name);
      out << "}";
    }
    out << "]}";
  }
  out << "]";
  if (run.dropped_dumps > 0) out << ",\"dropped_dumps\":" << run.dropped_dumps;

  out << ",\"suspect_links\":[";
  for (std::size_t i = 0; i < run.suspect_links.size(); ++i) {
    if (i > 0) out << ",";
    out << run.suspect_links[i];
  }
  out << "]}";
}

void TelemetrySession::WriteJson(std::ostream& out) const {
  const WatchdogConfig& wd = config_.watchdog;
  out << "{\"config\":{\"sample_interval\":";
  AppendNum(out, config_.sample_interval);
  out << ",\"series_capacity\":" << config_.series_capacity
      << ",\"flight_window\":";
  AppendNum(out, config_.flight_window);
  out << ",\"flight_max_events\":" << config_.flight_max_events
      << ",\"max_dumps\":" << config_.max_dumps << ",\"dump_cooldown\":";
  AppendNum(out, config_.dump_cooldown);
  out << ",\"watchdog\":{\"enabled\":" << (wd.enabled ? "true" : "false")
      << ",\"step_regression_factor\":";
  AppendNum(out, wd.step_regression_factor);
  out << ",\"baseline_window\":" << wd.baseline_window
      << ",\"min_baseline_samples\":" << wd.min_baseline_samples
      << ",\"slo_target\":";
  AppendNum(out, wd.slo_target);
  out << ",\"slo_burn_threshold\":";
  AppendNum(out, wd.slo_burn_threshold);
  out << ",\"slo_window\":" << wd.slo_window << ",\"link_collapse_fraction\":";
  AppendNum(out, wd.link_collapse_fraction);
  out << ",\"link_min_baseline_util\":";
  AppendNum(out, wd.link_min_baseline_util);
  out << "}},\"runs\":[";
  bool first = true;
  for (const RunData& run : runs_) {
    if (!first) out << ",";
    first = false;
    AppendRunJson(out, run);
  }
  if (in_run_ && (current_.ticks > 0 || !current_.events.empty())) {
    if (!first) out << ",";
    AppendRunJson(out, current_);
  }
  out << "]}\n";
}

std::string TelemetrySession::ToJson() const {
  std::ostringstream out;
  WriteJson(out);
  std::string json = out.str();
  if (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

void TelemetrySession::WriteCsv(std::ostream& out) const {
  out << "run,series,t,mean,min,max,count\n";
  const auto write_run = [&out](const RunData& run) {
    for (const TimeSeries& series : run.series) {
      for (const TimeSeries::Point& point : series.Points()) {
        out << run.label << "," << series.name() << ",";
        AppendNum(out, point.t);
        out << ",";
        AppendNum(out, point.mean);
        out << ",";
        AppendNum(out, point.min);
        out << ",";
        AppendNum(out, point.max);
        out << "," << point.count << "\n";
      }
    }
  };
  for (const RunData& run : runs_) write_run(run);
  if (in_run_ && current_.ticks > 0) write_run(current_);
}

void TelemetrySession::ExportMetrics(trace::MetricsRegistry& metrics) const {
  metrics.Counter("telemetry.ticks").Add(total_ticks_);
  metrics.Counter("telemetry.events").Add(total_events_);
  metrics.Counter("telemetry.dumps").Add(total_dumps_);
  metrics.Counter("telemetry.dumps_suppressed").Add(suppressed_dumps_);
  metrics.Counter("telemetry.runs")
      .Add(static_cast<std::int64_t>(runs_.size()));
  for (const auto& [watchdog, count] : firing_counts_) {
    metrics.Counter("telemetry.watchdog." + watchdog).Add(count);
  }
}

}  // namespace tpu::telemetry
