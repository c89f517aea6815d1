#include "trace/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>

#include "common/check.h"

namespace tpu::trace {
namespace {

std::string TrackKey(const std::string& process, const std::string& thread) {
  std::string key = process;
  key.push_back('\0');
  key += thread;
  return key;
}

// Timestamps are microseconds with fixed precision: formatting is locale-
// independent and stable, which keeps identical runs byte-identical.
void AppendMicros(std::string* out, SimTime seconds) {
  AppendFixed3(out, ToMicros(seconds));
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

}  // namespace

void AppendFixed3(std::string* out, double value) {
  // Room for DBL_MAX's 309 integer digits, a sign, the point and 3 decimals.
  char buf[320];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::fixed, 3);
  out->append(buf, result.ptr);
}

TraceRecorder::TrackId TraceRecorder::Track(const std::string& process,
                                            const std::string& thread) {
  const std::string key = TrackKey(process, thread);
  const auto it = track_index_.find(key);
  if (it != track_index_.end()) return it->second;

  TrackInfo info;
  info.process = process;
  info.thread = thread;
  // One pid per distinct process name, assigned in registration order; tids
  // count up within the process.
  int max_pid = -1;
  for (const TrackInfo& t : tracks_) {
    if (t.process == process) info.tid = std::max(info.tid, t.tid + 1);
    if (t.process == process) info.pid = t.pid;
    max_pid = std::max(max_pid, t.pid);
  }
  if (info.tid == 0) info.pid = max_pid + 1;

  const TrackId id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(std::move(info));
  open_depth_.push_back(0);
  track_index_.emplace(key, id);
  return id;
}

TraceRecorder::CounterId TraceRecorder::Counter(TrackId track,
                                                const std::string& name) {
  TPU_CHECK_GE(track, 0);
  TPU_CHECK_LT(track, static_cast<TrackId>(tracks_.size()));
  const int pid = tracks_[track].pid;
  const std::string key = TrackKey(std::to_string(pid), name);
  const auto it = counter_index_.find(key);
  if (it != counter_index_.end()) return it->second;
  const CounterId id = static_cast<CounterId>(counters_.size());
  counters_.push_back(CounterInfo{pid, name});
  counter_index_.emplace(key, id);
  return id;
}

SimTime TraceRecorder::Stamp(SimTime ts) {
  const SimTime stamped = ts + time_offset_;
  last_timestamp_ = std::max(last_timestamp_, stamped);
  return stamped;
}

void TraceRecorder::Begin(TrackId track, std::string name, SimTime ts) {
  ++open_depth_[track];
  events_.push_back(Event{'B', track, 0, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::End(TrackId track, SimTime ts) {
  TPU_CHECK_GT(open_depth_[track], 0) << "End without matching Begin";
  --open_depth_[track];
  events_.push_back(Event{'E', track, 0, Stamp(ts), 0, std::string()});
}

void TraceRecorder::Complete(TrackId track, std::string name, SimTime start,
                             SimTime end) {
  TPU_CHECK_GE(end, start);
  const SimTime ts = Stamp(start);
  Stamp(end);
  events_.push_back(Event{'X', track, 0, ts, end - start, std::move(name)});
}

void TraceRecorder::Instant(TrackId track, std::string name, SimTime ts) {
  events_.push_back(Event{'i', track, 0, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::AsyncBegin(TrackId track, std::string name,
                               std::uint64_t id, SimTime ts) {
  events_.push_back(Event{'b', track, id, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::AsyncEnd(TrackId track, std::uint64_t id, SimTime ts) {
  events_.push_back(Event{'e', track, id, Stamp(ts), 0, std::string()});
}

void TraceRecorder::FlowStart(TrackId track, std::string name,
                              std::uint64_t id, SimTime ts) {
  events_.push_back(Event{'s', track, id, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::FlowStep(TrackId track, std::string name, std::uint64_t id,
                             SimTime ts) {
  events_.push_back(Event{'t', track, id, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::FlowEnd(TrackId track, std::string name, std::uint64_t id,
                            SimTime ts) {
  events_.push_back(Event{'f', track, id, Stamp(ts), 0, std::move(name)});
}

void TraceRecorder::CounterDelta(CounterId counter, SimTime ts, double delta) {
  counter_events_.push_back(CounterEvent{counter, Stamp(ts), delta, false});
}

void TraceRecorder::CounterValue(CounterId counter, SimTime ts, double value) {
  counter_events_.push_back(CounterEvent{counter, Stamp(ts), value, true});
}

int TraceRecorder::open_spans(TrackId track) const {
  TPU_CHECK_GE(track, 0);
  TPU_CHECK_LT(track, static_cast<TrackId>(open_depth_.size()));
  return open_depth_[track];
}

std::string TraceRecorder::ToJson() const {
  std::string json;
  json.reserve(128 * (events_.size() + counter_events_.size()) + 4096);
  json += "{\"traceEvents\":[\n";
  bool first = true;
  auto comma = [&] {
    if (!first) json += ",\n";
    first = false;
  };

  // Metadata: process and thread names, in pid/tid order.
  std::map<int, std::string> process_names;
  for (const TrackInfo& track : tracks_) {
    process_names.emplace(track.pid, track.process);
  }
  for (const auto& [pid, name] : process_names) {
    comma();
    json += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    json += std::to_string(pid);
    json += ",\"args\":{\"name\":\"";
    AppendEscaped(&json, name);
    json += "\"}}";
  }
  for (const TrackInfo& track : tracks_) {
    comma();
    json += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    json += std::to_string(track.pid);
    json += ",\"tid\":";
    json += std::to_string(track.tid);
    json += ",\"args\":{\"name\":\"";
    AppendEscaped(&json, track.thread);
    json += "\"}}";
  }

  // Span/instant events, stably sorted by timestamp (ties keep record order,
  // which is the deterministic simulation's callback order).
  std::vector<std::size_t> order(events_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].ts < events_[b].ts;
                   });
  for (const std::size_t index : order) {
    const Event& event = events_[index];
    const TrackInfo& track = tracks_[event.track];
    comma();
    json += "{\"ph\":\"";
    json.push_back(event.ph);
    json += "\",\"pid\":";
    json += std::to_string(track.pid);
    json += ",\"tid\":";
    json += std::to_string(track.tid);
    json += ",\"ts\":";
    AppendMicros(&json, event.ts);
    if (event.ph == 'X') {
      json += ",\"dur\":";
      AppendMicros(&json, event.dur);
    }
    if (event.ph == 'b' || event.ph == 'e') {
      json += ",\"cat\":\"ring\",\"id\":";
      json += std::to_string(event.id);
    }
    if (event.ph == 's' || event.ph == 't' || event.ph == 'f') {
      json += ",\"cat\":\"critpath\",\"id\":";
      json += std::to_string(event.id);
      // Bind the terminating arrow to the enclosing slice, not the next one.
      if (event.ph == 'f') json += ",\"bp\":\"e\"";
    }
    if (event.ph == 'i') json += ",\"s\":\"t\"";
    if (!event.name.empty() || event.ph == 'B' || event.ph == 'X' ||
        event.ph == 'i' || event.ph == 'b') {
      json += ",\"name\":\"";
      AppendEscaped(&json, event.name);
      json += "\"";
    }
    json += "}";
  }

  // Counter series: deltas accumulated into absolute values per counter.
  std::vector<std::vector<std::size_t>> series(counters_.size());
  for (std::size_t i = 0; i < counter_events_.size(); ++i) {
    series[counter_events_[i].counter].push_back(i);
  }
  for (CounterId id = 0; id < static_cast<CounterId>(counters_.size()); ++id) {
    std::vector<std::size_t>& samples = series[id];
    std::stable_sort(samples.begin(), samples.end(),
                     [this](std::size_t a, std::size_t b) {
                       return counter_events_[a].ts < counter_events_[b].ts;
                     });
    double value = 0;
    for (const std::size_t index : samples) {
      const CounterEvent& sample = counter_events_[index];
      value = sample.absolute ? sample.delta : value + sample.delta;
      comma();
      json += "{\"ph\":\"C\",\"pid\":";
      json += std::to_string(counters_[id].pid);
      json += ",\"ts\":";
      AppendMicros(&json, sample.ts);
      json += ",\"name\":\"";
      AppendEscaped(&json, counters_[id].name);
      json += "\",\"args\":{\"value\":";
      AppendFixed3(&json, value);
      json += "}}";
    }
  }

  json += "\n]}\n";
  return json;
}

void TraceRecorder::WriteJson(std::ostream& out) const { out << ToJson(); }

bool TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteJson(out);
  return out.good();
}

}  // namespace tpu::trace
