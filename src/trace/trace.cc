#include "trace/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace tpu::trace {
namespace {

std::string TrackKey(const std::string& process, const std::string& thread) {
  std::string key = process;
  key.push_back('\0');
  key += thread;
  return key;
}

// Longest printf("%.3f") output: DBL_MAX's 309 integer digits, a sign, the
// point and 3 decimals.
constexpr std::size_t kMaxFixed3 = 320;

// Below 1e12, value * 1000 rounds to at most 1e15: at most 13 integer
// digits.
constexpr int kMaxFastDigits = 13;
constexpr std::uint64_t kPowersOf10[kMaxFastDigits] = {
    1,           10,           100,           1000,       10000,
    100000,      1000000,      10000000,      100000000,  1000000000,
    10000000000, 100000000000, 1000000000000};

// "00" "01" ... "99": two decimal digits per lookup.
constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

// Writes `value` as printf("%.3f") does in the C locale to
// [out, out + kMaxFixed3) and returns the end of what it wrote.
//
// Fast path: print round(value * 1000) as an integer with three decimals.
// `scaled` is value * 1000 rounded to a double, so it is off from the exact
// product by at most half its ulp. Below 1e15 (so below 2^53) the fraction
// scaled - floor(scaled) and 0.5 are both multiples of that ulp, so a
// nonzero `half` is at least a whole ulp away from the tie and its sign is
// the exact product's side of it. A zero `half` is an exact tie or one that
// the product's rounding error decides; those, negative values (printf
// keeps the sign of -0.0 and of values that round to zero), NaN and large
// magnitudes take std::to_chars.
char* WriteFixed3(char* out, double value) {
  if (!std::signbit(value) && value < 1e12) {
    const double scaled = value * 1000.0;
    const double whole = std::floor(scaled);
    const double half = (scaled - whole) - 0.5;
    if (half != 0) {
      const std::uint64_t milli =
          static_cast<std::uint64_t>(whole) + (half > 0 ? 1 : 0);
      std::uint64_t integer = milli / 1000;
      const unsigned decimals = static_cast<unsigned>(milli % 1000);
      int digits = 1;
      while (digits < kMaxFastDigits && integer >= kPowersOf10[digits]) {
        ++digits;
      }
      char* const end = out + digits + 4;
      std::memcpy(end - 2, kDigitPairs + 2 * (decimals % 100), 2);
      end[-3] = static_cast<char>('0' + decimals / 100);
      end[-4] = '.';
      // Integer digits two at a time, from the right.
      char* digit = out + digits;
      for (; integer >= 10; integer /= 100) {
        digit -= 2;
        std::memcpy(digit, kDigitPairs + 2 * (integer % 100), 2);
      }
      if (digit != out) *--digit = static_cast<char>('0' + integer);
      return end;
    }
  }
  return std::to_chars(out, out + kMaxFixed3, value, std::chars_format::fixed,
                       3)
      .ptr;
}

// Appends `text` to `out` as the inside of a JSON string: quotes and
// backslashes escaped.
void AppendEscaped(std::string* out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
}

// A write buffer in front of the exported document: the export's many small
// pieces (a dozen per event) are copied into a stack buffer, and the
// document grows by one append per buffer-full. Flush() hands over the
// rest.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void Append(std::string_view text) {
    if (text.size() > Room()) {
      Flush();
      if (text.size() > sizeof(buf_)) {
        out_->append(text);
        return;
      }
    }
    std::memcpy(end_, text.data(), text.size());
    end_ += text.size();
  }
  void Char(char c) {
    if (Room() == 0) Flush();
    *end_++ = c;
  }
  void Int(std::uint64_t value) {
    if (Room() < 20) Flush();
    end_ = std::to_chars(end_, end_ + 20, value).ptr;
  }
  void Fixed3(double value) {
    if (Room() < kMaxFixed3) Flush();
    end_ = WriteFixed3(end_, value);
  }
  // Timestamps are microseconds with fixed precision: formatting is locale-
  // independent and stable, which keeps identical runs byte-identical.
  void Micros(SimTime seconds) { Fixed3(ToMicros(seconds)); }
  // `text` inside a JSON string: quotes and backslashes escaped.
  void Escaped(const std::string& text) {
    if (text.find_first_of("\"\\") == std::string::npos) {
      Append(text);
    } else {
      Flush();
      AppendEscaped(out_, text);
    }
  }
  void Flush() {
    out_->append(buf_, end_);
    end_ = buf_;
  }

 private:
  std::size_t Room() const {
    return static_cast<std::size_t>(buf_ + sizeof(buf_) - end_);
  }

  std::string* out_;
  char buf_[4096];
  char* end_ = buf_;
};

// Orders (timestamp, record index) pairs by timestamp alone; a stable sort
// keeps record order among equal timestamps.
struct EarlierTimestamp {
  bool operator()(const std::pair<SimTime, std::size_t>& a,
                  const std::pair<SimTime, std::size_t>& b) const {
    return a.first < b.first;
  }
};

}  // namespace

void AppendFixed3(std::string* out, double value) {
  char buf[kMaxFixed3];
  out->append(buf, WriteFixed3(buf, value));
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
  ProcessInfo& owner =
      processes_
          .try_emplace(process,
                       ProcessInfo{static_cast<int>(processes_.size()), 0})
          .first->second;
  info.pid = owner.pid;
  info.tid = owner.next_tid++;

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
  counter_events_.push_back(CounterEvent{Stamp(ts), delta, counter, false});
}

void TraceRecorder::CounterValue(CounterId counter, SimTime ts, double value) {
  counter_events_.push_back(CounterEvent{Stamp(ts), value, counter, true});
}

int TraceRecorder::open_spans(TrackId track) const {
  TPU_CHECK_GE(track, 0);
  TPU_CHECK_LT(track, static_cast<TrackId>(open_depth_.size()));
  return open_depth_[track];
}

std::string TraceRecorder::ToJson() const {
  std::string json;
  json.reserve(128 * (events_.size() + counter_events_.size()) + 4096);
  JsonWriter out(&json);
  out.Append("{\"traceEvents\":[\n");
  bool first = true;
  auto comma = [&] {
    if (!first) out.Append(",\n");
    first = false;
  };

  // Metadata: process and thread names, in pid/tid order.
  std::map<int, std::string> process_names;
  for (const TrackInfo& track : tracks_) {
    process_names.emplace(track.pid, track.process);
  }
  for (const auto& [pid, name] : process_names) {
    comma();
    out.Append("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":");
    out.Int(pid);
    out.Append(",\"args\":{\"name\":\"");
    out.Escaped(name);
    out.Append("\"}}");
  }
  // Each track's constant run of bytes between an event's ph and its ts.
  std::vector<std::string> track_prefix(tracks_.size());
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const TrackInfo& track = tracks_[i];
    comma();
    out.Append("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":");
    out.Int(track.pid);
    out.Append(",\"tid\":");
    out.Int(track.tid);
    out.Append(",\"args\":{\"name\":\"");
    out.Escaped(track.thread);
    out.Append("\"}}");
    track_prefix[i] = "\",\"pid\":" + std::to_string(track.pid) +
                      ",\"tid\":" + std::to_string(track.tid) + ",\"ts\":";
  }

  // Span/instant events by timestamp; ties keep record order, which is the
  // deterministic simulation's callback order. Stable-sorting (ts, index)
  // pairs reads no event during the sort; the records arrive nearly in
  // time order, which the merge sort exploits.
  std::vector<std::pair<SimTime, std::size_t>> order;
  order.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    order.emplace_back(events_[i].ts, i);
  }
  std::stable_sort(order.begin(), order.end(), EarlierTimestamp());
  for (const auto& [ts, index] : order) {
    const Event& event = events_[index];
    comma();
    out.Append("{\"ph\":\"");
    out.Char(event.ph);
    out.Append(track_prefix[event.track]);
    out.Micros(ts);
    if (event.ph == 'X') {
      out.Append(",\"dur\":");
      out.Micros(event.dur);
    }
    if (event.ph == 'b' || event.ph == 'e') {
      out.Append(",\"cat\":\"ring\",\"id\":");
      out.Int(event.id);
    }
    if (event.ph == 's' || event.ph == 't' || event.ph == 'f') {
      out.Append(",\"cat\":\"critpath\",\"id\":");
      out.Int(event.id);
      // Bind the terminating arrow to the enclosing slice, not the next one.
      if (event.ph == 'f') out.Append(",\"bp\":\"e\"");
    }
    if (event.ph == 'i') out.Append(",\"s\":\"t\"");
    if (!event.name.empty() || event.ph == 'B' || event.ph == 'X' ||
        event.ph == 'i' || event.ph == 'b') {
      out.Append(",\"name\":\"");
      out.Escaped(event.name);
      out.Char('"');
    }
    out.Char('}');
  }

  // Counter series, one counter after another: deltas accumulated into
  // absolute values. Samples are grouped by counter (a counting sort that
  // keeps record order), then each group is stable-sorted by timestamp.
  std::vector<std::size_t> series_begin(counters_.size() + 1, 0);
  for (const CounterEvent& sample : counter_events_) {
    ++series_begin[sample.counter + 1];
  }
  for (std::size_t id = 1; id < series_begin.size(); ++id) {
    series_begin[id] += series_begin[id - 1];
  }
  std::vector<std::pair<SimTime, std::size_t>> series(counter_events_.size());
  {
    std::vector<std::size_t> cursor(series_begin.begin(),
                                    series_begin.end() - 1);
    for (std::size_t i = 0; i < counter_events_.size(); ++i) {
      series[cursor[counter_events_[i].counter]++] = {counter_events_[i].ts,
                                                      i};
    }
  }
  for (CounterId id = 0; id < static_cast<CounterId>(counters_.size()); ++id) {
    const auto begin = series.begin() + series_begin[id];
    const auto end = series.begin() + series_begin[id + 1];
    std::stable_sort(begin, end, EarlierTimestamp());
    // The series' constant bytes before each sample's ts and before its
    // value.
    const std::string prefix = "{\"ph\":\"C\",\"pid\":" +
                               std::to_string(counters_[id].pid) + ",\"ts\":";
    std::string name = ",\"name\":\"";
    AppendEscaped(&name, counters_[id].name);
    name += "\",\"args\":{\"value\":";
    double value = 0;
    for (auto it = begin; it != end; ++it) {
      const CounterEvent& sample = counter_events_[it->second];
      value = sample.absolute ? sample.delta : value + sample.delta;
      comma();
      out.Append(prefix);
      out.Micros(it->first);
      out.Append(name);
      out.Fixed3(value);
      out.Append("}}");
    }
  }

  out.Append("\n]}\n");
  out.Flush();
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
