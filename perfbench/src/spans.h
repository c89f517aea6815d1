// Host-time spans and counts for the traced run.
//
// The traced run calls each layer's public function directly and wraps every
// call in a Span: name, start, end, parent and the op it belongs to, all on
// the host's steady clock. Spans stay in memory until the run ends. A null
// Tracer turns every Span and Count into a no-op, so the same layer-by-layer
// code also serves as the untimed cross-check of the timed run.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    int op = -1;      // index into ops()
    int parent = -1;  // index into spans(), -1 for an op's root span
    double start_s = 0;
    double end_s = 0;
    double seconds() const { return end_s - start_s; }
  };

  // Opens an op: its root span is named "op:<name>" and every span begun
  // until EndOp() is its descendant.
  void BeginOp(const std::string& name) {
    ops_.push_back(name);
    op_root_ = Begin("op:" + name);
  }
  void EndOp() { End(op_root_); }

  int Begin(std::string name) {
    Record record;
    record.name = std::move(name);
    record.op = static_cast<int>(ops_.size()) - 1;
    record.parent = open_.empty() ? -1 : open_.back();
    record.start_s = Now();
    spans_.push_back(std::move(record));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int span) {
    spans_[span].end_s = Now();
    open_.pop_back();
  }

  void Count(const std::string& name, double value) { counts_[name] += value; }
  void Max(const std::string& name, double value) {
    double& slot = counts_[name];
    if (value > slot) slot = value;
  }

  const std::vector<Record>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }

  // Summed duration of every span called `name`, in milliseconds.
  double TotalMs(const std::string& name) const {
    double total = 0;
    for (const Record& span : spans_) {
      if (span.name == name) total += span.seconds();
    }
    return total * 1e3;
  }

  // Self time per span name, in milliseconds: each span's duration minus
  // the part its direct children cover. Children nest inside their parent
  // (spans open and close on one thread), so "covered" is their summed
  // duration.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Record& span : spans_) {
      if (span.parent >= 0) child_seconds[span.parent] += span.seconds();
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += (spans_[i].seconds() - child_seconds[i]) * 1e3;
    }
    return self;
  }

  // One JSON object per line, in begin order.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Record& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"op\":\"%s\",\"parent\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   span.name.c_str(), ops_[span.op].c_str(), span.parent,
                   span.start_s, span.end_s);
    }
    return std::fclose(out) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::vector<std::string> ops_;
  int op_root_ = -1;
  std::map<std::string, double> counts_;
};

// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name));
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

inline void Count(Tracer* tracer, const std::string& name, double value) {
  if (tracer != nullptr) tracer->Count(name, value);
}

}  // namespace perfbench
