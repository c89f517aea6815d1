// The run context: every instrumentation sink of the current simulation in
// one thread-local struct.
//
// A simulation is observed by up to four sinks — the trace recorder, the
// metrics registry, the telemetry session and the causal event observer —
// each null by default. They live together in one constant-initialized
// thread-local variable so that:
//   * a read is one TLS load with no init guard (Simulator::Step and
//     Network::Transmit read it on every event and message);
//   * worker threads (parallel sweep points) start with every sink null and
//     never race on, or feed, the main thread's sinks;
//   * throwaway pricing (planner candidates, recovery oracles, cluster shape
//     pricing) silences all four at once with one ScopedSilence, so a
//     priced-and-discarded simulation leaves nothing behind in the observed
//     run.
// The sinks only record, they never schedule, so simulated results are
// bit-identical with any combination installed. The struct lives in sim,
// below trace and telemetry, so their types are only forward-declared here.
#pragma once

#include <type_traits>
#include <utility>

namespace tpu::trace {
class TraceRecorder;
class MetricsRegistry;
}  // namespace tpu::trace

namespace tpu::telemetry {
class TelemetrySession;
}  // namespace tpu::telemetry

namespace tpu::sim {

class EventObserver;

struct RunContext {
  trace::TraceRecorder* trace = nullptr;
  trace::MetricsRegistry* metrics = nullptr;
  telemetry::TelemetrySession* telemetry = nullptr;
  EventObserver* observer = nullptr;

  // True when any sink is installed.
  bool any() const {
    return trace != nullptr || metrics != nullptr || telemetry != nullptr ||
           observer != nullptr;
  }
};

namespace internal {
inline constinit thread_local RunContext run_context;
}  // namespace internal

inline RunContext& CurrentRunContext() { return internal::run_context; }

// RAII install of one sink (restores the previous one): trace::ScopedTrace,
// trace::ScopedMetrics, telemetry::ScopedTelemetry and
// sim::ScopedEventObserver are this template over their member.
template <auto kSink>
class ScopedSink {
 public:
  using Sink = std::remove_reference_t<decltype(RunContext{}.*kSink)>;

  explicit ScopedSink(Sink sink)
      : previous_(std::exchange(CurrentRunContext().*kSink, sink)) {}
  ~ScopedSink() { CurrentRunContext().*kSink = previous_; }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink previous_;
};

// RAII silence of every sink (restores all four): wraps throwaway
// simulations and estimates so only the observed run is recorded.
class ScopedSilence {
 public:
  ScopedSilence() : previous_(std::exchange(CurrentRunContext(), {})) {}
  ~ScopedSilence() { CurrentRunContext() = previous_; }
  ScopedSilence(const ScopedSilence&) = delete;
  ScopedSilence& operator=(const ScopedSilence&) = delete;

 private:
  RunContext previous_;
};

}  // namespace tpu::sim
