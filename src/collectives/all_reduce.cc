#include "collectives/all_reduce.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "common/math_util.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

int PosIn(const std::vector<topo::ChipId>& ring, topo::ChipId chip) {
  for (std::size_t i = 0; i < ring.size(); ++i) {
    if (ring[i] == chip) return static_cast<int>(i);
  }
  TPU_CHECK(false) << "chip " << chip << " not on ring";
  return -1;
}

std::vector<float*> DataFor(const std::vector<float*>& chip_buffers,
                            const std::vector<topo::ChipId>& order) {
  std::vector<float*> data;
  if (chip_buffers.empty()) return data;
  data.reserve(order.size());
  for (topo::ChipId chip : order) data.push_back(chip_buffers[chip]);
  return data;
}

}  // namespace

// All rings run concurrently; a ring pass is (n-1) barrier-synchronized
// steps, each as long as its slowest hop, so the phase estimate is max over
// rings of (n-1) * slowest-hop time. Uses EstimateArrival, which
// deliberately ignores injected degradation — the deadline compares sick
// reality against healthy expectation. Folded (mesh-dimension) rings put two
// ring edges on each physical link; the resulting ~2x contention is not
// modeled here, which is why deadline multiples below ~2 are prone to false
// positives on X rings.
SimTime ExpectedRingPhaseSeconds(net::Network& network,
                                 const std::vector<RingSpec>& rings,
                                 const CollectiveOptions& options) {
  const SimTime now = network.simulator().now();
  SimTime worst = 0;
  for (const RingSpec& spec : rings) {
    const int n = spec.size();
    if (n <= 1 || spec.range.size() == 0) continue;
    // Per-direction payload split mirrors the bidirectional schedule.
    std::int64_t dir_elems[2] = {spec.range.size(), 0};
    if (options.bidirectional && n > 2) {
      dir_elems[0] = spec.range.size() / 2;
      dir_elems[1] = spec.range.size() - dir_elems[0];
    }
    for (const std::int64_t elems : dir_elems) {
      if (elems == 0) continue;
      const Bytes bytes = CeilDiv(elems, n) * options.wire_bytes_per_elem();
      SimTime slowest_hop = 0;
      for (int rank = 0; rank < n; ++rank) {
        const topo::ChipId from = spec.order[rank];
        const topo::ChipId to = spec.order[(rank + 1) % n];
        slowest_hop = std::max(slowest_hop,
                               network.EstimateArrival(from, to, bytes) - now);
      }
      worst = std::max(worst, (n - 1) * slowest_hop);
    }
  }
  return worst;
}

std::vector<topo::ChipId> SnakeRingOverMesh(const topo::MeshTopology& topo) {
  std::vector<topo::ChipId> ring;
  ring.reserve(topo.num_chips());
  for (int y = 0; y < topo.size_y(); ++y) {
    if (y % 2 == 0) {
      for (int x = 0; x < topo.size_x(); ++x) ring.push_back(topo.ChipAt({x, y}));
    } else {
      for (int x = topo.size_x() - 1; x >= 0; --x) {
        ring.push_back(topo.ChipAt({x, y}));
      }
    }
  }
  return ring;
}

GradientSummationResult TwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config,
    std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  TPU_CHECK_GT(config.elems, 0);
  TPU_CHECK_GT(config.model_parallel_stride, 0);
  TPU_CHECK_EQ(topo.size_x() % config.model_parallel_stride, 0)
      << "model-parallel groups must tile the X dimension";
  if (!chip_buffers.empty()) {
    TPU_CHECK_EQ(static_cast<int>(chip_buffers.size()), topo.num_chips());
  }

  GradientSummationResult result;
  const Range full{0, config.elems};

  sim::Simulator& simulator = network.simulator();
  trace::TraceRecorder* recorder = trace::CurrentTrace();

  // Phase 1: reduce-scatter along Y (one torus ring per column, all
  // concurrent). The Y ring ordering is a function of the y coordinate only,
  // so every column shares the same rank layout.
  std::vector<RingSpec> y_rings;
  y_rings.reserve(topo.size_x());
  for (int x = 0; x < topo.size_x(); ++x) {
    std::vector<topo::ChipId> order =
        topo.RingAlong(topo::Dim::kY, topo.ChipAt({x, 0}));
    RingSpec spec;
    spec.data = DataFor(chip_buffers, order);
    spec.order = std::move(order);
    spec.range = full;
    if (recorder != nullptr) spec.label = "Y x=" + std::to_string(x);
    y_rings.push_back(std::move(spec));
  }
  // Rank of each row within the (shared) Y ring layout.
  const std::vector<topo::ChipId> y_ring0 =
      topo.RingAlong(topo::Dim::kY, topo.ChipAt({0, 0}));
  std::vector<int> y_rank(topo.size_y());
  for (int y = 0; y < topo.size_y(); ++y) {
    y_rank[y] = PosIn(y_ring0, topo.ChipAt({0, y}));
  }

  // Phase 2: reduce-scatter along X over each Y-owned sub-range. Rings hop
  // over model-parallel peers when stride > 1.
  const int ny = static_cast<int>(y_ring0.size());
  std::vector<RingSpec> x_rings;
  for (int y = 0; y < topo.size_y(); ++y) {
    const std::vector<Range> y_owned =
        OwnedAfterReduceScatter(full, ny, y_rank[y], config.collective);
    for (int offset = 0; offset < config.model_parallel_stride; ++offset) {
      std::vector<topo::ChipId> order = topo.StridedRingAlong(
          topo::Dim::kX, topo.ChipAt({offset, y}),
          config.model_parallel_stride);
      for (const Range& range : y_owned) {
        if (range.size() == 0) continue;
        RingSpec spec;
        spec.data = DataFor(chip_buffers, order);
        spec.order = order;
        spec.range = range;
        if (recorder != nullptr) {
          spec.label = "X y=" + std::to_string(y);
          if (config.model_parallel_stride > 1) {
            spec.label += " g" + std::to_string(offset);
          }
        }
        x_rings.push_back(std::move(spec));
      }
    }
  }
  // Ownership after both reduce phases, per chip.
  auto owned_elems_of = [&](topo::ChipId chip) {
    const topo::Coord c = topo.CoordOf(chip);
    const std::vector<Range> y_owned =
        OwnedAfterReduceScatter(full, ny, y_rank[c.y], config.collective);
    const std::vector<topo::ChipId> x_ring = topo.StridedRingAlong(
        topo::Dim::kX, chip, config.model_parallel_stride);
    const int x_rank = PosIn(x_ring, chip);
    std::int64_t elems = 0;
    for (const Range& range : y_owned) {
      if (range.size() == 0) continue;
      for (const Range& owned : OwnedAfterReduceScatter(
               range, static_cast<int>(x_ring.size()), x_rank,
               config.collective)) {
        elems += owned.size();
      }
    }
    return elems;
  };

  for (int chip = 0; chip < topo.num_chips(); ++chip) {
    result.max_owned_elems =
        std::max(result.max_owned_elems, owned_elems_of(chip));
  }

  // The five phases chain through completion callbacks and the simulator
  // runs once at the end, instead of draining the queue between phases.
  // Timing is identical when the collective owns the event queue, but this
  // lets externally scheduled events — armed fault injections and their
  // healings (fault::FaultInjector) — fire *during* the collective rather
  // than being absorbed into one phase's drain. Phase boundaries are the
  // recorded callback timestamps; events left in the queue after the final
  // all-gather (e.g. pending link healings) do not affect the result.
  const bool monitored = config.deadline.enabled();
  const SimTime start = simulator.now();
  SimTime end_y_rs = -1, end_x_rs = -1, end_update = -1, end_x_ag = -1,
          end_y_ag = -1;
  SimTime exp_y_rs = 0, exp_x_rs = 0, exp_x_ag = 0, exp_y_ag = 0;

  // Phase labels for the causal observer (critical-path attribution): set
  // just before each phase schedules its events. Pure observation.
  sim::EventObserver* observer = sim::CurrentEventObserver();

  // Declared in reverse chain order; each stage captures its successor by
  // reference (all outlive the Run() below). Expectations are estimated at
  // each phase's start so they see the then-current link occupancy.
  std::function<void()> after_y_ag = [&] { end_y_ag = simulator.now(); };
  std::function<void()> start_y_ag = [&] {
    end_x_ag = simulator.now();
    if (monitored) {
      exp_y_ag = ExpectedRingPhaseSeconds(network, y_rings, config.collective);
    }
    if (observer != nullptr) observer->OnPhase("Y-all-gather");
    StartAllGather(network, y_rings, config.collective, after_y_ag);
  };
  std::function<void()> start_x_ag = [&] {
    end_update = simulator.now();
    if (monitored) {
      exp_x_ag = ExpectedRingPhaseSeconds(network, x_rings, config.collective);
    }
    if (observer != nullptr) observer->OnPhase("X-all-gather");
    StartAllGather(network, x_rings, config.collective, start_y_ag);
  };
  // Phase 3: sharded weight update (weight-update sharding, Section 3.2).
  std::function<void()> start_update = [&] {
    end_x_rs = simulator.now();
    if (!config.shard_update_seconds) {
      start_x_ag();
      return;
    }
    if (observer != nullptr) observer->OnPhase("sharded-update");
    auto barrier =
        std::make_shared<sim::Barrier>(topo.num_chips(), start_x_ag);
    for (int chip = 0; chip < topo.num_chips(); ++chip) {
      simulator.Schedule(config.shard_update_seconds(owned_elems_of(chip)),
                         [barrier] { barrier->Notify(); });
    }
  };
  std::function<void()> start_x_rs = [&] {
    end_y_rs = simulator.now();
    if (monitored) {
      exp_x_rs = ExpectedRingPhaseSeconds(network, x_rings, config.collective);
    }
    if (observer != nullptr) observer->OnPhase("X-reduce-scatter");
    StartReduceScatter(network, x_rings, config.collective, start_update);
  };
  if (monitored) {
    exp_y_rs = ExpectedRingPhaseSeconds(network, y_rings, config.collective);
  }
  if (observer != nullptr) observer->OnPhase("Y-reduce-scatter");
  StartReduceScatter(network, y_rings, config.collective, start_x_rs);
  simulator.Run();
  TPU_CHECK_GE(end_y_ag, 0.0);

  result.reduce_seconds = end_x_rs - start;
  result.update_seconds = end_update - end_x_rs;
  result.broadcast_seconds = end_y_ag - end_update;
  result.phase_seconds.y_reduce_scatter = end_y_rs - start;
  result.phase_seconds.x_reduce_scatter = end_x_rs - end_y_rs;
  result.phase_seconds.update = end_update - end_x_rs;
  result.phase_seconds.x_all_gather = end_x_ag - end_update;
  result.phase_seconds.y_all_gather = end_y_ag - end_x_ag;

  // Phase boundaries are known only after the run, so spans are emitted
  // retroactively with explicit timestamps: one umbrella B/E pair wrapping a
  // complete span per phase on the shared summation track.
  if (recorder != nullptr) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "summation");
    recorder->Begin(track, "2d-summation", start);
    recorder->Complete(track, "reduce-scatter-Y", start, end_y_rs);
    recorder->Complete(track, "reduce-scatter-X", end_y_rs, end_x_rs);
    recorder->Complete(track, "sharded-update", end_x_rs, end_update);
    recorder->Complete(track, "broadcast-X", end_update, end_x_ag);
    recorder->Complete(track, "broadcast-Y", end_x_ag, end_y_ag);
    recorder->End(track, end_y_ag);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.runs").Add(1);
    metrics->Histogram("summation.total_us").Record(ToMicros(end_y_ag - start));
    metrics->Histogram("summation.y_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.y_reduce_scatter));
    metrics->Histogram("summation.x_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.x_reduce_scatter));
    metrics->Histogram("summation.update_us")
        .Record(ToMicros(result.phase_seconds.update));
    metrics->Histogram("summation.x_all_gather_us")
        .Record(ToMicros(result.phase_seconds.x_all_gather));
    metrics->Histogram("summation.y_all_gather_us")
        .Record(ToMicros(result.phase_seconds.y_all_gather));
  }

  if (monitored) {
    auto record = [&result, &config](const char* name, SimTime phase_start,
                                     SimTime phase_end, SimTime expected) {
      PhaseTiming timing;
      timing.name = name;
      timing.start = phase_start;
      timing.expected = expected;
      timing.actual = phase_end - phase_start;
      timing.deadline = config.deadline.DeadlineFor(expected);
      timing.timed_out = timing.actual > timing.deadline;
      if (timing.timed_out && !result.timed_out) {
        result.timed_out = true;
        result.detected_at = phase_start + timing.deadline;
        result.timed_out_phase = name;
      }
      result.phases.push_back(timing);
    };
    record("Y-reduce-scatter", start, end_y_rs, exp_y_rs);
    record("X-reduce-scatter", end_y_rs, end_x_rs, exp_x_rs);
    record("X-all-gather", end_update, end_x_ag, exp_x_ag);
    record("Y-all-gather", end_x_ag, end_y_ag, exp_y_ag);
  }
  return result;
}

SimTime PipelinedTwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config, int chunks,
    std::vector<float*> chip_buffers, PipelinedSummationReport* report) {
  const topo::MeshTopology& topo = network.topology();
  TPU_CHECK_GT(config.elems, 0);
  TPU_CHECK_GT(chunks, 0);
  TPU_CHECK_EQ(topo.size_x() % config.model_parallel_stride, 0);
  if (!chip_buffers.empty()) {
    TPU_CHECK_EQ(static_cast<int>(chip_buffers.size()), topo.num_chips());
  }
  sim::Simulator& simulator = network.simulator();
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  const SimTime start = simulator.now();
  if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
    // Chunk phases overlap, so a single label covers the fused collective.
    observer->OnPhase("pipelined-2d");
  }

  // Shared ring layouts (identical for every slice).
  const std::vector<topo::ChipId> y_ring0 =
      topo.RingAlong(topo::Dim::kY, topo.ChipAt({0, 0}));
  const int ny = static_cast<int>(y_ring0.size());
  std::vector<int> y_rank(topo.size_y());
  for (int y = 0; y < topo.size_y(); ++y) {
    y_rank[y] = PosIn(y_ring0, topo.ChipAt({0, y}));
  }

  // Slice phases overlap, so deadline monitoring watches the fused collective
  // as a whole: the expectation is the *sequential* full-payload schedule
  // (Y-RS + X-RS + X-AG + Y-AG), an upper bound on the pipelined time, so
  // pipelining itself can never trip the deadline. The sharded-update hook is
  // compute, not communication, and is excluded from the expectation.
  const bool monitored = report != nullptr && config.deadline.enabled();
  if (monitored) {
    std::vector<RingSpec> estimate_y;
    for (int x = 0; x < topo.size_x(); ++x) {
      RingSpec spec;
      spec.order = topo.RingAlong(topo::Dim::kY, topo.ChipAt({x, 0}));
      spec.range = Range{0, config.elems};
      estimate_y.push_back(std::move(spec));
    }
    std::vector<RingSpec> estimate_x;
    for (int y = 0; y < topo.size_y(); ++y) {
      const std::vector<Range> y_owned = OwnedAfterReduceScatter(
          Range{0, config.elems}, ny, y_rank[y], config.collective);
      for (int offset = 0; offset < config.model_parallel_stride; ++offset) {
        std::vector<topo::ChipId> order = topo.StridedRingAlong(
            topo::Dim::kX, topo.ChipAt({offset, y}),
            config.model_parallel_stride);
        for (const Range& owned : y_owned) {
          if (owned.size() == 0) continue;
          RingSpec spec;
          spec.order = order;
          spec.range = owned;
          estimate_x.push_back(std::move(spec));
        }
      }
    }
    const SimTime y_phase =
        ExpectedRingPhaseSeconds(network, estimate_y, config.collective);
    const SimTime x_phase =
        ExpectedRingPhaseSeconds(network, estimate_x, config.collective);
    report->expected = 2 * y_phase + 2 * x_phase;
    report->deadline = config.deadline.DeadlineFor(report->expected);
  }

  // Completion is timestamped by the barrier callback (not by queue drain),
  // so armed fault events pending past the collective don't inflate it.
  SimTime completed_at = -1;
  auto all_done = std::make_shared<sim::Barrier>(
      chunks, [&completed_at, &simulator] { completed_at = simulator.now(); });
  const std::int64_t slice = CeilDiv(config.elems, chunks);
  for (int c = 0; c < chunks; ++c) {
    const Range range{std::min<std::int64_t>(config.elems, c * slice),
                      std::min<std::int64_t>(config.elems, (c + 1) * slice)};
    if (range.size() == 0) {
      all_done->Notify();
      continue;
    }
    // Per-slice ring specs.
    auto y_rings = std::make_shared<std::vector<RingSpec>>();
    for (int x = 0; x < topo.size_x(); ++x) {
      std::vector<topo::ChipId> order =
          topo.RingAlong(topo::Dim::kY, topo.ChipAt({x, 0}));
      RingSpec spec;
      spec.data = DataFor(chip_buffers, order);
      spec.order = std::move(order);
      spec.range = range;
      if (recorder != nullptr) {
        spec.label = "Y s" + std::to_string(c) + " x=" + std::to_string(x);
      }
      y_rings->push_back(std::move(spec));
    }
    auto x_rings = std::make_shared<std::vector<RingSpec>>();
    for (int y = 0; y < topo.size_y(); ++y) {
      const std::vector<Range> y_owned =
          OwnedAfterReduceScatter(range, ny, y_rank[y], config.collective);
      for (int offset = 0; offset < config.model_parallel_stride; ++offset) {
        std::vector<topo::ChipId> order = topo.StridedRingAlong(
            topo::Dim::kX, topo.ChipAt({offset, y}),
            config.model_parallel_stride);
        for (const Range& owned : y_owned) {
          if (owned.size() == 0) continue;
          RingSpec spec;
          spec.data = DataFor(chip_buffers, order);
          spec.order = order;
          spec.range = owned;
          if (recorder != nullptr) {
            spec.label = "X s" + std::to_string(c) + " y=" + std::to_string(y);
          }
          x_rings->push_back(std::move(spec));
        }
      }
    }

    // Phase chain for this slice: Y-RS -> X-RS -> [update] -> X-AG -> Y-AG.
    net::Network* net_ptr = &network;
    const auto options = config.collective;
    auto update_hook = config.shard_update_seconds;
    auto after_xag = [net_ptr, y_rings, options, all_done] {
      StartAllGather(*net_ptr, *y_rings, options,
                     [all_done] { all_done->Notify(); });
    };
    auto after_update = [net_ptr, x_rings, options, after_xag] {
      StartAllGather(*net_ptr, *x_rings, options, after_xag);
    };
    auto after_xrs = [net_ptr, &topo, range, ny, y_rank, update_hook, config,
                      after_update]() {
      if (!update_hook) {
        after_update();
        return;
      }
      // Sharded weight update on each chip's owned slice portion.
      sim::Simulator& sim_ref = net_ptr->simulator();
      auto barrier = std::make_shared<sim::Barrier>(topo.num_chips(),
                                                    after_update);
      for (int chip = 0; chip < topo.num_chips(); ++chip) {
        const topo::Coord coord = topo.CoordOf(chip);
        const std::vector<topo::ChipId> x_ring = topo.StridedRingAlong(
            topo::Dim::kX, chip, config.model_parallel_stride);
        const int x_rank = PosIn(x_ring, chip);
        std::int64_t owned_elems = 0;
        for (const Range& r : OwnedAfterReduceScatter(
                 range, ny, y_rank[coord.y], config.collective)) {
          if (r.size() == 0) continue;
          for (const Range& owned : OwnedAfterReduceScatter(
                   r, static_cast<int>(x_ring.size()), x_rank,
                   config.collective)) {
            owned_elems += owned.size();
          }
        }
        sim_ref.Schedule(update_hook(owned_elems),
                         [barrier] { barrier->Notify(); });
      }
    };
    StartReduceScatter(network, *y_rings, options,
                       [net_ptr, x_rings, options, after_xrs] {
                         StartReduceScatter(*net_ptr, *x_rings, options,
                                            after_xrs);
                       });
  }
  simulator.Run();
  TPU_CHECK_GE(completed_at, 0.0);
  const SimTime elapsed = completed_at - start;
  // Slice phases interleave, so the fused collective gets a single umbrella
  // span; per-slice phase activity is visible through the ring spans.
  if (recorder != nullptr) {
    recorder->Complete(recorder->Track("system", "summation"),
                       "pipelined-2d-summation x" + std::to_string(chunks),
                       start, completed_at);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.pipelined_runs").Add(1);
    metrics->Histogram("summation.pipelined_total_us")
        .Record(ToMicros(elapsed));
  }
  if (monitored) {
    report->actual = elapsed;
    report->timed_out = elapsed > report->deadline;
    report->detected_at = report->timed_out ? start + report->deadline : -1.0;
  }
  return elapsed;
}

SimTime OneDGradientSummation(net::Network& network,
                              const GradientSummationConfig& config,
                              std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  RingSpec spec;
  spec.order = SnakeRingOverMesh(topo);
  spec.data = DataFor(chip_buffers, spec.order);
  spec.range = Range{0, config.elems};
  std::vector<RingSpec> rings;
  rings.push_back(std::move(spec));
  return AllReduce(network, rings, config.collective);
}

}  // namespace tpu::coll
