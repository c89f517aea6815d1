// Discrete-event execution of a lowered CollectivePlan.
//
// RunLoweredPlan is the one sequential stage runner. It chains the lowered
// stages through completion callbacks and runs the simulator once, so
// externally armed events (fault injections and their healings) fire
// mid-collective. It runs the sharded-weight-update barrier after the last
// reduce-scatter, scores each stage against its deadline, and fills the
// five-phase view. Two front ends run it and differ only in what they
// report:
//   * coll::TwoDGradientSummation runs the paper's plan (PaperPlan) and
//     reports a `summation` track umbrella with five phase spans plus the
//     `summation.*` metrics;
//   * ExecutePlan runs any plan and reports a `plan <name>` umbrella with one
//     span per stage on the `plan` track plus `plan.exec.runs` and
//     `plan.exec.total_us`.
// Chunk-pipelined plans have no stage boundaries; ExecutePlan runs them as
// coll::PipelinedTwoDGradientSummation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/all_reduce.h"
#include "common/units.h"
#include "network/network.h"
#include "plan/plan_ir.h"
#include "plan/schedule.h"

namespace tpu::plan {

struct PlanExecutionConfig {
  // Optional weight-update-sharding hook (see GradientSummationConfig).
  std::function<SimTime(std::int64_t owned_elems)> shard_update_seconds;
  // Optional per-stage timeout detection; expectations use the healthy
  // network estimate (coll::ExpectedRingPhaseSeconds and its
  // halving-doubling twin).
  coll::PhaseDeadlineConfig deadline;
};

// The summation result plus the per-stage wall clock in execution order
// (names are the stage labels, e.g. "Y-reduce-scatter"). Chunk-pipelined
// plans report one fused "pipelined-2d" stage. The five-phase view
// (`phase_seconds`) folds stages of other shapes into the nearest slot (flat
// RS -> y_reduce_scatter; a pipelined run is all y_reduce_scatter).
struct PlanExecutionResult : coll::GradientSummationResult {
  struct StageSeconds {
    const char* name = "";
    SimTime seconds = 0;
  };
  std::vector<StageSeconds> stages;
};

// Simulated-time boundaries of one sequential run, for the reporting front
// ends' spans.
struct StageTimeline {
  SimTime start = 0;
  std::vector<SimTime> stage_end;  // completion time of each stage
  // End of the sharded update; stage_end[update_after] without a hook.
  SimTime update_end = 0;
};

// Runs `lowered` (whose specs were lowered on the network's topology)
// starting at the simulator's current time. Emits no spans or metrics.
PlanExecutionResult RunLoweredPlan(net::Network& network,
                                   const LoweredPlan& lowered,
                                   const PlanExecutionConfig& config,
                                   StageTimeline* timeline);

// Runs `plan` on the network's topology starting at the simulator's current
// time. `chip_buffers` is empty (timing-only) or one payload pointer per
// chip. The plan must validate on the network's topology.
PlanExecutionResult ExecutePlan(net::Network& network,
                                const CollectivePlan& plan,
                                std::int64_t elems,
                                const PlanExecutionConfig& config = {},
                                std::vector<float*> chip_buffers = {});

}  // namespace tpu::plan
