// Discrete-event execution of a lowered CollectivePlan.
//
// RunLoweredPlan is the one sequential stage runner. It chains the lowered
// stages through completion callbacks and runs the simulator once, so
// externally armed events (fault injections and their healings) fire
// mid-collective. It runs the sharded-weight-update barrier after the last
// reduce-scatter, scores each stage against its deadline, and reports the
// run as a coll::GradientSummationResult whose `stages` are the lowered
// stages under their own names (SummarizeTimeline). Two front ends run it
// and differ only in what they report:
//   * coll::TwoDGradientSummation runs the paper's plan (PaperPlan) and
//     reports a `summation` track umbrella with five phase spans plus the
//     `summation.*` metrics;
//   * ExecutePlan runs any plan and reports a `plan <name>` umbrella with one
//     span per stage on the `plan` track plus `plan.exec.runs` and
//     `plan.exec.total_us`.
// Chunk-pipelined plans have no stage boundaries; ExecutePlan runs them as
// coll::PipelinedTwoDGradientSummation, whose one stage is "pipelined-2d".
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
coll::GradientSummationResult RunLoweredPlan(
    net::Network& network, const LoweredPlan& lowered,
    const PlanExecutionConfig& config, StageTimeline* timeline);

// What a run of `lowered` along `timeline` reports: reduce, update and
// broadcast seconds, every stage's seconds under its lowered name, the
// update index and max_owned_elems. Deadline scoring is RunLoweredPlan's
// own. RunLoweredPlan and the event-free ring pricer (plan/ring_pricer.h)
// both summarize here.
coll::GradientSummationResult SummarizeTimeline(const LoweredPlan& lowered,
                                                const StageTimeline& timeline);

// Runs `plan` on the network's topology starting at the simulator's current
// time. `chip_buffers` is empty (timing-only) or one payload pointer per
// chip. The plan must validate on the network's topology.
coll::GradientSummationResult ExecutePlan(
    net::Network& network, const CollectivePlan& plan, std::int64_t elems,
    const PlanExecutionConfig& config = {},
    std::vector<float*> chip_buffers = {});

}  // namespace tpu::plan
