// Machine-readable run report: step breakdown + critical path + slack table
// + metrics snapshot as one JSON document.
//
// This is the "explain the run" artifact: where trace.h produces a timeline
// for a human in Perfetto, RunReport is what dashboards and regression
// tooling consume — which phases the step spent its time in, which link the
// critical path ran through, how much slack every other link has, and what
// healing each degraded link would buy. MultipodSystem::SimulateStep fills
// one per step on request; plan::ProbePlan emits one for a searched plan
// (critical path vs the closed-form estimate — the two-tier evaluator's
// accuracy probe).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"
#include "trace/critical_path.h"

namespace tpu::trace {

struct RunReport {
  std::string label;

  // Decomposition in schedule order. For a step (SimulateStep) it is the
  // step's one phase list, the same one its StepProfiler records: forward,
  // backward, the run's lowered stages with sharded-update after the update
  // stage, then embedding-comm; for a probe (ProbePlan), the plan's stages.
  struct Phase {
    std::string name;
    SimTime seconds = 0;
  };
  std::vector<Phase> phases;
  SimTime step_seconds = 0;
  SimTime compute_seconds = 0;  // analytic compute (forward + backward)
  SimTime comm_seconds = 0;     // simulated communication

  // Planner provenance, when the run executed a searched plan. Comparing
  // plan_estimated_seconds (closed-form tier) against the critical path's
  // makespan is a direct accuracy probe for the two-tier evaluator.
  bool planned = false;
  std::string plan_name;
  SimTime plan_predicted_seconds = 0;  // DES re-pricing tier
  SimTime plan_estimated_seconds = 0;  // closed-form tier

  bool has_critical_path = false;
  CriticalPathReport critical_path;

  // Raw MetricsRegistry JSON snapshot ("{}" when metrics were disabled).
  std::string metrics_json;

  // Raw RecoveryTimeline JSON (recover::RecoveryTimeline::ToJson()); empty
  // when the run had no recovery orchestration, and then omitted entirely so
  // non-recovery reports stay byte-identical.
  std::string recovery_json;

  // Raw TelemetrySession JSON (telemetry::TelemetrySession::ToJson()); empty
  // when no telemetry session observed the run, and then omitted entirely so
  // untelemetered reports stay byte-identical.
  std::string telemetry_json;

  // {"label":...,"phases":[...],"plan":{...},"critical_path":{...},
  //  "metrics":{...}} — deterministic for identical runs.
  void WriteJson(std::ostream& out) const;
  std::string ToJson() const;
  // Returns false only if the path is unwritable.
  bool WriteFile(const std::string& path) const;
};

}  // namespace tpu::trace
