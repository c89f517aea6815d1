#include "core/multipod.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "collectives/all_reduce.h"
#include "common/check.h"
#include "common/math_util.h"
#include "metrics/distributed_eval.h"
#include "optim/weight_update_sharding.h"
#include "plan/cost.h"
#include "plan/executor.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/ring_pricer.h"
#include "plan/schedule.h"
#include "models/blocks.h"
#include "recover/controller.h"
#include "sim/event_observer.h"
#include "sim/run_context.h"
#include "sim/simulator.h"
#include "spmd/spmd.h"
#include "telemetry/probes.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::core {

topo::TopologyConfig TopologyForChips(int num_chips) {
  TPU_CHECK_GE(num_chips, 4);
  if (num_chips % 1024 == 0) {
    return topo::TopologyConfig::Multipod(num_chips / 1024);
  }
  TPU_CHECK(IsPowerOfTwo(num_chips))
      << "pod slices are power-of-two sized, got " << num_chips;
  // Slices are allocated as full columns of the pod so the Y rings keep
  // their torus wrap links (e.g. 512 chips -> 16x32, 256 -> 8x32).
  const int size_y = std::min(num_chips, 32);
  const int size_x = num_chips / size_y;
  return topo::TopologyConfig::Slice(size_x, size_y, /*wrap_y=*/size_y > 2);
}

MultipodSystem::MultipodSystem(int num_chips, SystemOptions options)
    : topology_(TopologyForChips(num_chips)), options_(options) {}

MultipodSystem::MultipodSystem(const topo::TopologyConfig& config,
                               SystemOptions options)
    : topology_(config), options_(options) {}

SystemOptions OptionsForGeneration(TpuGeneration generation) {
  SystemOptions options;  // defaults are TPU-v3
  if (generation == TpuGeneration::kV4) {
    // TPU-v4: ~275 TFLOP/s bf16 and ~1.2 TB/s HBM per chip, faster ICI.
    options.core.peak_mxu_flops = 137.5e12;   // per core
    options.core.peak_vector_flops = 3.0e12;
    options.core.hbm_bandwidth = 600e9;       // per core
    const net::LinkParams v4_link{GBps(100.0), Micros(0.25)};
    options.network.mesh_x = v4_link;
    options.network.mesh_y = v4_link;
    options.network.wrap_y = v4_link;
    options.network.cross_pod_x = {GBps(100.0), Micros(1.2)};
  }
  return options;
}

namespace {

// Effective MXU utilization at a given number of matrix rows per core.
double Utilization(const SystemOptions& options, double rows) {
  return options.max_utilization * rows /
         (rows + options.rows_half_saturation);
}

// Model-parallel groups occupy mp/2 neighboring chips (two cores per chip).
int ChipsPerGroup(int model_parallel_cores) {
  return std::max(1, model_parallel_cores / 2);
}

// Analytic cost of one SPMD communication event among the `cores` cores of
// a model-parallel group (cores sit on ChipsPerGroup neighboring chips along
// X; two cores of a chip communicate on-chip at high bandwidth).
SimTime GroupCommSeconds(const spmd::CommEvent& event, int cores,
                         const SystemOptions& options) {
  const Bytes bytes = event.elems * 2;  // bf16 activations
  const int chips = ChipsPerGroup(cores);
  const Bandwidth link = options.network.mesh_x.bandwidth;
  const Bandwidth on_chip = GBps(700.0);  // inter-core on-chip interconnect
  const SimTime overhead = options.network.message_overhead;
  switch (event.kind) {
    case spmd::CommEvent::Kind::kAllReduce: {
      // Ring all-reduce: 2 * bytes * (n-1)/n over the slowest hop.
      if (chips <= 1) {
        return 2.0 * bytes * (cores - 1) / cores / on_chip + overhead;
      }
      return 2.0 * bytes * (chips - 1) / chips / link +
             2.0 * chips * (overhead + options.network.mesh_x.latency);
    }
    case spmd::CommEvent::Kind::kAllGather: {
      if (chips <= 1) {
        return static_cast<double>(bytes) * (cores - 1) / cores / on_chip +
               overhead;
      }
      return static_cast<double>(bytes) * (chips - 1) / chips / link +
             chips * (overhead + options.network.mesh_x.latency);
    }
    case spmd::CommEvent::Kind::kHaloExchange: {
      // Neighbor exchange; half the tile boundaries are on-chip.
      const Bandwidth effective = chips <= 1 ? on_chip : link;
      return static_cast<double>(bytes) / effective + overhead;
    }
  }
  return 0;
}

const optim::Optimizer& DefaultSgd() {
  static const std::unique_ptr<optim::Optimizer> sgd =
      optim::MakeMomentumSgd({});
  return *sgd;
}

std::unique_ptr<optim::Optimizer> OptimizerFor(models::Benchmark benchmark) {
  switch (benchmark) {
    case models::Benchmark::kResNet50:
      return optim::MakeLars({});
    case models::Benchmark::kBert:
      return optim::MakeLamb({});
    default:
      return optim::MakeMomentumSgd({});
  }
}

}  // namespace

namespace {

struct BlockTimes {
  SimTime single_compute = 0;
  SimTime split_compute = 0;
  SimTime split_comm = 0;
};

BlockTimes ModelParallelBlockTimes(models::Benchmark benchmark, int cores,
                                   const SystemOptions& options) {
  models::ShardableBlock block = [&] {
    switch (benchmark) {
      case models::Benchmark::kTransformer:
        return models::TransformerBlock();
      case models::Benchmark::kSsd:
        return models::SsdBackboneBlock();
      case models::Benchmark::kMaskRcnn:
        return models::MaskRcnnBlock();
      default:
        TPU_CHECK(false) << "no model-parallel block for "
                         << models::BenchmarkName(benchmark);
        return models::TransformerBlock();
    }
  }();

  BlockTimes times;
  times.single_compute =
      spmd::CostOfPartitioned(spmd::Partition(block.module, block.shardings, 1),
                              options.core)
          .compute_seconds;
  const spmd::PartitionedCost split = spmd::CostOfPartitioned(
      spmd::Partition(block.module, block.shardings, cores), options.core);
  times.split_compute = split.compute_seconds;
  for (const spmd::CommEvent& event : split.comm) {
    times.split_comm += GroupCommSeconds(event, cores, options);
  }
  if (!options.optimized_model_parallel_comm) {
    // Without the Section 4.5 XLA optimizations: per-op resharding instead
    // of minimized reshard chains, separate gradient all-reduces per model
    // core instead of one fused reduction, and unoptimized halo barriers —
    // roughly 3x the communication the optimized schedule moves.
    times.split_comm *= 3.0;
  }
  return times;
}

// The step's phases in schedule order: forward, backward, the summation's
// stages with the step's weight update as "sharded-update" after
// stages[update_after], then the embedding all-to-all when there is one.
// The one phase list both the step profiler and the run report take.
std::vector<trace::RunReport::Phase> StepPhases(
    const StepBreakdown& step, SimTime forward,
    const coll::GradientSummationResult& result) {
  std::vector<trace::RunReport::Phase> phases;
  phases.reserve(result.stages.size() + 4);
  phases.push_back({"forward", forward});
  phases.push_back({"backward", step.compute - forward});
  for (std::size_t i = 0; i < result.stages.size(); ++i) {
    phases.push_back({result.stages[i].name, result.stages[i].seconds});
    if (static_cast<int>(i) == result.update_after) {
      phases.push_back({"sharded-update", step.weight_update});
    }
  }
  if (step.embedding_comm > 0) {
    phases.push_back({"embedding-comm", step.embedding_comm});
  }
  return phases;
}

}  // namespace

double ModelParallelSpeedup(models::Benchmark benchmark, int cores,
                            const SystemOptions& options) {
  TPU_CHECK_GE(cores, 1);
  if (cores == 1) return 1.0;
  const BlockTimes times = ModelParallelBlockTimes(benchmark, cores, options);
  return times.single_compute / (times.split_compute + times.split_comm);
}

double ModelParallelCommFraction(models::Benchmark benchmark, int cores,
                                 const SystemOptions& options) {
  TPU_CHECK_GT(cores, 1);
  const BlockTimes times = ModelParallelBlockTimes(benchmark, cores, options);
  return times.split_comm / (times.split_compute + times.split_comm);
}

SimTime AllToAllSeconds(const topo::MeshTopology& topology,
                        const net::NetworkConfig& network, Bytes total_bytes) {
  // Bisection-limited: half the payload crosses the narrower machine cut.
  const double x_cut = topology.size_y() *
                       network.mesh_x.bandwidth *
                       (topology.config().wrap_x ? 2.0 : 1.0);
  const double y_cut = topology.size_x() *
                       network.mesh_y.bandwidth *
                       (topology.config().wrap_y ? 2.0 : 1.0);
  const double bisection = std::min(x_cut, y_cut);
  const SimTime wire = static_cast<double>(total_bytes) / 2.0 / bisection;
  // Fan-out: each chip serializes (n-1) message launches.
  const SimTime fanout =
      (topology.num_chips() - 1) * network.message_overhead;
  return std::max(wire, fanout) + network.mesh_x.latency * topology.size_x();
}

StepBreakdown MultipodSystem::SimulateStep(const models::ModelSpec& spec,
                                           std::int64_t global_batch,
                                           int model_parallel_cores,
                                           const optim::Optimizer* optimizer,
                                           trace::StepProfiler* profiler,
                                           trace::RunReport* report) {
  TPU_CHECK_GE(model_parallel_cores, 1);
  TPU_CHECK_EQ(num_cores() % model_parallel_cores, 0);
  const std::int64_t replicas = num_cores() / model_parallel_cores;
  TPU_CHECK_GE(global_batch, replicas)
      << spec.name << ": global batch below one example per replica";
  const double per_replica =
      static_cast<double>(global_batch) / static_cast<double>(replicas);
  if (optimizer == nullptr) optimizer = &DefaultSgd();

  StepBreakdown step;

  // Compute: the full example on one core, divided by the measured
  // model-parallel speedup (which folds in halo/reshard comm, partition
  // load imbalance and the utilization loss of smaller local shapes).
  const double rows = per_replica * spec.rows_per_example;
  const double util = Utilization(options_, rows);
  const SimTime one_core = spec.flops_per_example * per_replica /
                           (options_.core.peak_mxu_flops * util);
  const double mp_speedup =
      model_parallel_cores > 1
          ? ModelParallelSpeedup(spec.benchmark, model_parallel_cores,
                                 options_)
          : 1.0;
  step.compute = one_core / mp_speedup + options_.core.op_overhead * 50;

  // Gradient summation on the simulated interconnect (Section 3.3). With
  // sharded weights each chip carries the shards of its two cores.
  const int chips_per_group = ChipsPerGroup(model_parallel_cores);
  TPU_CHECK_EQ(topology_.size_x() % chips_per_group, 0);
  sim::Simulator simulator;
  net::Network network(&topology_, options_.network, &simulator);
  coll::GradientSummationConfig summation;
  summation.elems = std::max<std::int64_t>(1, spec.parameters / chips_per_group);
  summation.model_parallel_stride = chips_per_group;
  summation.collective.bidirectional = options_.bidirectional_rings;
  summation.collective.bfloat16_wire = options_.bfloat16_gradients;
  if (options_.weight_update_sharding) {
    summation.shard_update_seconds = [&](std::int64_t owned) {
      return optim::WeightUpdateSeconds(*optimizer, owned,
                                        options_.core.peak_vector_flops,
                                        options_.core.hbm_bandwidth);
    };
  }
  // The collective runs on a fresh simulator (t = 0); on the trace timeline
  // it belongs after this step's compute, and successive steps must not
  // overlap. Shift the recorder clock to lay the collective's spans past
  // everything recorded so far plus this step's forward+backward.
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  trace::MetricsRegistry* metrics = trace::CurrentMetrics();
  const SimTime trace_base =
      recorder != nullptr ? recorder->last_timestamp() : 0.0;
  // Causal tracking is opt-in via `report`; when off, the observer slot is
  // left exactly as found so disabled runs stay bit-identical.
  trace::CriticalPathTracker tracker;
  // Nothing observes an unreported step with every sink empty: its
  // summation is priced without the event queue when the ring pricer
  // applies, bit-identical to the simulation (DESIGN.md §9).
  const bool observed = report != nullptr || sim::CurrentRunContext().any();
  bool planned = false;
  std::string plan_name;
  SimTime plan_predicted = 0, plan_estimated = 0;
  const coll::GradientSummationResult result =
      [&]() -> coll::GradientSummationResult {
    trace::ScopedTimeOffset offset(recorder, trace_base + step.compute);
    sim::ScopedEventObserver observe(
        report != nullptr ? static_cast<sim::EventObserver*>(&tracker)
                          : sim::CurrentEventObserver());
    // The wire-format options become search bounds in planner mode.
    plan::PlanRequest request;
    request.elems = summation.elems;
    request.model_parallel_stride = chips_per_group;
    request.allow_bfloat16 = options_.bfloat16_gradients;
    request.allow_bidirectional = options_.bidirectional_rings;
    plan::CollectivePlan chosen = plan::PaperPlan(request);
    if (options_.collective_planner) {
      // Search (memoized per payload/stride) for the best schedule. The
      // search's throwaway candidate evaluations silence the observer
      // themselves; only the chosen plan's real execution is tracked.
      const plan::PlannerResult best = plan::FindBestPlan(
          topology_, options_.network, request, {}, &plan_cache_);
      planned = true;
      chosen = best.plan;
      plan_name = chosen.name();
      plan_predicted = best.predicted_seconds;
      plan_estimated = best.estimated_seconds;
    }
    plan::PlanExecutionConfig exec_config;
    exec_config.shard_update_seconds = summation.shard_update_seconds;
    if (!observed) {
      const plan::LoweredPlan lowered =
          plan::LowerPlan(topology_, chosen, request.elems);
      if (plan::RingPricerApplies(lowered)) {
        return plan::SummarizeTimeline(
            lowered, plan::PriceRingPlan(network, lowered, exec_config));
      }
    }
    if (!planned) return coll::TwoDGradientSummation(network, summation);
    return plan::ExecutePlan(network, chosen, request.elems, exec_config);
  }();
  step.allreduce = result.reduce_seconds + result.broadcast_seconds;
  // Optional overlap of the gradient reduction with backprop: only time
  // actually coverable by compute can be hidden, and never more than the
  // all-reduce itself (an overlap fraction > 1 must saturate, not produce a
  // negative exposed-communication term).
  step.overlapped = std::min({options_.allreduce_overlap_fraction *
                                  step.allreduce,
                              step.allreduce, step.compute});
  step.weight_update =
      options_.weight_update_sharding
          ? result.update_seconds
          : optim::WeightUpdateSeconds(*optimizer, summation.elems,
                                       options_.core.peak_vector_flops,
                                       options_.core.hbm_bandwidth);

  // DLRM: partitioned embedding tables exchange activations/gradients in an
  // all-to-all each step (Section 4.6).
  if (spec.embedding_parameters > 0) {
    // Forward activation gather, backward gradient scatter, and the
    // optimizer's table-update traffic for 26 tables of dim 128.
    const Bytes embedding_bytes =
        static_cast<Bytes>(global_batch) * 26 * 128 * 4 * 3;
    step.embedding_comm =
        AllToAllSeconds(topology_, options_.network, embedding_bytes);
  }

  // Compute splits ~1:2 between forward and backward (standard backprop
  // cost: the backward pass does roughly twice the matmul work).
  const SimTime forward = step.compute / 3.0;
  if (recorder != nullptr) {
    trace::ScopedTimeOffset offset(recorder, trace_base);
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "step");
    const SimTime comm_end = step.compute + result.total();
    const SimTime step_end = comm_end + step.embedding_comm;
    recorder->Complete(track, std::string("step ") + spec.name, 0.0, step_end);
    recorder->Complete(track, "forward", 0.0, forward);
    recorder->Complete(track, "backward", forward, step.compute);
    if (step.embedding_comm > 0) {
      recorder->Complete(track, "embedding-comm", comm_end, step_end);
    }
  }
  if (profiler != nullptr || report != nullptr) {
    std::vector<trace::RunReport::Phase> phases =
        StepPhases(step, forward, result);
    if (profiler != nullptr) {
      profiler->BeginStep(spec.name);
      for (const trace::RunReport::Phase& phase : phases) {
        profiler->Record(phase.name, phase.seconds);
      }
      profiler->EndStep();
    }
    if (report != nullptr) report->phases = std::move(phases);
  }
  if (metrics != nullptr) {
    metrics->Histogram("step.total_us").Record(ToMicros(step.step()));
    network.ExportMetrics(*metrics);
    trace::ExportSimulatorMetrics(simulator, "step.sim", *metrics);
  }
  if (report != nullptr) {
    report->label = std::string("step ") + spec.name;
    report->step_seconds = step.step();
    report->compute_seconds = step.compute;
    report->comm_seconds = step.allreduce + step.embedding_comm;
    report->planned = planned;
    report->plan_name = plan_name;
    report->plan_predicted_seconds = plan_predicted;
    report->plan_estimated_seconds = plan_estimated;
    report->has_critical_path = true;
    report->critical_path = tracker.Analyze();
    report->metrics_json = metrics != nullptr ? metrics->ToJson() : "";
    if (recorder != nullptr) {
      // Stitch the causal chain through the timeline at the same offset the
      // collective's spans were recorded under.
      trace::ScopedTimeOffset offset(recorder, trace_base + step.compute);
      trace::EmitCriticalPathToTrace(report->critical_path, *recorder);
    }
  }
  return step;
}

EndToEndResult MultipodSystem::SimulateTraining(
    models::Benchmark benchmark, std::int64_t global_batch,
    int model_parallel_cores, frameworks::Framework framework) {
  const models::ModelSpec& spec = models::GetModelSpec(benchmark);
  const std::unique_ptr<optim::Optimizer> optimizer = OptimizerFor(benchmark);

  EndToEndResult result;
  result.steps = spec.StepsToConverge(global_batch);
  result.epochs = spec.EpochsToConverge(global_batch);
  result.step = SimulateStep(spec, global_batch, model_parallel_cores,
                             optimizer.get());
  result.train_seconds = result.steps * result.step.step();

  // Evaluation schedule: MLPerf evaluates ~every 4 epochs (20 fixed points
  // for the sub-epoch DLRM run).
  const int num_evals =
      benchmark == models::Benchmark::kDlrm
          ? 20
          : std::max(5, static_cast<int>(result.epochs / 4.0));
  // On-device eval forward passes.
  const double pod_flops = options_.core.peak_mxu_flops * num_cores() *
                           options_.max_utilization;
  const SimTime eval_compute =
      spec.eval_examples * spec.eval_flops_per_example / pod_flops;
  // Metric combination: host gather (TF) vs on-device all-reduce (JAX).
  const SimTime metric_path =
      frameworks::EvalMetricSeconds(framework, topology_.num_hosts());
  // Fixed per-eval loop overhead: pausing the train loop, weight handoff,
  // convergence check.
  const SimTime eval_loop_overhead = Millis(500);
  result.eval_seconds =
      num_evals * (eval_compute + metric_path + eval_loop_overhead);

  // CPU-side metric jobs (COCO eval ~20 s; DLRM AUC ~2 s with the fast C++
  // implementation). TF runs them on the coordinator; JAX round-robins them
  // over the workers (Section 4.4). Only queueing beyond the dispatch
  // cadence adds wall time.
  SimTime cpu_job = 0;
  if (benchmark == models::Benchmark::kSsd) {
    cpu_job = Seconds(3);
  } else if (benchmark == models::Benchmark::kMaskRcnn) {
    cpu_job = Seconds(8);
  } else if (benchmark == models::Benchmark::kDlrm) {
    cpu_job = Seconds(2);
  }
  if (cpu_job > 0 && num_evals > 1) {
    const SimTime interval = result.train_seconds / num_evals;
    // TF: the coordinator runs evals on a small local thread pool; JAX:
    // round-robin across the worker hosts.
    const int workers = framework == frameworks::Framework::kTensorFlow
                            ? 4
                            : std::min(topology_.num_hosts(), num_evals);
    const SimTime span =
        metrics::EvalScheduleSpan(num_evals, interval, cpu_job, workers);
    result.eval_seconds += std::max(0.0, span - (num_evals - 1) * interval);
  }
  return result;
}

recover::ControllerConfig MultipodSystem::RecoveryControllerConfig(
    models::Benchmark benchmark, std::int64_t global_batch,
    int model_parallel_cores, const FaultToleranceOptions& fault_options,
    const FaultTolerantResult& result) {
  const models::ModelSpec& spec = models::GetModelSpec(benchmark);
  const SimTime healthy_step = result.failure_free.step.step();
  const SimTime healthy_allreduce = result.failure_free.step.allreduce;
  // The pricing oracles run throwaway estimates and simulations. The two
  // that reach instrumented code (the planner search and the shrunk-shape
  // step) silence the run context, so the recovered timeline stays
  // bit-identical with or without a recorder.
  const std::shared_ptr<const optim::Optimizer> optimizer =
      OptimizerFor(benchmark);
  const int chips_per_group = ChipsPerGroup(model_parallel_cores);
  plan::PlanRequest request;
  request.elems = std::max<std::int64_t>(1, spec.parameters / chips_per_group);
  request.model_parallel_stride = chips_per_group;
  request.allow_bfloat16 = options_.bfloat16_gradients;
  request.allow_bidirectional = options_.bidirectional_rings;

  recover::StepPricer pricer;
  pricer.healthy_step = healthy_step;
  // Closed-form comm estimate of the *current* schedule under the link
  // snapshot: a failed link on a used route prices at the stall constant
  // and trips any detection deadline. Each snapshot re-prices only the
  // ring groups its links touch.
  const auto comm = std::make_shared<const plan::PlanRepricer>(
      topology_, options_.network,
      plan::LowerPlan(topology_, plan::PaperPlan(request), request.elems));
  pricer.degraded_step = [healthy_step, healthy_allreduce,
                          comm](const plan::LinkHealthSet& health) {
    return recover::DegradedStepSeconds(healthy_step, healthy_allreduce,
                                        *comm, health);
  };
  // Planner search under the snapshot vs under full health: the searched
  // schedules' predicted ratio scales the healthy all-reduce share.
  pricer.replanned_step = [this, healthy_step, healthy_allreduce,
                           request](const plan::LinkHealthSet& health) {
    return recover::ReplannedStepSeconds(healthy_step, healthy_allreduce,
                                         topology_, options_.network,
                                         request, &plan_cache_, health);
  };
  // Same job carved down to a healthy sub-mesh: a throwaway system on the
  // sliced shape re-prices the full step (memoized per shape — the carve
  // search re-asks the same rectangles).
  auto shrunk_memo =
      std::make_shared<std::map<std::pair<int, int>, SimTime>>();
  pricer.shrunk_step = [this, &spec, global_batch, model_parallel_cores,
                        optimizer,
                        shrunk_memo](const topo::SubmeshRect& rect) {
    const std::pair<int, int> key{rect.size_x, rect.size_y};
    const auto it = shrunk_memo->find(key);
    if (it != shrunk_memo->end()) return it->second;
    sim::ScopedSilence silence;
    // The carve keeps Y wrap links only when it spans the full Y extent.
    const bool wrap_y =
        topology_.config().wrap_y && rect.size_y == topology_.size_y();
    MultipodSystem shrunk(
        topo::TopologyConfig::Slice(rect.size_x, rect.size_y, wrap_y),
        options_);
    const SimTime step =
        shrunk
            .SimulateStep(spec, global_batch, model_parallel_cores,
                          optimizer.get())
            .step();
    (*shrunk_memo)[key] = step;
    return step;
  };

  recover::ControllerConfig config;
  config.policy = fault_options.recovery;
  config.costs.checkpoint_write = result.checkpoint.write_seconds;
  config.costs.restore_seconds = result.checkpoint.restore_seconds;
  config.costs.restart_seconds = result.restart_seconds;
  config.pricer = pricer;
  config.total_work =
      result.failure_free.train_seconds + result.failure_free.eval_seconds;
  config.detection_deadline = result.detection_latency;
  config.checkpoint_interval = result.checkpoint_interval;
  config.faults = fault_options.faults;
  config.x_granularity = chips_per_group;
  return config;
}

FaultTolerantResult MultipodSystem::SimulateTrainingUnderFailures(
    models::Benchmark benchmark, std::int64_t global_batch,
    int model_parallel_cores, frameworks::Framework framework,
    const FaultToleranceOptions& fault_options) {
  FaultTolerantResult result;
  result.failure_free = SimulateTraining(benchmark, global_batch,
                                         model_parallel_cores, framework);
  const models::ModelSpec& spec = models::GetModelSpec(benchmark);
  const SimTime base =
      result.failure_free.train_seconds + result.failure_free.eval_seconds;

  result.system_mtbf =
      fault::SystemMtbf(num_chips(), fault_options.faults.chip_mtbf,
                        topology_.num_hosts(),
                        fault_options.faults.host_preemption_mtbf);
  result.checkpoint = fault::EstimateCheckpointCosts(
      spec, topology_.num_hosts(), fault_options.checkpoint);

  // Detection: a fatal fault stalls the next synchronous step; the runtime
  // notices when the step overruns its health-monitor deadline.
  const fault::HealthMonitor monitor(fault_options.monitor);
  result.detection_latency =
      monitor.DeadlineFor(result.failure_free.step.step());
  // Restart replays the full runtime bring-up of Table 2 plus the restore.
  result.restart_seconds =
      result.checkpoint.restore_seconds +
      frameworks::EstimateInitTime(framework, benchmark, num_chips()).total();

  if (fault_options.recovery.enabled) {
    // Event-driven path: replace the analytic expected-makespan formula with
    // a simulated fault -> decision -> downtime -> throughput timeline.
    // Checkpoint cadence: explicit, else the analytic optimum when a fatal
    // class is enabled, else none (scripted transient-only scenarios).
    SimTime tau = fault_options.checkpoint_interval;
    if (tau <= 0 && result.system_mtbf > 0) {
      fault::GoodputConfig goodput;
      goodput.system_mtbf = result.system_mtbf;
      goodput.checkpoint_write = result.checkpoint.write_seconds;
      goodput.detection_latency = result.detection_latency;
      goodput.restart_seconds = result.restart_seconds;
      const SimTime lo = std::max(result.failure_free.step.step(), Millis(1));
      const SimTime hi = std::max(base, 2 * lo);
      tau = fault::OptimalCheckpointInterval(base, goodput, lo, hi);
    }
    result.checkpoint_interval = std::max<SimTime>(tau, 0);

    // One simulation per job. A pathological schedule (back-to-back
    // permanent faults) may outlive the first horizon, so up to five times
    // the horizon doubles in place: the injector arms the seeded schedule's
    // next slice and the same simulator runs on. Every round runs to its
    // horizon, past the work's completion too, so the run injects exactly the
    // faults a fresh run to that horizon would.
    sim::Simulator simulator;
    net::Network network(&topology_, options_.network, &simulator);
    fault::FaultInjector injector(&network, fault_options.faults);
    recover::RecoveryController controller(
        &network, &injector,
        RecoveryControllerConfig(benchmark, global_batch, model_parallel_cores,
                                 fault_options, result));
    const bool scripted = !fault_options.scripted_faults.empty();
    SimTime horizon = std::max<SimTime>(2 * base, Seconds(1));
    if (scripted) {
      injector.ArmScripted(fault_options.scripted_faults);
    } else {
      injector.Arm(horizon);
    }
    // Continuous telemetry over the run: run/net/sim probes on
    // telemetry-class events (work timestamps stay bit-identical), ticking
    // until the controller finishes. Only a completed run is committed.
    telemetry::TelemetrySession* telemetry_session =
        telemetry::CurrentTelemetry();
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
    if (telemetry_session != nullptr) {
      telemetry_session->BeginRun("recovery/" + spec.name, simulator.now());
      sampler = std::make_unique<telemetry::TimeSeriesSampler>(
          &simulator, telemetry_session);
      recover::RegisterRecoveryProbes(*sampler, controller);
      telemetry::RegisterNetworkProbes(*sampler, network);
      telemetry::RegisterSimulatorProbes(*sampler, simulator);
      for (const fault::FaultEvent& event : fault_options.scripted_faults) {
        if (event.kind == fault::FaultKind::kLinkFlap) {
          telemetry::RegisterLinkProbes(*sampler, network, event.link);
        }
      }
      const recover::RecoveryController* ctl = &controller;
      sampler->set_stop_predicate([ctl] { return ctl->finished(); });
      sampler->Start();
    }
    controller.Begin();
    for (int round = 0;; ++round) {
      simulator.RunUntil(horizon,
                         sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
      if (controller.finished() || round == 5) break;
      horizon *= 2;
      if (!scripted) injector.Arm(horizon);
    }
    // Closes the books where the clock stopped if the last horizon expired
    // with work outstanding.
    recover::RecoveryTimeline timeline = controller.Stop();
    if (timeline.completed && telemetry_session != nullptr) {
      telemetry_session->CommitRun();
    }

    result.recovered = true;
    result.expected_seconds = timeline.makespan;
    result.expected_failures = timeline.faults_applied;
    // Same semantic as the analytic model: everything past the failure-free
    // makespan — checkpoint writes included — is badput. A run the last
    // horizon truncated delivered no finished job: goodput 0.
    if (!timeline.completed) {
      result.goodput = 0;
    } else {
      result.goodput = timeline.makespan > 0 ? base / timeline.makespan : 1.0;
    }
    if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
      timeline.ExportMetrics(*metrics);
    }
    result.timeline = std::move(timeline);
    return result;
  }

  if (result.system_mtbf <= 0) {
    // No fatal fault class enabled: exact degeneration to the existing
    // failure-free end-to-end result.
    result.expected_seconds = base;
    return result;
  }

  fault::GoodputConfig goodput;
  goodput.system_mtbf = result.system_mtbf;
  goodput.checkpoint_write = result.checkpoint.write_seconds;
  goodput.detection_latency = result.detection_latency;
  goodput.restart_seconds = result.restart_seconds;
  if (fault_options.checkpoint_interval > 0) {
    result.checkpoint_interval = fault_options.checkpoint_interval;
  } else {
    // Cannot checkpoint more often than one step; no point less often than
    // the whole run.
    const SimTime lo = std::max(result.failure_free.step.step(), Millis(1));
    const SimTime hi = std::max(base, 2 * lo);
    result.checkpoint_interval =
        fault::OptimalCheckpointInterval(base, goodput, lo, hi);
  }
  goodput.checkpoint_interval = result.checkpoint_interval;
  const fault::GoodputResult expected = fault::ExpectedRunTime(base, goodput);
  result.expected_seconds = expected.expected_seconds;
  result.expected_failures = expected.expected_failures;
  result.goodput = expected.goodput();
  return result;
}

EndToEndResult MultipodSystem::SimulateSubmission(
    models::Benchmark benchmark, frameworks::Framework framework) {
  const models::SubmissionScale scale = models::GetSubmissionScale(benchmark);
  TPU_CHECK_EQ(scale.chips, num_chips())
      << "system size does not match the submission scale for "
      << models::BenchmarkName(benchmark);
  return SimulateTraining(benchmark, scale.global_batch,
                          scale.model_parallel_cores, framework);
}

}  // namespace tpu::core
