#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "collectives/all_reduce.h"
#include "common/rng.h"
#include "core/multipod.h"
#include "fault/health_monitor.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "optim/optimizer.h"
#include "optim/weight_update_sharding.h"
#include "plan/cache.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"
#include "trace/run_report.h"
#include "trace/trace.h"

#ifndef PERFBENCH_REPO_ROOT
#error "PERFBENCH_REPO_ROOT must name the repository root"
#endif

namespace perfbench {

using namespace tpu;

std::uint64_t Digest(const Outcome& outcome) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  mix(outcome.values.data(), outcome.values.size() * sizeof(double));
  mix(outcome.text.data(), outcome.text.size());
  return hash;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"steps", "faults"};
  return names;
}

namespace {

constexpr const char* kGoldenPlan = "ring-2d[Y->X] bidir bf16";

// Stable number for a name, so plan choices enter the bit-for-bit compare.
double NameCode(const std::string& name) {
  Outcome text_only;
  text_only.text = name;
  return static_cast<double>(Digest(text_only) >> 11);
}

// ---- Counts read from the objects the direct route owns.

// The event core and network of one simulation driven inside a
// collectives.summation or plan.execute span.
void CountSimulation(Tracer* tracer, const sim::Simulator& simulator,
                     const net::Network& network) {
  if (tracer == nullptr) return;
  tracer->Count("sim.events", static_cast<double>(simulator.events_processed()));
  tracer->Count("sim.queue_refills",
                static_cast<double>(simulator.queue_refills()));
  tracer->Count("sim.pool_hits", static_cast<double>(simulator.pool_hits()));
  tracer->Count("sim.pool_allocs",
                static_cast<double>(simulator.pool_hits() +
                                    simulator.pool_fresh_allocs() +
                                    simulator.pool_oversize_allocs()));
  tracer->Max("sim.peak_queue_depth",
              static_cast<double>(simulator.peak_queue_depth()));
  const net::TrafficStats traffic = network.traffic();
  tracer->Count("network.messages", static_cast<double>(traffic.messages));
  tracer->Count("network.bytes", static_cast<double>(traffic.total_bytes()));
}

// A fresh Simulator + Network, built inside a network.build span.
struct OwnedNetwork {
  sim::Simulator simulator;
  std::unique_ptr<net::Network> network;

  OwnedNetwork(Tracer* tracer, const topo::MeshTopology& topo,
               const net::NetworkConfig& config,
               const plan::LinkHealthSet& health = {}) {
    Span span(tracer, "network.build");
    network = std::make_unique<net::Network>(&topo, config, &simulator);
    health.ApplyTo(*network);
    Count(tracer, "network.builds", 1);
  }
};

std::unique_ptr<topo::MeshTopology> BuildTopology(
    Tracer* tracer, const topo::TopologyConfig& config) {
  Span span(tracer, "topology.build");
  return std::make_unique<topo::MeshTopology>(config);
}

// An op whose public call is also the layer call its traced route spans:
// both routes run the same code.
Op SingleRouteOp(std::string name, bool seeded,
                 std::function<Outcome(Tracer*)> execute) {
  Op op;
  op.name = std::move(name);
  op.seeded = seeded;
  op.run = [execute] { return execute(nullptr); };
  op.direct = std::move(execute);
  return op;
}

// ---- steps: one training step and its summation, observed or not.

struct StepInput {
  models::Benchmark benchmark;
  std::int64_t global_batch;
  int model_parallel_cores;
};

void AddStep(Outcome& outcome, const core::StepBreakdown& step) {
  outcome.Add(step.compute);
  outcome.Add(step.allreduce);
  outcome.Add(step.overlapped);
  outcome.Add(step.weight_update);
  outcome.Add(step.embedding_comm);
  outcome.Add(step.step());
}

// The optimizer SimulateStep falls back to when given none.
const optim::Optimizer& StepOptimizer() {
  static const std::unique_ptr<optim::Optimizer> sgd =
      optim::MakeMomentumSgd({});
  return *sgd;
}

// The gradient summation SimulateStep runs for `input`, rebuilt from public
// pieces: payload per model-parallel group, strided X rings, the system's
// wire options and the sharded weight-update hook.
coll::GradientSummationConfig SummationFor(const core::SystemOptions& options,
                                           const StepInput& input) {
  const models::ModelSpec& spec = models::GetModelSpec(input.benchmark);
  const int chips_per_group = std::max(1, input.model_parallel_cores / 2);
  coll::GradientSummationConfig config;
  config.elems = std::max<std::int64_t>(1, spec.parameters / chips_per_group);
  config.model_parallel_stride = chips_per_group;
  config.collective.bidirectional = options.bidirectional_rings;
  config.collective.bfloat16_wire = options.bfloat16_gradients;
  if (options.weight_update_sharding) {
    const hlo::TpuCoreModel core = options.core;
    config.shard_update_seconds = [core](std::int64_t owned) {
      return optim::WeightUpdateSeconds(StepOptimizer(), owned,
                                        core.peak_vector_flops,
                                        core.hbm_bandwidth);
    };
  }
  return config;
}

// Runs the step's summation directly on a network the benchmark builds for
// the same mesh, and checks it reproduces the step's all-reduce.
void DirectSummation(Tracer* tracer, const core::MultipodSystem& system,
                     const StepInput& input, const core::StepBreakdown& step,
                     Outcome& outcome) {
  const std::unique_ptr<topo::MeshTopology> topo =
      BuildTopology(tracer, system.topology().config());
  OwnedNetwork owned(tracer, *topo, system.options().network);
  coll::GradientSummationResult result;
  {
    Span span(tracer, "collectives.summation");
    result = coll::TwoDGradientSummation(*owned.network,
                                         SummationFor(system.options(), input));
  }
  CountSimulation(tracer, owned.simulator, *owned.network);
  if (result.reduce_seconds + result.broadcast_seconds != step.allreduce) {
    outcome.Fail("direct summation differs from the step's allreduce");
  }
  if (system.options().weight_update_sharding &&
      result.update_seconds != step.weight_update) {
    outcome.Fail("direct summation's update differs from the step's");
  }
}

std::vector<StepInput> SubmissionSteps() {
  std::vector<StepInput> steps;
  for (const models::Benchmark benchmark :
       {models::Benchmark::kBert, models::Benchmark::kResNet50,
        models::Benchmark::kTransformer, models::Benchmark::kSsd}) {
    const models::SubmissionScale scale = models::GetSubmissionScale(benchmark);
    steps.push_back({benchmark, scale.global_batch, scale.model_parallel_cores});
  }
  return steps;
}

core::StepBreakdown Step(core::MultipodSystem& system, const StepInput& input,
                         trace::RunReport* report = nullptr) {
  return system.SimulateStep(models::GetModelSpec(input.benchmark),
                             input.global_batch, input.model_parallel_cores,
                             nullptr, nullptr, report);
}

std::vector<Op> MultipodStep(Size size) {
  const int chips = size == Size::kFull ? 4096 : 256;
  auto system = std::make_shared<core::MultipodSystem>(chips);
  std::vector<Op> ops;
  for (const StepInput& input : SubmissionSteps()) {
    Op op;
    op.name = std::string(models::BenchmarkName(input.benchmark)) + "_" +
              std::to_string(chips);
    op.run = [system, input] {
      Outcome outcome;
      AddStep(outcome, Step(*system, input));
      return outcome;
    };
    op.direct = [system, input](Tracer* tracer) {
      Outcome outcome;
      core::StepBreakdown step;
      {
        Span span(tracer, "core.step");
        step = Step(*system, input);
      }
      AddStep(outcome, step);
      DirectSummation(tracer, *system, input, step, outcome);
      return outcome;
    };
    ops.push_back(std::move(op));
  }
  return ops;
}

// ---- faults: searches, replanning and recovery.

constexpr std::int64_t kBertElems = 340 * 1000 * 1000;  // BERT-scale payload

// A seeded slow row: every X link of one row runs 4x slower. Rows are
// equivalent on the Y torus, so every candidate prices the same wherever
// the row lands: the seed moves the damage, not the amount of search work.
// (The flat snake ring crosses the row too, so it gains no ground.)
plan::LinkHealthSet SeededDegradation(const topo::MeshTopology& topo,
                                      std::uint64_t seed) {
  Rng rng(seed);
  const int row = static_cast<int>(rng.NextBounded(topo.size_y()));
  plan::LinkHealthSet health;
  for (const topo::Link& link : topo.links()) {
    const bool x_link = link.type == topo::LinkType::kMeshX ||
                        link.type == topo::LinkType::kCrossPodX;
    if (x_link && topo.CoordOf(link.from).y == row) {
      health.degraded.emplace_back(link.id, 4.0);
    }
  }
  return health;
}

void AddSearch(Outcome& outcome, const plan::PlannerResult& result) {
  outcome.Add(result.predicted_seconds);
  outcome.Add(result.estimated_seconds);
  outcome.Add(result.candidates);
  outcome.Add(result.evaluated);
  outcome.Add(NameCode(result.plan.name()));
}

plan::PlanRequest BertRequest() {
  plan::PlanRequest request;
  request.elems = kBertElems;
  return request;
}

// FindBestPlan rebuilt from its layers: enumerate, lower and estimate every
// candidate, then re-price the shortlist on owned throwaway networks with
// the same tie-breaks.
plan::PlannerResult DirectSearch(Tracer* tracer, const topo::MeshTopology& topo,
                                 const plan::PlanRequest& request,
                                 const plan::LinkHealthSet& health) {
  const net::NetworkConfig config;
  Span search(tracer, "plan.search");
  std::vector<plan::CollectivePlan> candidates;
  {
    Span span(tracer, "plan.generate");
    candidates = plan::GeneratePlans(topo, request);
  }
  struct Scored {
    SimTime estimate;
    std::string name;
    const plan::CollectivePlan* plan;
  };
  std::vector<Scored> scored;
  for (const plan::CollectivePlan& candidate : candidates) {
    plan::LoweredPlan lowered;
    {
      Span span(tracer, "plan.lower");
      lowered = plan::LowerPlan(topo, candidate, request.elems);
    }
    Span span(tracer, "plan.estimate");
    scored.push_back(
        {plan::EstimatePlanSeconds(topo, config, health, lowered),
         candidate.name(), &candidate});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.estimate != b.estimate ? a.estimate < b.estimate
                                    : a.name < b.name;
  });
  const int top_k = std::min<int>(std::max(request.des_top_k, 1),
                                  static_cast<int>(scored.size()));
  plan::PlannerResult result;
  result.candidates = static_cast<int>(candidates.size());
  result.evaluated = top_k;
  for (int i = 0; i < top_k; ++i) {
    Span reprice(tracer, "plan.reprice");
    OwnedNetwork owned(tracer, topo, config, health);
    SimTime seconds = 0;
    {
      Span span(tracer, "plan.execute");
      seconds =
          plan::ExecutePlan(*owned.network, *scored[i].plan, request.elems)
              .total();
    }
    CountSimulation(tracer, owned.simulator, *owned.network);
    if (i == 0 || seconds < result.predicted_seconds ||
        (seconds == result.predicted_seconds &&
         scored[i].name < result.plan.name())) {
      result.plan = *scored[i].plan;
      result.predicted_seconds = seconds;
      result.estimated_seconds = scored[i].estimate;
    }
  }
  Count(tracer, "plan.candidates", result.candidates);
  Count(tracer, "plan.evaluated", result.evaluated);
  return result;
}

Op SearchOp(std::string name, bool seeded,
            std::shared_ptr<const topo::MeshTopology> topo,
            plan::LinkHealthSet health, bool golden) {
  Op op;
  op.name = std::move(name);
  op.seeded = seeded;
  const auto check = [golden](const plan::PlannerResult& result,
                              Outcome& outcome) {
    if (golden && result.plan.name() != kGoldenPlan) {
      outcome.Fail("healthy search chose " + result.plan.name());
    }
  };
  op.run = [topo, health, check] {
    const plan::PlannerResult result =
        plan::FindBestPlan(*topo, net::NetworkConfig{}, BertRequest(), health);
    Outcome outcome;
    AddSearch(outcome, result);
    check(result, outcome);
    return outcome;
  };
  op.direct = [topo, health, golden, check](Tracer* tracer) {
    const plan::PlannerResult result =
        DirectSearch(tracer, *topo, BertRequest(), health);
    Outcome outcome;
    AddSearch(outcome, result);
    check(result, outcome);
    SimTime evaluated = 0;
    {
      Span span(tracer, "plan.evaluate");
      evaluated = plan::EvaluatePlanOnSimulator(
          *topo, net::NetworkConfig{}, health, result.plan, kBertElems);
    }
    if (evaluated != result.predicted_seconds) {
      outcome.Fail("EvaluatePlanOnSimulator differs from predicted_seconds");
    }
    if (golden) {
      // The paper's fixed schedule must time the chosen plan exactly.
      OwnedNetwork owned(tracer, *topo, net::NetworkConfig{});
      coll::GradientSummationConfig config;
      config.elems = kBertElems;
      config.collective.bfloat16_wire = true;
      SimTime fixed = 0;
      {
        Span span(tracer, "collectives.summation");
        fixed = coll::TwoDGradientSummation(*owned.network, config).total();
      }
      CountSimulation(tracer, owned.simulator, *owned.network);
      if (fixed != result.predicted_seconds) {
        outcome.Fail("fixed 2-D schedule differs from the chosen plan");
      }
    }
    return outcome;
  };
  return op;
}

// The degraded 16x8 slice: one Y cable mid-mesh, chosen by the seed, is dead
// in both directions, so every 2-D schedule stalls.
Op ReplanOp(std::uint64_t seed) {
  const topo::TopologyConfig slice = topo::TopologyConfig::Slice(16, 8, true);
  auto topo = std::make_shared<const topo::MeshTopology>(slice);
  Rng rng(seed);
  const int x = 2 + static_cast<int>(rng.NextBounded(12));
  const int y = 1 + static_cast<int>(rng.NextBounded(5));
  const topo::LinkId up = topo->LinkBetween(topo->ChipAt({x, y}),
                                            topo->ChipAt({x, y + 1}));
  const topo::LinkId down = topo->LinkBetween(topo->ChipAt({x, y + 1}),
                                              topo->ChipAt({x, y}));
  const auto execute = [topo, up, down](Tracer* tracer) {
    OwnedNetwork owned(tracer, *topo, net::NetworkConfig{});
    owned.network->FailLink(up);
    owned.network->FailLink(down);
    plan::PlanRequest request;
    request.elems = 1 << 22;
    fault::HealthMonitor monitor;
    plan::PlanCache cache;
    plan::MitigatedSummation mitigated;
    {
      Span span(tracer, "plan.replan");
      mitigated = plan::ExecuteWithReplanning(
          *owned.network, request, plan::PaperPlan(request), monitor, &cache);
    }
    Count(tracer, "fault.detections", monitor.stats().detections);
    Count(tracer, "plan.cache_hits", static_cast<double>(cache.hits()));
    Count(tracer, "plan.cache_lookups",
          static_cast<double>(cache.hits() + cache.misses()));
    Outcome outcome;
    outcome.Add(mitigated.first.total());
    outcome.Add(mitigated.replanned ? 1 : 0);
    outcome.Add(mitigated.detected_at);
    outcome.Add(mitigated.second.total());
    outcome.Add(NameCode(mitigated.replan.plan.name()));
    if (!mitigated.replanned ||
        mitigated.second.total() >= mitigated.first.total()) {
      outcome.Fail("replanned retry did not beat the stalled first attempt");
    }
    return outcome;
  };
  return SingleRouteOp("replan_16x8", true, execute);
}

void AddTimeline(Outcome& outcome, const recover::RecoveryTimeline& timeline) {
  outcome.Add(timeline.makespan);
  outcome.Add(timeline.base_seconds);
  outcome.Add(timeline.goodput());
  outcome.Add(timeline.faults_applied);
  outcome.Add(timeline.detections);
  outcome.Add(static_cast<double>(timeline.decisions.size()));
  outcome.text += timeline.ToJson();
  if (!timeline.completed) outcome.Fail("recovery timeline truncated");
  if (!(timeline.goodput() > 0 && timeline.goodput() <= 1)) {
    outcome.Fail("recovery goodput outside (0, 1]");
  }
}

void CountTimeline(Tracer* tracer, const recover::RecoveryTimeline& timeline) {
  Count(tracer, "recover.decisions",
        static_cast<double>(timeline.decisions.size()));
  Count(tracer, "recover.faults_applied", timeline.faults_applied);
  Count(tracer, "recover.probes", timeline.probes);
  Count(tracer, "fault.detections", timeline.detections);
}

// Event-driven recovery on a seeded MTBF schedule of link flaps and slowed
// hosts. Slowed hosts are what trip priced recovery decisions, so only the
// schedule's first two are kept: the seed moves every fault in time and
// space but leaves the amount of recovery work alike. The system is built
// inside the op so its plan cache starts empty every time.
Op MtbfOp(int chips, std::uint64_t seed) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  fault::FaultModelConfig faults;
  faults.seed = seed;
  faults.link_flap_mtbf = Seconds(2e4);
  faults.slow_host_mtbf = Seconds(4e3);
  faults.slow_host_degrade_factor = 4096.0;
  faults.slow_host_mean_duration = Seconds(30);
  int slow_hosts = 0;
  for (const fault::FaultEvent& event : fault::GenerateFaultSchedule(
           topo::MeshTopology(core::TopologyForChips(chips)), faults,
           Seconds(200))) {
    if (event.kind == fault::FaultKind::kSlowHost && ++slow_hosts > 2) {
      continue;
    }
    options.scripted_faults.push_back(event);
  }
  options.faults = faults;  // the controller's prior on heal times
  const auto execute = [chips, options](Tracer* tracer) {
    std::unique_ptr<core::MultipodSystem> system;
    {
      Span span(tracer, "topology.build");
      system = std::make_unique<core::MultipodSystem>(chips);
    }
    core::FaultTolerantResult result;
    {
      Span span(tracer, "recover.training");
      result = system->SimulateTrainingUnderFailures(
          models::Benchmark::kDlrm, 65536, 1,
          frameworks::Framework::kTensorFlow, options);
    }
    CountTimeline(tracer, result.timeline);
    Count(tracer, "plan.cache_hits",
          static_cast<double>(system->plan_cache().hits()));
    Count(tracer, "plan.cache_lookups",
          static_cast<double>(system->plan_cache().hits() +
                              system->plan_cache().misses()));
    Outcome outcome;
    outcome.Add(result.expected_seconds);
    outcome.Add(result.goodput);
    AddTimeline(outcome, result.timeline);
    if (!result.recovered) outcome.Fail("recovery did not run");
    return outcome;
  };
  return SingleRouteOp("mtbf_recovery_" + std::to_string(chips), true,
                       execute);
}

std::vector<Op> PlanUnderFaults(std::uint64_t seed, Size size) {
  const int small = size == Size::kFull ? 1024 : 256;
  const int large = size == Size::kFull ? 4096 : 512;
  auto small_topo = std::make_shared<const topo::MeshTopology>(
      core::TopologyForChips(small));
  auto large_topo = std::make_shared<const topo::MeshTopology>(
      core::TopologyForChips(large));
  // Each seeded input draws from its own stream: seed, seed + 1, ...
  const std::string small_name = std::to_string(small);
  const std::string large_name = std::to_string(large);
  std::vector<Op> ops;
  ops.push_back(SearchOp("search_" + small_name + "_healthy", false,
                         small_topo, {}, true));
  ops.push_back(SearchOp("search_" + small_name + "_degraded", true,
                         small_topo,
                         SeededDegradation(*small_topo, seed), false));
  ops.push_back(SearchOp("search_" + large_name + "_healthy", false,
                         large_topo, {}, true));
  ops.push_back(SearchOp("search_" + large_name + "_degraded", true,
                         large_topo,
                         SeededDegradation(*large_topo, seed + 1), false));
  ops.push_back(ReplanOp(seed + 2));
  ops.push_back(MtbfOp(small, seed + 3));
  return ops;
}

// ---- faults: a shared 4-pod cluster under a seeded job stream.

cluster::ClusterConfig ChurnCluster(SimTime horizon) {
  cluster::ClusterConfig config;
  config.topology.num_pods = 4;
  config.horizon = horizon;
  return config;
}

void AddClusterReport(Outcome& outcome, const cluster::ClusterReport& report,
                      int expected_jobs) {
  outcome.Add(report.elapsed);
  outcome.Add(report.jobs_submitted);
  outcome.Add(report.jobs_completed);
  outcome.Add(report.faults_injected);
  outcome.Add(report.utilization);
  outcome.Add(report.goodput);
  outcome.Add(report.wait_p50);
  outcome.Add(report.wait_p99);
  outcome.Add(report.preemptions);
  outcome.text += report.ToJson();
  int completed = 0;
  for (const cluster::JobOutcome& job : report.jobs) {
    if (std::strcmp(job.state, "completed") == 0) ++completed;
  }
  if (report.jobs_submitted != expected_jobs ||
      static_cast<int>(report.jobs.size()) != expected_jobs ||
      report.jobs_completed + report.jobs_running_at_end +
              report.jobs_queued_at_end !=
          expected_jobs ||
      completed != report.jobs_completed) {
    outcome.Fail("cluster jobs not all accounted for");
  }
  if (!(report.utilization >= 0 && report.utilization <= 1)) {
    outcome.Fail("cluster utilization outside [0, 1]");
  }
  if (!(report.goodput >= 0 && report.goodput <= 1)) {
    outcome.Fail("cluster goodput outside [0, 1]");
  }
}

Op ClusterOp(std::string name, bool seeded, cluster::ClusterConfig config,
             std::shared_ptr<const std::vector<cluster::JobSpec>> jobs) {
  const int expected_jobs = static_cast<int>(std::count_if(
      jobs->begin(), jobs->end(), [&config](const cluster::JobSpec& job) {
        return job.arrival < config.horizon;
      }));
  const auto execute = [config, jobs, expected_jobs](Tracer* tracer) {
    std::unique_ptr<cluster::ClusterSimulation> sim;
    {
      Span span(tracer, "cluster.setup");
      sim = std::make_unique<cluster::ClusterSimulation>(config, *jobs);
    }
    cluster::ClusterReport report;
    {
      Span span(tracer, "cluster.run");
      report = sim->Run();
    }
    Count(tracer, "cluster.sim_events",
          static_cast<double>(sim->simulator().events_processed()));
    Count(tracer, "cluster.jobs_completed", report.jobs_completed);
    Count(tracer, "cluster.preemptions", report.preemptions);
    Count(tracer, "cluster.faults_injected", report.faults_injected);
    for (const cluster::JobOutcome& job : report.jobs) {
      Count(tracer, "recover.decisions",
            static_cast<double>(job.decisions.size()));
    }
    Outcome outcome;
    AddClusterReport(outcome, report, expected_jobs);
    return outcome;
  };
  return SingleRouteOp(std::move(name), seeded, execute);
}

std::vector<Op> ClusterChurn(std::uint64_t seed, Size size) {
  const SimTime horizon = size == Size::kFull ? Hours(12) : Hours(0.25);
  cluster::WorkloadConfig workload;
  workload.seed = seed;
  workload.mean_interarrival = Seconds(30);
  workload.horizon = horizon;
  auto stream = std::make_shared<const std::vector<cluster::JobSpec>>(
      cluster::GeneratePoissonWorkload(workload));

  std::vector<cluster::JobSpec> replay;
  std::string error;
  const std::string trace_path =
      std::string(PERFBENCH_REPO_ROOT) + "/docs/cluster_jobs.trace";
  if (!cluster::LoadJobsTrace(trace_path, &replay, &error)) {
    throw std::runtime_error("cannot load " + trace_path + ": " + error);
  }
  auto replay_jobs =
      std::make_shared<const std::vector<cluster::JobSpec>>(std::move(replay));

  std::vector<Op> ops;
  for (const cluster::CarvePolicy policy :
       {cluster::CarvePolicy::kFirstFit, cluster::CarvePolicy::kBestFit,
        cluster::CarvePolicy::kBackfill}) {
    cluster::ClusterConfig config = ChurnCluster(horizon);
    config.policy = policy;
    config.faults.seed = seed;
    config.faults.link_flap_mtbf = Seconds(3e4);
    config.faults.link_flap_degrade_factor = 2.0;
    ops.push_back(ClusterOp(std::string("churn_") +
                                cluster::CarvePolicyName(policy),
                            true, config, stream));
  }
  ops.push_back(ClusterOp("trace_replay", false, ChurnCluster(horizon),
                          replay_jobs));
  return ops;
}

// ---- steps: the same step with every observer live; faults: the recovery
// suite under telemetry.

// Segments must tile [start, makespan] without gaps.
bool TilesMakespan(const trace::CriticalPathReport& path) {
  if (path.segments.empty()) return false;
  SimTime cursor = path.start;
  for (const trace::PathSegment& segment : path.segments) {
    if (segment.start != cursor) return false;
    cursor = segment.end;
  }
  return cursor == path.makespan;
}

Op ObservedStepOp(std::shared_ptr<core::MultipodSystem> system) {
  const StepInput input{models::Benchmark::kBert, 8192, 1};
  // The observed step and its JSON exports; `tracer` only adds spans.
  const auto observed = [system, input](Tracer* tracer) {
    trace::TraceRecorder recorder;
    trace::MetricsRegistry metrics;
    trace::RunReport report;
    core::StepBreakdown step;
    {
      Span span(tracer, "core.step_observed");
      trace::ScopedTrace trace_scope(&recorder);
      trace::ScopedMetrics metrics_scope(&metrics);
      step = Step(*system, input, &report);
    }
    std::string report_json, recorder_json, metrics_json;
    {
      Span span(tracer, "trace.export");
      report_json = report.ToJson();
      recorder_json = recorder.ToJson();
      metrics_json = metrics.ToJson();
    }
    Count(tracer, "trace.recorder_events",
          static_cast<double>(recorder.event_count()));
    Outcome outcome;
    AddStep(outcome, step);
    const trace::CriticalPathReport& path = report.critical_path;
    outcome.Add(path.makespan);
    outcome.Add(path.path_nodes);
    outcome.Add(path.total_nodes);
    outcome.Add(static_cast<double>(recorder.event_count()));
    // The recorder JSON is simulated time only; the report and metrics
    // dumps carry process-history-dependent pool counters, so they are
    // exported but not digested.
    outcome.text = std::move(recorder_json);
    if (report_json.empty() || metrics_json.empty()) {
      outcome.Fail("empty JSON export");
    }
    if (!TilesMakespan(path)) {
      outcome.Fail("critical path does not tile the collective's makespan");
    }
    if (path.makespan != step.allreduce + step.weight_update) {
      outcome.Fail("critical-path makespan differs from the collective's");
    }
    return std::make_pair(outcome, step);
  };
  Op op;
  op.name = "bert_" + std::to_string(system->num_chips()) + "_observed";
  op.run = [observed] { return observed(nullptr).first; };
  op.direct = [system, input, observed](Tracer* tracer) {
    auto [outcome, step] = observed(tracer);
    core::StepBreakdown plain;
    {
      Span span(tracer, "core.step");
      plain = Step(*system, input);
    }
    Outcome plain_outcome, observed_outcome;
    AddStep(plain_outcome, plain);
    AddStep(observed_outcome, step);
    if (Digest(plain_outcome) != Digest(observed_outcome)) {
      outcome.Fail("observers changed the step's simulated times");
    }
    DirectSummation(tracer, *system, input, step, outcome);
    return outcome;
  };
  return op;
}

// The four canonical recovery scenarios on the degraded-width 16x8 slice,
// exported through one telemetry session.
Op RecoverySuiteOp() {
  const auto execute = [](Tracer* tracer) {
    const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
    const SimTime fault_at = Seconds(50);
    fault::FaultEvent slow_host;
    slow_host.kind = fault::FaultKind::kSlowHost;
    slow_host.host = topo.HostOf(topo.ChipAt({3, 3}));
    slow_host.at = fault_at;
    slow_host.duration = Seconds(30);
    slow_host.degrade_factor = 4096.0;
    fault::FaultEvent dead_link;
    dead_link.kind = fault::FaultKind::kLinkFlap;
    dead_link.link = topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));
    dead_link.at = fault_at;
    dead_link.degrade_factor = 1024.0;
    fault::FaultEvent dead_chip;
    dead_chip.kind = fault::FaultKind::kChipFailure;
    dead_chip.chip = topo.ChipAt({5, 3});
    dead_chip.at = fault_at;
    struct Scenario {
      fault::FaultEvent fault;
      int spare_hosts;
      double min_shrink_fraction;
      SimTime slow_host_mean;
    };
    const Scenario scenarios[] = {{slow_host, 0, 0.25, Seconds(30)},
                                  {dead_link, 0, 0.25, 0},
                                  {dead_chip, 0, 0.25, 0},
                                  {dead_chip, 1, 0.95, 0}};

    telemetry::TelemetrySession session;
    Outcome outcome;
    for (const Scenario& scenario : scenarios) {
      core::FaultToleranceOptions options;
      options.recovery.enabled = true;
      options.checkpoint_interval = Seconds(600);
      options.scripted_faults = {scenario.fault};
      options.recovery.spare_hosts = scenario.spare_hosts;
      options.recovery.min_shrink_fraction = scenario.min_shrink_fraction;
      if (scenario.slow_host_mean > 0) {
        options.faults.slow_host_mean_duration = scenario.slow_host_mean;
      }
      core::MultipodSystem system(topo.config());
      core::FaultTolerantResult result;
      {
        Span span(tracer, "recover.training");
        telemetry::ScopedTelemetry install(&session);
        result = system.SimulateTrainingUnderFailures(
            models::Benchmark::kDlrm, 65536, 1,
            frameworks::Framework::kTensorFlow, options);
      }
      CountTimeline(tracer, result.timeline);
      AddTimeline(outcome, result.timeline);
    }
    {
      Span span(tracer, "telemetry.export");
      outcome.text += session.ToJson();
    }
    for (const telemetry::RunData& run : session.runs()) {
      Count(tracer, "telemetry.ticks", static_cast<double>(run.ticks));
    }
    return outcome;
  };
  return SingleRouteOp("recovery_suite_telemetry", false, execute);
}


}  // namespace

std::vector<Op> SetUpWorkload(const std::string& workload, std::uint64_t seed,
                              Size size) {
  std::vector<Op> ops;
  std::string warm_up;
  if (workload == "steps") {
    // One large simulation per op: the submission steps unobserved, then
    // the smaller BERT step with every observer live.
    ops = MultipodStep(size);
    warm_up = ops.back().name;  // SSD: the smallest payload
    const int observed_chips = size == Size::kFull ? 256 : 64;
    ops.push_back(ObservedStepOp(
        std::make_shared<core::MultipodSystem>(observed_chips)));
  } else if (workload == "faults") {
    // Many small throwaway simulations: searches, replanning, recovery and
    // cluster churn.
    ops = PlanUnderFaults(seed, size);
    ops.push_back(RecoverySuiteOp());
    for (Op& op : ClusterChurn(seed, size)) ops.push_back(std::move(op));
    warm_up = "replan_16x8";  // the smallest mesh
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  for (const Op& op : ops) {
    if (op.name == warm_up) op.run();
  }
  return ops;
}

}  // namespace perfbench
