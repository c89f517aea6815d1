#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/multipod.h"
#include "models/model_specs.h"
#include "optim/optimizer.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "trace/metrics.h"
#include "trace/run_report.h"
#include "trace/step_profiler.h"

namespace tpu::core {
namespace {

using models::Benchmark;

TEST(TopologyForChips, PaperShapes) {
  EXPECT_EQ(TopologyForChips(4096).num_chips(), 4096);
  EXPECT_EQ(TopologyForChips(4096).num_pods, 4);
  EXPECT_EQ(TopologyForChips(1024).num_pods, 1);
  const auto slice512 = TopologyForChips(512);
  EXPECT_EQ(slice512.size_x(), 16);
  EXPECT_EQ(slice512.size_y(), 32);
  const auto slice16 = TopologyForChips(16);
  EXPECT_EQ(slice16.num_chips(), 16);
}

TEST(MultipodSystem, CoreAndHostCounts) {
  MultipodSystem system(256);
  EXPECT_EQ(system.num_chips(), 256);
  EXPECT_EQ(system.num_cores(), 512);
}

TEST(SimulateStep, BreakdownComponentsArePositive) {
  MultipodSystem system(64);
  const auto& bert = models::GetModelSpec(Benchmark::kBert);
  const auto lamb = optim::MakeLamb({});
  const StepBreakdown step = system.SimulateStep(bert, 512, 1, lamb.get());
  EXPECT_GT(step.compute, 0);
  EXPECT_GT(step.allreduce, 0);
  EXPECT_GT(step.weight_update, 0);
  EXPECT_EQ(step.embedding_comm, 0);  // no embeddings in BERT
  EXPECT_NEAR(step.step(),
              step.compute + step.allreduce + step.weight_update, 1e-12);
}

TEST(SimulateStep, ComputeShrinksWithScaleAllReduceStaysFlat) {
  // The Figure 6/8 shape: fixed global batch, growing machine.
  const auto& resnet = models::GetModelSpec(Benchmark::kResNet50);
  SimTime prev_compute = 1e9;
  SimTime first_allreduce = 0;
  for (int chips : {16, 64, 256}) {
    MultipodSystem system(chips);
    const StepBreakdown step = system.SimulateStep(resnet, 16384, 1);
    EXPECT_LT(step.compute, prev_compute) << chips;
    prev_compute = step.compute;
    if (first_allreduce == 0) first_allreduce = step.allreduce;
    // All-reduce within 2.5x across a 16x scale change (Y-ring dominated).
    EXPECT_LT(step.allreduce, first_allreduce * 2.5) << chips;
    EXPECT_GT(step.allreduce, first_allreduce / 2.5) << chips;
  }
}

TEST(SimulateStep, AllReduceFractionGrowsWithScale) {
  const auto& bert = models::GetModelSpec(Benchmark::kBert);
  MultipodSystem small(16);
  MultipodSystem large(256);
  const double small_frac =
      small.SimulateStep(bert, 16 * 2 * 48, 1).allreduce_fraction();
  const double large_frac =
      large.SimulateStep(bert, 256 * 2 * 4, 1).allreduce_fraction();
  EXPECT_GT(large_frac, small_frac);
}

TEST(SimulateStep, WeightUpdateShardingRemovesOptimizerBottleneck) {
  // Section 3.2: LAMB's replicated update was ~18% of BERT step time at 512
  // chips; sharding divides it by the replica count.
  const auto& bert = models::GetModelSpec(Benchmark::kBert);
  const auto lamb = optim::MakeLamb({});

  SystemOptions with_wus;
  with_wus.weight_update_sharding = true;
  SystemOptions without_wus;
  without_wus.weight_update_sharding = false;

  MultipodSystem sharded(512, with_wus);
  MultipodSystem replicated(512, without_wus);
  const std::int64_t batch = 4096;
  const StepBreakdown fast = sharded.SimulateStep(bert, batch, 1, lamb.get());
  const StepBreakdown slow =
      replicated.SimulateStep(bert, batch, 1, lamb.get());

  EXPECT_LT(fast.weight_update, slow.weight_update / 100);
  // The replicated update is a significant share of the step (the paper
  // measured ~18%).
  const double share = slow.weight_update / slow.step();
  EXPECT_GT(share, 0.08);
  EXPECT_LT(share, 0.40);
  EXPECT_LT(fast.step(), slow.step());
}

TEST(SimulateStep, Bfloat16GradientsCutAllReduceTime) {
  const auto& resnet = models::GetModelSpec(Benchmark::kResNet50);
  SystemOptions bf16;
  bf16.bfloat16_gradients = true;
  SystemOptions f32;
  f32.bfloat16_gradients = false;
  MultipodSystem a(64, bf16), b(64, f32);
  const SimTime t_bf16 = a.SimulateStep(resnet, 8192, 1).allreduce;
  const SimTime t_f32 = b.SimulateStep(resnet, 8192, 1).allreduce;
  EXPECT_LT(t_bf16, t_f32 * 0.7);
}

TEST(SimulateStep, ModelParallelEngagesShardedPayloads) {
  const auto& transformer = models::GetModelSpec(Benchmark::kTransformer);
  MultipodSystem system(64);
  // 128 cores, mp=4 -> 32 replicas.
  const StepBreakdown mp = system.SimulateStep(transformer, 2048, 4);
  const StepBreakdown dp = system.SimulateStep(transformer, 2048, 1);
  // Sharded weights mean a smaller gradient payload per chip.
  EXPECT_LT(mp.allreduce, dp.allreduce);
}

TEST(SimulateStep, DlrmHasEmbeddingComm) {
  const auto& dlrm = models::GetModelSpec(Benchmark::kDlrm);
  MultipodSystem system(256);
  const StepBreakdown step = system.SimulateStep(dlrm, 65536, 1);
  EXPECT_GT(step.embedding_comm, 0);
  // DLRM's step is communication-dominated (Section 4.6).
  EXPECT_GT(step.embedding_comm + step.allreduce, step.compute);
}

TEST(ModelParallelSpeedup, MatchesPaperShape) {
  // Figure 9: speedups monotone in cores, sublinear; Transformer ~2.3x at 4.
  for (Benchmark b :
       {Benchmark::kSsd, Benchmark::kMaskRcnn, Benchmark::kTransformer}) {
    double prev = ModelParallelSpeedup(b, 1);
    EXPECT_DOUBLE_EQ(prev, 1.0);
    for (int cores : {2, 4, 8}) {
      const double s = ModelParallelSpeedup(b, cores);
      EXPECT_GT(s, prev) << models::BenchmarkName(b) << " cores " << cores;
      EXPECT_LT(s, cores) << models::BenchmarkName(b) << " cores " << cores;
      prev = s;
    }
  }
  // Paper: ~2.3x at 4 cores. Our block includes head-sharded attention
  // (which parallelizes perfectly), landing slightly above.
  const double transformer4 =
      ModelParallelSpeedup(Benchmark::kTransformer, 4);
  EXPECT_NEAR(transformer4, 2.6, 0.9);
}

TEST(AllToAll, BisectionAndFanoutRegimes) {
  topo::MeshTopology topology(TopologyForChips(64));
  net::NetworkConfig network;
  // Large payload: bisection-limited; doubling bytes doubles time.
  const SimTime big = AllToAllSeconds(topology, network, 8LL << 30);
  const SimTime bigger = AllToAllSeconds(topology, network, 16LL << 30);
  EXPECT_NEAR(bigger / big, 2.0, 0.1);
  // Tiny payload: fan-out-overhead limited; byte count stops mattering.
  const SimTime tiny = AllToAllSeconds(topology, network, 1024);
  const SimTime tiny2 = AllToAllSeconds(topology, network, 2048);
  EXPECT_NEAR(tiny2 / tiny, 1.0, 0.01);
}

TEST(SimulateTraining, StepsAndEpochsConsistent) {
  MultipodSystem system(64);
  const auto result = system.SimulateTraining(
      Benchmark::kResNet50, 8192, 1, frameworks::Framework::kJax);
  const auto& spec = models::GetModelSpec(Benchmark::kResNet50);
  EXPECT_EQ(result.steps, spec.StepsToConverge(8192));
  EXPECT_NEAR(result.epochs, spec.EpochsToConverge(8192), 1e-9);
  EXPECT_GT(result.train_seconds, 0);
  EXPECT_GT(result.eval_seconds, 0);
}

TEST(SimulateTraining, JaxEvalPathIsCheaper) {
  MultipodSystem system(256);
  const auto tf = system.SimulateTraining(Benchmark::kResNet50, 32768, 1,
                                          frameworks::Framework::kTensorFlow);
  const auto jax = system.SimulateTraining(Benchmark::kResNet50, 32768, 1,
                                           frameworks::Framework::kJax);
  EXPECT_EQ(tf.steps, jax.steps);
  EXPECT_NEAR(tf.train_seconds, jax.train_seconds, 1e-9);
  EXPECT_LT(jax.eval_seconds, tf.eval_seconds);
}

TEST(SimulateSubmission, RejectsWrongMachineSize) {
  MultipodSystem system(64);
  EXPECT_DEATH(
      (void)system.SimulateSubmission(Benchmark::kBert,
                                      frameworks::Framework::kJax),
      "submission scale");
}

TEST(SimulateSubmission, MaskRcnnAtPaperScale) {
  MultipodSystem system(512);
  const auto result = system.SimulateSubmission(
      Benchmark::kMaskRcnn, frameworks::Framework::kTensorFlow);
  // Paper: 8.1 minutes. Shape band: same order of magnitude.
  EXPECT_GT(result.minutes(), 3.0);
  EXPECT_LT(result.minutes(), 16.0);
}

TEST(EndToEnd, FasterThanV06BaselinesAtSubmissionScale) {
  // Table 1's speedup column is > 1 for every returning model. MaskRCNN's
  // 512-chip run and SSD's 4096-chip run are the cheap and expensive ends.
  MultipodSystem mask_rcnn(512);
  EXPECT_LT(mask_rcnn
                .SimulateSubmission(Benchmark::kMaskRcnn,
                                    frameworks::Framework::kTensorFlow)
                .minutes(),
            models::MlperfV06Minutes(Benchmark::kMaskRcnn));
  MultipodSystem dlrm(256);
  const auto result = dlrm.SimulateSubmission(
      Benchmark::kDlrm, frameworks::Framework::kTensorFlow);
  EXPECT_GT(result.minutes(), 0.5);
  EXPECT_LT(result.minutes(), 6.0);  // paper: 2.4
}

TEST(TpuGeneration, V4IsFasterThanV3) {
  // The paper's footnote: DLRM's best result (1.21 min) came from TPU-v4 vs
  // 2.4 min on v3 — roughly 2x.
  core::MultipodSystem v3(256, OptionsForGeneration(TpuGeneration::kV3));
  core::MultipodSystem v4(256, OptionsForGeneration(TpuGeneration::kV4));
  const auto r3 = v3.SimulateSubmission(Benchmark::kDlrm,
                                        frameworks::Framework::kTensorFlow);
  const auto r4 = v4.SimulateSubmission(Benchmark::kDlrm,
                                        frameworks::Framework::kTensorFlow);
  EXPECT_LT(r4.minutes(), r3.minutes());
  EXPECT_GT(r3.minutes() / r4.minutes(), 1.2);
  EXPECT_LT(r3.minutes() / r4.minutes(), 3.0);
}

TEST(TpuGeneration, V3MatchesDefaults) {
  const SystemOptions v3 = OptionsForGeneration(TpuGeneration::kV3);
  const SystemOptions defaults;
  EXPECT_DOUBLE_EQ(v3.core.peak_mxu_flops, defaults.core.peak_mxu_flops);
}

TEST(Overlap, HidesAllReduceUnderCompute) {
  const auto& bert = models::GetModelSpec(Benchmark::kBert);
  SystemOptions none;
  SystemOptions full;
  full.allreduce_overlap_fraction = 1.0;
  core::MultipodSystem a(64, none), b(64, full);
  const auto exposed = a.SimulateStep(bert, 512, 1);
  const auto hidden = b.SimulateStep(bert, 512, 1);
  EXPECT_EQ(exposed.overlapped, 0.0);
  EXPECT_GT(hidden.overlapped, 0.0);
  EXPECT_NEAR(hidden.step(), exposed.step() - exposed.allreduce, 1e-9);
}

TEST(Overlap, CannotHideMoreThanCompute) {
  // A communication-dominated config: overlap is capped by compute.
  const auto& transformer = models::GetModelSpec(Benchmark::kTransformer);
  SystemOptions full;
  full.allreduce_overlap_fraction = 1.0;
  core::MultipodSystem system(64, full);
  const auto step = system.SimulateStep(transformer, 2048, 4);
  EXPECT_LE(step.overlapped, step.compute + 1e-12);
  EXPECT_GT(step.step(), 0.0);
}

TEST(CommOptimization, ReducesModelParallelCommShare) {
  // Section 4.5: the XLA communication optimizations cut MaskRCNN's
  // model-parallel communication overhead ~3x (paper: 30% -> 10%).
  SystemOptions optimized;
  SystemOptions unoptimized;
  unoptimized.optimized_model_parallel_comm = false;
  const double before =
      ModelParallelCommFraction(Benchmark::kMaskRcnn, 4, unoptimized);
  const double after =
      ModelParallelCommFraction(Benchmark::kMaskRcnn, 4, optimized);
  EXPECT_GT(before, 2.0 * after);
  EXPECT_GT(before, 0.10);
  EXPECT_LT(after, 0.12);
  // And the speedup improves accordingly.
  EXPECT_GT(ModelParallelSpeedup(Benchmark::kMaskRcnn, 4, optimized),
            ModelParallelSpeedup(Benchmark::kMaskRcnn, 4, unoptimized));
}

// An unobserved step prices its summation without the event queue; a step
// with a metrics sink installed runs it on the simulator. The two must
// agree in every StepBreakdown field and every profiler phase, bit for bit,
// for the five submission benchmarks (Transformer and SSD with strided X
// rings, DLRM with its embedding all-to-all), with the sharded update on
// and off and with the planner on and off.
void ExpectUnobservedStepMatchesSimulatedStep(int chips) {
  const auto bits = [](SimTime t) { return std::bit_cast<std::uint64_t>(t); };
  for (const Benchmark benchmark :
       {Benchmark::kBert, Benchmark::kResNet50, Benchmark::kTransformer,
        Benchmark::kSsd, Benchmark::kDlrm}) {
    const models::ModelSpec& spec = models::GetModelSpec(benchmark);
    const models::SubmissionScale scale =
        models::GetSubmissionScale(benchmark);
    for (const bool sharded : {true, false}) {
      for (const bool planner : {false, true}) {
        SCOPED_TRACE(std::string(spec.name) + " " + std::to_string(chips) +
                     (sharded ? " sharded" : " replicated") +
                     (planner ? " planner" : " paper"));
        SystemOptions options;
        options.weight_update_sharding = sharded;
        options.collective_planner = planner;
        trace::StepProfiler unobserved_profile, observed_profile;
        const StepBreakdown unobserved =
            MultipodSystem(chips, options)
                .SimulateStep(spec, scale.global_batch,
                              scale.model_parallel_cores, nullptr,
                              &unobserved_profile);
        trace::MetricsRegistry metrics;
        StepBreakdown observed;
        {
          trace::ScopedMetrics sink(&metrics);
          observed = MultipodSystem(chips, options)
                         .SimulateStep(spec, scale.global_batch,
                                       scale.model_parallel_cores, nullptr,
                                       &observed_profile);
        }
        // The sink saw the simulator run the summation.
        EXPECT_GT(metrics.Counter("step.sim.events_processed").value, 0);
        EXPECT_EQ(bits(unobserved.compute), bits(observed.compute));
        EXPECT_EQ(bits(unobserved.allreduce), bits(observed.allreduce));
        EXPECT_EQ(bits(unobserved.overlapped), bits(observed.overlapped));
        EXPECT_EQ(bits(unobserved.weight_update),
                  bits(observed.weight_update));
        EXPECT_EQ(bits(unobserved.embedding_comm),
                  bits(observed.embedding_comm));
        EXPECT_EQ(bits(unobserved.step()), bits(observed.step()));
        // The same phases under the same names, bit for bit.
        EXPECT_EQ(unobserved_profile.phases(), observed_profile.phases());
        for (const std::string& phase : observed_profile.phases()) {
          EXPECT_EQ(bits(unobserved_profile.StepSeconds(0, phase)),
                    bits(observed_profile.StepSeconds(0, phase)))
              << phase;
        }
      }
    }
  }
}

TEST(SimulateStep, UnobservedStepMatchesTheSimulatedStepAt256Chips) {
  ExpectUnobservedStepMatchesSimulatedStep(256);
}

TEST(SimulateStep, UnobservedStepMatchesTheSimulatedStepAt1024Chips) {
  ExpectUnobservedStepMatchesSimulatedStep(1024);
}

// One phase taxonomy: an observed step's run report, its step profile and
// its critical path all name the step's phases the same way. The list is
// forward, backward, the executed plan's lowered stage names with
// "sharded-update" after the update stage, then embedding-comm when the
// step has one. BERT runs plain Y/X rings, Transformer strided X rings.
TEST(SimulateStep, ReportProfilerAndCriticalPathShareOnePhaseList) {
  constexpr int kChips = 256;
  for (const Benchmark benchmark :
       {Benchmark::kBert, Benchmark::kTransformer}) {
    const models::ModelSpec& spec = models::GetModelSpec(benchmark);
    const models::SubmissionScale scale =
        models::GetSubmissionScale(benchmark);
    for (const bool planner : {false, true}) {
      SCOPED_TRACE(std::string(spec.name) + (planner ? " planner" : " paper"));
      SystemOptions options;
      options.collective_planner = planner;
      MultipodSystem system(kChips, options);
      trace::StepProfiler profiler;
      trace::RunReport report;
      const StepBreakdown step =
          system.SimulateStep(spec, scale.global_batch,
                              scale.model_parallel_cores, nullptr, &profiler,
                              &report);

      // The plan the step ran, lowered the way SimulateStep lowers it.
      const int stride = std::max(1, scale.model_parallel_cores / 2);
      plan::PlanRequest request;
      request.elems = std::max<std::int64_t>(1, spec.parameters / stride);
      request.model_parallel_stride = stride;
      request.allow_bfloat16 = options.bfloat16_gradients;
      request.allow_bidirectional = options.bidirectional_rings;
      const plan::CollectivePlan ran =
          planner ? plan::FindBestPlan(system.topology(), options.network,
                                       request)
                        .plan
                  : plan::PaperPlan(request);
      if (planner) {
        EXPECT_EQ(report.plan_name, ran.name());
      }
      const plan::LoweredPlan lowered =
          plan::LowerPlan(system.topology(), ran, request.elems);
      std::vector<std::string> want = {"forward", "backward"};
      for (std::size_t i = 0; i < lowered.stages.size(); ++i) {
        want.push_back(lowered.stages[i].name);
        if (static_cast<int>(i) == lowered.update_after) {
          want.push_back("sharded-update");
        }
      }
      if (step.embedding_comm > 0) want.push_back("embedding-comm");

      std::vector<std::string> reported;
      for (const trace::RunReport::Phase& phase : report.phases) {
        reported.push_back(phase.name);
      }
      EXPECT_EQ(reported, want);
      EXPECT_EQ(profiler.phases(), want);
      ASSERT_EQ(profiler.steps(), 1);
      for (const trace::RunReport::Phase& phase : report.phases) {
        EXPECT_EQ(profiler.StepSeconds(0, phase.name), phase.seconds)
            << phase.name;
      }
      EXPECT_EQ(profiler.StepSeconds(0, "sharded-update"), step.weight_update);

      ASSERT_TRUE(report.has_critical_path);
      ASSERT_FALSE(report.critical_path.segments.empty());
      int labeled = 0;
      for (const trace::PathSegment& segment :
           report.critical_path.segments) {
        if (segment.phase.empty()) continue;
        ++labeled;
        EXPECT_NE(std::find(want.begin(), want.end(), segment.phase),
                  want.end())
            << segment.phase;
      }
      EXPECT_GT(labeled, 0);
      for (const trace::PhaseContribution& contribution :
           report.critical_path.phases) {
        if (contribution.phase.empty()) continue;
        EXPECT_NE(std::find(want.begin(), want.end(), contribution.phase),
                  want.end())
            << contribution.phase;
      }
    }
  }
}

}  // namespace
}  // namespace tpu::core
