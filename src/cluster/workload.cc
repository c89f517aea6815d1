#include "cluster/workload.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "topology/topology.h"

namespace tpu::cluster {

std::vector<JobShape> DefaultJobMix() {
  std::vector<JobShape> mix;
  // Small fine-tune: quick 4x4 ResNet runs dominate the arrival count.
  mix.push_back({4, 4, models::Benchmark::kResNet50, 4096, 6.0, 2000, 6000});
  // Medium: 8x8 BERT (64 chips at 24 per-chip batch).
  mix.push_back({8, 8, models::Benchmark::kBert, 1536, 3.0, 1500, 4000});
  // Large: a 16x8 Transformer slice — wider than one 8x8 pod, so on the
  // canonical 2-pod cluster it must span the cross-pod boundary.
  mix.push_back({16, 8, models::Benchmark::kTransformer, 2048, 1.0, 1000,
                 2500});
  return mix;
}

std::vector<JobSpec> GeneratePoissonWorkload(const WorkloadConfig& config) {
  TPU_CHECK_GT(config.mean_interarrival, 0.0);
  TPU_CHECK_GT(config.horizon, 0.0);
  const std::vector<JobShape> mix =
      config.mix.empty() ? DefaultJobMix() : config.mix;
  double total_weight = 0;
  for (const JobShape& shape : mix) {
    TPU_CHECK_GT(shape.weight, 0.0);
    TPU_CHECK_GE(shape.max_steps, shape.min_steps);
    total_weight += shape.weight;
  }
  // One stream for the whole sequence: arrivals are sampled in order, so a
  // single seed-derived stream is already iteration-order-free.
  Rng rng(config.seed ^ 0x636c757374657221ULL);
  std::vector<JobSpec> jobs;
  SimTime t = 0;
  while (true) {
    t += rng.NextExponential(config.mean_interarrival);
    if (t >= config.horizon) break;
    if (config.max_jobs > 0 &&
        static_cast<int>(jobs.size()) >= config.max_jobs) {
      break;
    }
    double pick = rng.NextDouble() * total_weight;
    const JobShape* shape = &mix.back();
    for (const JobShape& candidate : mix) {
      pick -= candidate.weight;
      if (pick < 0) {
        shape = &candidate;
        break;
      }
    }
    JobSpec job;
    job.id = static_cast<int>(jobs.size());
    job.name = "job-" + std::to_string(job.id);
    job.arrival = t;
    job.size_x = shape->size_x;
    job.size_y = shape->size_y;
    job.steps = static_cast<double>(
        shape->min_steps +
        static_cast<int>(rng.NextBounded(
            static_cast<std::uint64_t>(shape->max_steps - shape->min_steps) +
            1)));
    job.priority = config.num_priorities > 1
                       ? static_cast<int>(rng.NextBounded(
                             static_cast<std::uint64_t>(
                                 config.num_priorities)))
                       : 0;
    job.benchmark = shape->benchmark;
    job.global_batch = shape->global_batch;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const char* BenchmarkToken(models::Benchmark benchmark) {
  switch (benchmark) {
    case models::Benchmark::kBert:
      return "bert";
    case models::Benchmark::kResNet50:
      return "resnet50";
    case models::Benchmark::kTransformer:
      return "transformer";
    case models::Benchmark::kSsd:
      return "ssd";
    case models::Benchmark::kMaskRcnn:
      return "maskrcnn";
    case models::Benchmark::kDlrm:
      return "dlrm";
  }
  return "unknown";
}

bool ParseBenchmarkToken(const std::string& token,
                         models::Benchmark* benchmark) {
  for (const models::Benchmark candidate : models::AllBenchmarks()) {
    if (token == BenchmarkToken(candidate)) {
      *benchmark = candidate;
      return true;
    }
  }
  return false;
}

bool ParseJobsTrace(std::istream& in, std::vector<JobSpec>* jobs,
                    std::string* error) {
  jobs->clear();
  std::string line;
  int line_number = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + what;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    JobSpec job;
    std::string benchmark;
    if (!(fields >> job.arrival)) continue;  // blank / comment-only line
    if (!(fields >> job.size_x >> job.size_y >> job.steps >> job.priority >>
          benchmark >> job.global_batch >> job.name)) {
      return fail("expected: arrival size_x size_y steps priority benchmark "
                  "global_batch name");
    }
    if (!ParseBenchmarkToken(benchmark, &job.benchmark)) {
      return fail("unknown benchmark '" + benchmark + "'");
    }
    if (job.arrival < 0 || job.size_x <= 0 || job.size_y <= 0 ||
        job.steps <= 0 || job.global_batch <= 0) {
      return fail("non-positive field");
    }
    // A job trains data-parallel on every core of its slice: the global
    // batch needs at least one example per replica.
    const std::int64_t replicas =
        std::int64_t{topo::TopologyConfig{}.cores_per_chip} * job.size_x *
        job.size_y;
    if (job.global_batch < replicas) {
      return fail("global_batch " + std::to_string(job.global_batch) +
                  " is below one example per replica (" +
                  std::to_string(replicas) + ")");
    }
    job.id = static_cast<int>(jobs->size());
    jobs->push_back(std::move(job));
  }
  if (error != nullptr) error->clear();
  return true;
}

bool LoadJobsTrace(const std::string& path, std::vector<JobSpec>* jobs,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  if (!ParseJobsTrace(in, jobs, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

void WriteJobsTrace(std::ostream& out, const std::vector<JobSpec>& jobs) {
  out << "# arrival_s size_x size_y steps priority benchmark global_batch "
         "name\n";
  for (const JobSpec& job : jobs) {
    char arrival[32], steps[32];
    std::snprintf(arrival, sizeof(arrival), "%.12g", job.arrival);
    std::snprintf(steps, sizeof(steps), "%.12g", job.steps);
    out << arrival << ' ' << job.size_x << ' ' << job.size_y << ' ' << steps
        << ' ' << job.priority << ' ' << BenchmarkToken(job.benchmark) << ' '
        << job.global_batch << ' ' << job.name << '\n';
  }
}

}  // namespace tpu::cluster
