// The benchmark's named workloads. Each is one run_experiment input set:
// the traffic-analysis pipeline on 96 workers, planned by the timed MILP
// decorator. The demand curve is the fixed scenario of the workload; a seed
// draws the arrival times, the serving RNG and the tier labels. README.md
// says why each workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <string>

#include "exp/experiment.hpp"
#include "pipeline/graph.hpp"
#include "trace/generator.hpp"

namespace loki::perf {

struct Workload {
  pipeline::PipelineGraph graph;
  trace::DemandCurve curve;
  exp::ExperimentConfig cfg;
};

/// Builds workload `name` for `seed` (same seed, same inputs). Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Scenario repeats per run: the e2e run simulates the scenario once for
/// each of kRepeats seeds derived from the run seed and pools the outcomes,
/// so one run's simulated metrics do not hang on one arrival draw.
inline constexpr int kRepeats = 12;

/// Seed of repeat `j` (0-based) of a run seeded `seed`.
std::uint64_t repeat_seed(std::uint64_t seed, int j);

/// The same inputs run in the sequential reference mode (no shards).
Workload sequential_twin(const Workload& w);

}  // namespace loki::perf
