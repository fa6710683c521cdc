// The benchmark's workloads: how each one builds its inputs from a seed and
// serves them through the serve/ layer (ServingLoop over CostModelBackend or
// InferenceBackend, FleetController over CostModelBackends), with or
// without the decorators of observe.h.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/inference_engine.h"
#include "engine/model_config.h"
#include "observe.h"
#include "serve/fleet_controller.h"
#include "sim/metrics.h"
#include "workload/length_sampler.h"
#include "workload/request.h"

namespace perfbench {

enum class Kind { kSim, kFleet, kEngine };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kSim;
  aptserve::SloSpec slo;
  /// Independent traces served per round, each from its own seed derived
  /// from the run's seed; metrics pool over them.
  int32_t replicas = 1;
  /// Requests per trace (sim, engine).
  int32_t num_requests = 0;
  double ref_rate = 0.0;
  /// effective_rps: the highest offered rate at which this share of
  /// requests meets both SLOs.
  double attain_target = 0.9;
  /// Bisection bracket on the offered rate (requests/s) and step count.
  double bisect_lo = 0.0;
  double bisect_hi = 0.0;
  int32_t bisect_steps = 0;
  // sim
  aptserve::DatasetProfile profile;
  // engine
  aptserve::ModelConfig model;
  int32_t engine_blocks = 0;
  int32_t engine_block_size = 0;
  int32_t engine_threads = 1;
  double rho_seconds_per_token = 0.0;
  double virtual_item_seconds = 0.0;
};

aptserve::StatusOr<WorkloadSpec> MakeSpec(const std::string& name);

/// One trace of a workload, with ids 0..n-1 in arrival order.
struct Replica {
  /// At the workload's reference rate (the engine's burst: all at 0).
  std::vector<aptserve::Request> trace;
  /// Arrival times of trace[i] at an offered rate of 1 request/s; a probe
  /// at rate r serves the same requests arriving at shape[i] / r.
  std::vector<double> shape;
  /// Fleet only: per-request bound on adoptable prefill positions,
  /// computed from the trace's own token ids.
  std::unordered_map<aptserve::RequestId, SkipBound> skip_bounds;
};

/// Everything a workload serves, built from the seed.
struct Inputs {
  std::vector<Replica> replicas;
  /// Engine only: the model instance every engine run borrows.
  std::unique_ptr<aptserve::InferenceEngine> engine;
};

/// Builds the inputs; `trace_s` receives the time spent building traces.
aptserve::StatusOr<Inputs> BuildInputs(const WorkloadSpec& spec, uint64_t seed,
                                       double* trace_s);

/// The replica's trace with arrivals re-timed to an offered rate of `rate`.
std::vector<aptserve::Request> AtRate(const Replica& replica, double rate);

/// One serving run and what it produced.
struct RunOutput {
  aptserve::Status status;
  double wall_s = 0.0;
  aptserve::SloReport report;
  /// Single-instance runs: per-request records.
  std::unordered_map<aptserve::RequestId, aptserve::RequestRecord> records;
  /// Engine runs: full token sequence (prompt + generated) per request.
  std::unordered_map<aptserve::RequestId, std::vector<int32_t>> tokens;
  int64_t tokens_generated = 0;
  int64_t prefill_computed = 0;
  int64_t prefill_skipped = 0;
  aptserve::PrefixStats prefix;
  /// Fleet runs only.
  bool is_fleet = false;
  aptserve::FleetMetrics fleet;
  aptserve::RouteCostStats route;
  /// Single-instance runs: pool blocks still allocated after the run minus
  /// the blocks the prefix index holds (must be 0).
  int32_t leftover_blocks = 0;
};

/// Serves `trace` (the replica's, possibly re-timed) once; engine
/// workloads serve on `engine`. `recorder` null: the plain program,
/// undecorated.
RunOutput Serve(const WorkloadSpec& spec, aptserve::InferenceEngine* engine,
                const Replica& replica,
                const std::vector<aptserve::Request>& trace,
                Recorder* recorder);

/// Adds `part`'s counters and wall time into `total`.
void Accumulate(const RunOutput& part, RunOutput* total);

/// Hashes of what a run must reproduce exactly: token streams (engine) or
/// per-request latency records, the SloReport counters and samples, and the
/// fleet's metrics and routing counters.
struct Fingerprint {
  uint64_t tokens = 0;
  uint64_t report = 0;
  uint64_t fleet = 0;
};
Fingerprint FingerprintOf(const RunOutput& out);

/// Greedy tokens (prompt + generated) of every request of `trace`, each
/// served alone, KV-only, on a fresh engine that serves nothing else.
aptserve::StatusOr<
    std::unordered_map<aptserve::RequestId, std::vector<int32_t>>>
ReferenceTokens(const WorkloadSpec& spec,
                const std::vector<aptserve::Request>& trace);

/// Known-fault reproductions documented in perfbench/README.md; prints a
/// table and returns 0 when the named reproduction ran.
int RunRepro(const std::string& name);

}  // namespace perfbench
