// Wall-clock serving vs virtual time: the same trace served (a) by
// FleetController::Run in virtual time and (b) by RunAsync, the same
// fleet loop on the wall clock (one thread per instance, real-time replay,
// mid-step injection). Token streams are asserted bit-identical between
// the modes — the determinism contract enforced exactly where the speed is
// measured — and the snapshot records wall TTFT/TBT/e2e percentiles and
// sustained throughput of a static fleet at two replay speeds, a
// planner-migration row (live rebalancing at the controller ticks under a
// tight batch cap), an elastic row (a queue-depth rule grows the fleet
// while it serves), and a virtual-time comparison row. The bench exits 1
// if the planner row moves no request, the elastic row adds no instance,
// or any token stream differs from its virtual reference.
//
// Results land in BENCH_bench_async_serving.json. Like
// bench_parallel_scaling, the snapshot stamps hardware_concurrency and
// "multicore": wall-clock latency percentiles on a <4-core container have
// instance threads time-sharing one core and must not be read as serving
// capacity.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "serve/async_serving.h"
#include "serve/inference_backend.h"
#include "serve/fleet_controller.h"
#include "sim/report_writer.h"
#include "workload/token_ids.h"

using namespace aptserve;

namespace {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int32_t kInstances = 2;
constexpr int32_t kRequests = 48;
constexpr double kArrivalSpacing = 0.02;  // virtual seconds
// Planner and elastic rows: a batch cap that keeps queues deep, the
// controller tick (trace seconds) and the replay speed.
constexpr int32_t kTightBatchCap = 2;
constexpr double kTickInterval = 0.1;
constexpr double kFleetSpeedup = 400.0;

std::vector<Request> BenchTrace() {
  Rng rng(77);
  std::vector<Request> trace;
  trace.reserve(kRequests);
  for (int32_t i = 0; i < kRequests; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(8, 24));
    r.output_len = static_cast<int32_t>(rng.UniformInt(4, 12));
    r.arrival = kArrivalSpacing * i;
    trace.push_back(r);
  }
  return trace;
}

/// `uniform_weights` gives every instance the same weight seed — required
/// for the planner and elastic rows, where a request may finish on a
/// different instance than the one the virtual reference ran it on.
/// `instance0_blocks` sizes instance 0's KV pool; the others hold 192.
BackendFactory EngineFactory(std::vector<TokenMap>* sinks,
                             bool uniform_weights = false,
                             int32_t instance0_blocks = 192) {
  return [sinks, uniform_weights, instance0_blocks](
             int32_t i) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
    return std::unique_ptr<ExecutionBackend>(std::make_unique<InferenceBackend>(
        ModelConfig::Tiny(), /*weight_seed=*/uniform_weights ? 9 : 9 + i,
        /*num_blocks=*/i == 0 ? instance0_blocks : 192,
        /*block_size=*/8, SamplingParams::TopK(8, 0.9), options));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

FleetConfig StaticFleet() {
  FleetConfig config;
  config.router.n_instances = kInstances;
  config.router.policy = RoutePolicy::kRoundRobin;
  return config;
}

TokenMap Flatten(std::vector<TokenMap> sinks) {
  TokenMap all;
  for (TokenMap& m : sinks) {
    for (auto& [id, toks] : m) all[id] = std::move(toks);
  }
  return all;
}

/// The determinism contract, enforced where the speed is measured: every
/// finished token stream must match the virtual reference bit-for-bit.
bool TokensMatch(const TokenMap& want, const TokenMap& got,
                 const char* label) {
  if (want.size() != got.size()) {
    std::fprintf(stderr, "FATAL: %s: %zu vs %zu finished requests\n", label,
                 want.size(), got.size());
    return false;
  }
  for (const auto& [id, toks] : want) {
    auto it = got.find(id);
    if (it == got.end() || it->second != toks) {
      std::fprintf(stderr,
                   "FATAL: %s: token stream diverged from the virtual "
                   "reference at request %d\n",
                   label, static_cast<int32_t>(id));
      return false;
    }
  }
  return true;
}

/// Instances spawned by the fleet controller after the initial fleet.
int64_t SpawnedInstances(const FleetMetrics& fleet) {
  int64_t n = 0;
  for (const FleetScaleEvent& ev : fleet.scale_events) {
    if (ev.kind == FleetScaleEvent::Kind::kAdd && ev.time > 0.0) ++n;
  }
  return n;
}

/// One elastic or planner row: serves `config` in virtual time and on the
/// wall clock at `speedup`, instances sharing weights (instance 0 with
/// `instance0_blocks` of KV pool), and checks the token streams agree.
/// Prints and records the row and returns its fleet metrics in `*fleet`;
/// false on any failure.
bool ServeFleetRow(const char* mode, const FleetConfig& config,
                   const std::vector<Request>& trace, double speedup,
                   int32_t instance0_blocks, const SloSpec& slo,
                   FleetMetrics* fleet) {
  constexpr size_t kSinks = 8;  // instance ids are never reused
  std::vector<TokenMap> ref_sinks(kSinks), live_sinks(kSinks);
  auto ref = FleetController(config).Run(
      trace, Fcfs(), EngineFactory(&ref_sinks, true, instance0_blocks), slo);
  if (!ref.ok()) {
    std::fprintf(stderr, "%s reference: %s\n", mode,
                 ref.status().ToString().c_str());
    return false;
  }
  AsyncServingConfig async;
  async.replay_speedup = speedup;
  async.max_wall_seconds = 120.0;
  const double t0 = NowSeconds();
  auto live = FleetController(config).RunAsync(
      trace, Fcfs(), EngineFactory(&live_sinks, true, instance0_blocks), slo,
      async);
  const double wall_s = NowSeconds() - t0;
  if (!live.ok()) {
    std::fprintf(stderr, "%s run: %s\n", mode,
                 live.status().ToString().c_str());
    return false;
  }
  if (!TokensMatch(Flatten(std::move(ref_sinks)),
                   Flatten(std::move(live_sinks)), mode)) {
    return false;
  }

  const FleetMetrics& fm = live->fleet;
  std::printf(
      "=== %s @ replay_speedup=%.0f, batch cap %d, tick %.2fs ===\n"
      "  requests=%lld tokens=%lld wall=%.3fs sustained=%.0f tok/s\n"
      "  migrations=%lld (with cache %lld) spawned=%lld peak_instances=%d "
      "ticks=%lld\n"
      "  token streams: bit-identical to the virtual reference\n\n",
      mode, speedup, config.loop.max_batch_size, config.tick_interval_s,
      static_cast<long long>(live->wall.requests),
      static_cast<long long>(live->wall.tokens), live->wall_duration_s,
      live->wall.throughput_tok_s, static_cast<long long>(fm.migrations),
      static_cast<long long>(fm.migrations_with_cache),
      static_cast<long long>(SpawnedInstances(fm)), fm.peak_instances,
      static_cast<long long>(fm.ticks));

  bench::JsonObject e;
  e.Str("mode", mode)
      .Num("replay_speedup", speedup)
      .Int("max_batch_size", config.loop.max_batch_size)
      .Num("tick_interval_s", config.tick_interval_s)
      .Int("requests", live->wall.requests)
      .Int("tokens", live->wall.tokens)
      .Num("wall_seconds", wall_s)
      .Num("sustained_tok_per_s", live->wall.throughput_tok_s)
      .Int("migrations", fm.migrations)
      .Int("migrations_with_cache", fm.migrations_with_cache)
      .Int("spawned_instances", SpawnedInstances(fm))
      .Int("peak_instances", fm.peak_instances)
      .Int("ticks", fm.ticks)
      .Str("tokens_bit_identical_to_virtual", "true");
  for (size_t i = 0; i < live->serve.requests_per_instance.size(); ++i) {
    e.Int("requests_i" + std::to_string(i),
          live->serve.requests_per_instance[i]);
  }
  bench::BenchJson::Instance().AddEntry(std::move(e));
  *fleet = fm;
  return true;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool multicore = hw >= 4;
  if (!multicore) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u < 4 — the fleet's "
                 "instance threads time-share cores here, so wall latency "
                 "percentiles understate real serving capacity; the JSON "
                 "snapshot records \"multicore\": false.\n",
                 hw);
  }

  bench::BenchJson::Instance().SetName("bench_async_serving");
  bench::BenchJson::Instance()
      .config()
      .Int("hardware_concurrency", hw)
      .Bool("multicore", multicore)
      .Int("instances", kInstances)
      .Int("requests", kRequests)
      .Num("arrival_spacing_s", kArrivalSpacing);

  const auto trace = BenchTrace();
  const SloSpec slo{5.0, 5.0};

  // ---- Virtual-time reference ----------------------------------------------
  std::vector<TokenMap> virt_sinks(kInstances);
  double t0 = NowSeconds();
  auto virt = FleetController(StaticFleet())
                  .Run(trace, Fcfs(), EngineFactory(&virt_sinks), slo);
  const double virt_wall = NowSeconds() - t0;
  if (!virt.ok()) {
    std::fprintf(stderr, "virtual run: %s\n", virt.status().ToString().c_str());
    return 1;
  }

  // ---- Static fleet on the wall clock ---------------------------------------
  for (const double speedup : {100.0, 400.0}) {
    AsyncServingConfig async;
    async.replay_speedup = speedup;
    async.max_wall_seconds = 120.0;
    std::vector<TokenMap> async_sinks(kInstances);
    t0 = NowSeconds();
    auto live = FleetController(StaticFleet())
                    .RunAsync(trace, Fcfs(), EngineFactory(&async_sinks), slo,
                              async);
    const double async_wall = NowSeconds() - t0;
    if (!live.ok()) {
      std::fprintf(stderr, "async run: %s\n", live.status().ToString().c_str());
      return 1;
    }

    if (!TokensMatch(Flatten(virt_sinks), Flatten(std::move(async_sinks)),
                     "async")) {
      return 1;
    }

    const WallLatencyReport& wall = live->wall;
    std::printf(
        "=== Async serving @ replay_speedup=%.0f (hw=%u%s) ===\n"
        "  requests=%lld tokens=%lld wall=%.3fs sustained=%.0f tok/s\n"
        "  TTFT  p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  TBT   p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  e2e   p50=%.4fs p95=%.4fs p99=%.4fs\n"
        "  virtual-time reference: wall=%.3fs\n"
        "  token streams: bit-identical to the virtual reference\n",
        speedup, hw, multicore ? "" : ", single-core: do not read as capacity",
        static_cast<long long>(wall.requests),
        static_cast<long long>(wall.tokens), live->wall_duration_s,
        wall.throughput_tok_s, wall.ttft.P50(), wall.ttft.P95(),
        wall.ttft.P99(), wall.tbt.P50(), wall.tbt.P95(), wall.tbt.P99(),
        wall.e2e.P50(), wall.e2e.P95(), wall.e2e.P99(), virt_wall);

    std::ostringstream csv;
    WriteWallLatencyCsv({{"async", wall}}, &csv);
    std::printf("%s\n", csv.str().c_str());

    bench::JsonObject e;
    e.Str("mode", "async")
        .Num("replay_speedup", speedup)
        .Int("requests", wall.requests)
        .Int("tokens", wall.tokens)
        .Num("wall_seconds", async_wall)
        .Num("serving_wall_seconds", live->wall_duration_s)
        .Num("sustained_tok_per_s", wall.throughput_tok_s)
        .Num("ttft_p50_s", wall.ttft.P50())
        .Num("ttft_p95_s", wall.ttft.P95())
        .Num("ttft_p99_s", wall.ttft.P99())
        .Num("tbt_p50_s", wall.tbt.P50())
        .Num("tbt_p95_s", wall.tbt.P95())
        .Num("tbt_p99_s", wall.tbt.P99())
        .Num("e2e_p50_s", wall.e2e.P50())
        .Num("e2e_p99_s", wall.e2e.P99())
        .Str("tokens_bit_identical_to_virtual", "true");
    bench::BenchJson::Instance().AddEntry(std::move(e));
  }

  // The planner and elastic rows move requests between instances, and the
  // elastic row routes late arrivals differently from its virtual
  // reference, so their trace carries its prompt tokens: the same prompt
  // whichever instance registers the request.
  std::vector<Request> fleet_trace = trace;
  EnsureTokenIds(&fleet_trace, /*seed=*/7, ModelConfig::Tiny().vocab_size);

  // ---- Planner-migration row -----------------------------------------------
  // The migration planner rebalances at every tick once waiting queues
  // differ by more than one request. Instance 0's 8-block pool holds one
  // request at a time while instance 1 runs a full batch, so instance 0's
  // queue stays the deeper and the planner moves queued requests (cache
  // state included) onto instance 1 as the fleet serves.
  {
    FleetConfig config = StaticFleet();
    config.loop.max_batch_size = kTightBatchCap;
    config.enable_migration = true;
    config.migration_imbalance_threshold = 1;
    config.tick_interval_s = kTickInterval;
    FleetMetrics fleet;
    if (!ServeFleetRow("async_planner", config, fleet_trace, kFleetSpeedup,
                       /*instance0_blocks=*/8, slo, &fleet)) {
      return 1;
    }
    if (fleet.migrations == 0) {
      std::fprintf(stderr, "FATAL: async_planner: the planner moved no "
                           "request\n");
      return 1;
    }
  }

  // ---- Elastic row -----------------------------------------------------------
  // One instance takes the trace; the queue-depth rule adds a second at a
  // tick, and the planner rebalances onto it once it is live.
  {
    FleetConfig config = StaticFleet();
    config.router.n_instances = 1;
    config.max_instances = kInstances;
    config.instance_warmup_s = 0.0;
    config.scaling.push_back(ScalingRule::QueueDepth(/*high=*/2.0,
                                                     /*low=*/0.5));
    config.loop.max_batch_size = kTightBatchCap;
    config.enable_migration = true;
    config.migration_imbalance_threshold = 1;
    config.tick_interval_s = kTickInterval;
    FleetMetrics fleet;
    if (!ServeFleetRow("async_elastic", config, fleet_trace, kFleetSpeedup,
                       /*instance0_blocks=*/192, slo, &fleet)) {
      return 1;
    }
    if (SpawnedInstances(fleet) == 0) {
      std::fprintf(stderr, "FATAL: async_elastic: the fleet never grew\n");
      return 1;
    }
  }

  // Virtual-time comparison row: the virtual fleet has no wall TTFT (its
  // latencies are virtual-frame), so the row records wall run time and
  // virtual-frame percentiles for side-by-side reading.
  bench::JsonObject e;
  e.Str("mode", "epoch_barrier_virtual")
      .Int("requests", static_cast<int64_t>(trace.size()))
      .Int("tokens", virt->serve.tokens_generated)
      .Num("wall_seconds", virt_wall)
      .Num("virtual_ttft_p50_s", virt->serve.combined.ttfts.Quantile(0.5))
      .Num("virtual_ttft_p99_s", virt->serve.combined.ttfts.P99())
      .Num("slo_attainment", virt->serve.combined.slo_attainment);
  bench::BenchJson::Instance().AddEntry(std::move(e));

  std::printf(
      "Wall-clock serving admits requests mid-step through the Inject seam;\n"
      "the virtual mode remains the pinned bit-for-bit reference for token "
      "streams.\n");
  return 0;
}
