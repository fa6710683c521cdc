// Wall-clock serving: the replay-based differential suite pinning the
// determinism contract (async_serving.h / DESIGN.md "Async serving").
//
// The virtual-time fleet is the bit-for-bit reference. RunAsync runs the
// same fleet loop on the wall clock: one thread per instance, real-time
// arrival replay and mid-step injection; its batch composition is
// wall-clock-dependent and therefore nondeterministic — but every request's
// token stream must be bit-identical to the virtual run, because (a)
// per-position logits are a pure function of the request's own tokens, (b)
// sampling is counter-based per (seed, request, position), and (c) routing
// reads only the trace and the live set, cells included. The differential
// tests enforce exactly that, across seeds (overridable via
// APTSERVE_FUZZ_SEEDS for the CI matrix), engine thread counts, sampling
// modes, planner migration, an elastic fleet and a fleet of two cells.
#include "serve/async_serving.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/env.h"
#include "common/rng.h"
#include "engine/model_config.h"
#include "engine/sampling.h"
#include "obs/chrome_trace.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "serve/fleet_controller.h"
#include "serve/inference_backend.h"
#include "workload/request.h"
#include "workload/shared_prefix.h"
#include "workload/token_ids.h"

namespace aptserve {
namespace {

using TokenMap = std::unordered_map<RequestId, std::vector<int32_t>>;

std::vector<uint64_t> FuzzSeeds() {
  // Strict parse with a warning on malformed tokens (std::stoull threw on
  // garbage and silently truncated partial parses like "4x").
  return env::FuzzSeedsFromEnv({41, 137});
}

/// `spacing` seconds between arrivals; 0 is a burst.
std::vector<Request> TinyTrace(int32_t n, uint64_t seed,
                               double spacing = 0.02) {
  Rng rng(seed);
  std::vector<Request> trace;
  trace.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 14));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 6));
    r.arrival = spacing * i;
    trace.push_back(r);
  }
  return trace;
}

/// Factory pair: per-instance real engines writing finished token streams
/// into caller-owned sinks (one map per instance; instances run on
/// separate threads, so sinks must not be shared). `uniform_weights` gives
/// every instance the same weights — needed wherever the planner may
/// finish a request on another instance than the virtual run did.
/// `instance0_blocks` sizes instance 0's pool; the others hold 128 blocks.
BackendFactory EngineFactory(std::vector<TokenMap>* sinks, uint64_t seed,
                             const SamplingParams& sampling,
                             int32_t num_threads,
                             bool uniform_weights = false,
                             int32_t instance0_blocks = 128) {
  return [sinks, seed, sampling, num_threads, uniform_weights,
          instance0_blocks](
             int32_t i) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    InferenceBackendOptions options;
    options.virtual_timing = true;
    options.prompt_seed = seed + 100;
    options.runtime.num_threads = num_threads;
    if (static_cast<size_t>(i) >= sinks->size()) {
      return Status::InvalidArgument("no token sink for instance " +
                                     std::to_string(i));
    }
    options.finished_sink = &(*sinks)[static_cast<size_t>(i)];
    return std::unique_ptr<ExecutionBackend>(std::make_unique<InferenceBackend>(
        ModelConfig::Tiny(), /*weight_seed=*/uniform_weights ? seed : seed + i,
        /*num_blocks=*/i == 0 ? instance0_blocks : 128, /*block_size=*/8,
        sampling, options));
  };
}

SchedulerFactory Fcfs() {
  return [] { return std::make_unique<FcfsScheduler>(); };
}

TokenMap Flatten(std::vector<TokenMap> sinks) {
  TokenMap all;
  for (TokenMap& m : sinks) {
    for (auto& [id, toks] : m) {
      EXPECT_EQ(all.count(id), 0u) << "request " << id << " finished twice";
      all[id] = std::move(toks);
    }
  }
  return all;
}

void ExpectSameTokens(const TokenMap& want, const TokenMap& got) {
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [id, toks] : want) {
    auto it = got.find(id);
    ASSERT_NE(it, got.end()) << "request " << id << " missing";
    ASSERT_EQ(toks, it->second) << "token stream diverged for request " << id;
  }
}

FleetConfig StaticFleet(int32_t n = 2) {
  FleetConfig config;
  config.router.n_instances = n;
  config.router.policy = RoutePolicy::kRoundRobin;
  config.loop.max_batch_size = INT32_MAX;
  return config;
}

void ExpectSameRouteCost(const RouteCostStats& want,
                         const RouteCostStats& got) {
  EXPECT_EQ(want.decisions, got.decisions);
  EXPECT_EQ(want.instance_probes, got.instance_probes);
  EXPECT_EQ(want.mirror_nodes_walked, got.mirror_nodes_walked);
  EXPECT_EQ(want.cell_probes, got.cell_probes);
  EXPECT_EQ(want.cell_hash_routed, got.cell_hash_routed);
  EXPECT_EQ(want.cell_fallback_routed, got.cell_fallback_routed);
}

AsyncServingConfig FastReplay() {
  AsyncServingConfig async;
  // Replay the whole virtual arrival span in well under a second of wall
  // time; continuous batching still sees real interleaving.
  async.replay_speedup = 2000.0;
  async.max_wall_seconds = 60.0;
  return async;
}

/// A fleet whose migration planner rebalances at every 0.02 s tick once
/// waiting queues differ by more than one request; a batch cap of one
/// keeps the queues deep.
FleetConfig PlannerFleet(int32_t n) {
  FleetConfig config = StaticFleet(n);
  config.loop.max_batch_size = 1;
  config.enable_migration = true;
  config.migration_imbalance_threshold = 1;
  config.tick_interval_s = 0.02;
  return config;
}

/// ServeSharedWeights' replay: it makes a 0.02 s tick a 0.2 ms window,
/// short next to the work, so the planner sees deep queues at many ticks,
/// and long next to starting its threads.
constexpr double kSharedReplaySpeedup = 100.0;

/// Serves `trace` under `config` in virtual time, then on the wall clock,
/// every instance sharing one set of weights, and expects the same token
/// streams from both. Returns the wall-clock result; `wall_trace`, when
/// set, records the wall-clock run.
StatusOr<AsyncServingResult> ServeSharedWeights(
    const FleetConfig& config, const std::vector<Request>& trace,
    uint64_t seed, int32_t instance0_blocks = 128,
    obs::TraceRecorder* wall_trace = nullptr) {
  constexpr size_t kSinks = 16;  // instance ids are never reused
  std::vector<TokenMap> virt_sinks(kSinks), async_sinks(kSinks);
  const SamplingParams sampling = SamplingParams::Greedy();
  APT_RETURN_NOT_OK(
      FleetController(config)
          .Run(trace, Fcfs(),
               EngineFactory(&virt_sinks, seed, sampling, 1, true,
                             instance0_blocks),
               SloSpec{5.0, 5.0})
          .status());
  AsyncServingConfig async = FastReplay();
  async.replay_speedup = kSharedReplaySpeedup;
  FleetConfig wall_config = config;
  wall_config.trace = wall_trace;
  auto live = FleetController(wall_config).RunAsync(
      trace, Fcfs(),
      EngineFactory(&async_sinks, seed, sampling, 1, true, instance0_blocks),
      SloSpec{5.0, 5.0}, async);
  if (live.ok()) {
    ExpectSameTokens(Flatten(std::move(virt_sinks)),
                     Flatten(std::move(async_sinks)));
  }
  return live;
}

TEST(AsyncServingTest, GreedyTokenStreamsMatchVirtualMode) {
  for (const uint64_t seed : FuzzSeeds()) {
    for (const int32_t threads : {1, 4}) {
      FleetController fleet(StaticFleet());
      const auto trace = TinyTrace(24, seed);
      const SamplingParams sampling = SamplingParams::Greedy();

      std::vector<TokenMap> virt_sinks(2);
      auto virt = fleet.Run(trace, Fcfs(),
                            EngineFactory(&virt_sinks, seed, sampling, threads),
                            SloSpec{5.0, 5.0});
      ASSERT_TRUE(virt.ok()) << virt.status().ToString();

      std::vector<TokenMap> async_sinks(2);
      auto live = fleet.RunAsync(
          trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, threads),
          SloSpec{5.0, 5.0}, FastReplay());
      ASSERT_TRUE(live.ok()) << live.status().ToString();

      const TokenMap want = Flatten(std::move(virt_sinks));
      const TokenMap got = Flatten(std::move(async_sinks));
      ASSERT_EQ(want.size(), trace.size());
      ExpectSameTokens(want, got);
      // Routing replay: the same instances served the same request counts.
      EXPECT_EQ(virt->serve.requests_per_instance,
                live->serve.requests_per_instance)
          << "seed=" << seed << " threads=" << threads;
      // The feeder's routing is accounted like the virtual run's.
      ExpectSameRouteCost(virt->serve.route_cost, live->serve.route_cost);
      EXPECT_EQ(live->serve.route_cost.decisions,
                static_cast<int64_t>(trace.size()));
    }
  }
}

TEST(AsyncServingTest, StochasticTokenStreamsMatchVirtualMode) {
  // Counter-based sampling makes stochastic streams a pure function of
  // (seed, request, position) — invariant to wall-clock batch composition.
  const uint64_t seed = FuzzSeeds().front();
  FleetController fleet(StaticFleet());
  const auto trace = TinyTrace(20, seed + 1);
  const SamplingParams sampling = SamplingParams::TopK(8, 0.9);

  std::vector<TokenMap> virt_sinks(2);
  auto virt = fleet.Run(trace, Fcfs(),
                        EngineFactory(&virt_sinks, seed, sampling, 1),
                        SloSpec{5.0, 5.0});
  ASSERT_TRUE(virt.ok()) << virt.status().ToString();

  std::vector<TokenMap> async_sinks(2);
  auto live = fleet.RunAsync(
      trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, 1),
      SloSpec{5.0, 5.0}, FastReplay());
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  ExpectSameTokens(Flatten(std::move(virt_sinks)),
                   Flatten(std::move(async_sinks)));
}

TEST(AsyncServingTest, PlannerMigrationPreservesTokensAndCountsRequests) {
  // A burst split over two instances. A request of 20-30 prompt and 12-16
  // output tokens takes 4-6 KV blocks, so instance 0's 16-block pool holds
  // two or three at a time while instance 1 runs eight: instance 0's queue
  // stays the deeper, and the planner moves queued requests (cache state
  // included) onto instance 1 at the ticks. Conservation: every request
  // finishes exactly once somewhere; purity: token streams still match the
  // virtual reference bit for bit.
  FleetConfig config = PlannerFleet(2);
  config.loop.max_batch_size = 8;
  for (const uint64_t seed : FuzzSeeds()) {
    auto trace = TinyTrace(48, seed + 2, /*spacing=*/0.0);
    for (Request& r : trace) {
      r.prompt_len += 16;
      r.output_len += 10;
    }
    auto live = ServeSharedWeights(config, trace, seed,
                                   /*instance0_blocks=*/16);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    int32_t total = 0;
    for (const int32_t c : live->serve.requests_per_instance) total += c;
    EXPECT_EQ(total, static_cast<int32_t>(trace.size()));
    EXPECT_GT(live->fleet.migrations, 0) << "seed=" << seed;
    EXPECT_GT(live->fleet.ticks, 1);
  }
}

TEST(AsyncServingTest, WallMetricsAreInternallyConsistent) {
  const uint64_t seed = FuzzSeeds().front();
  FleetController fleet(StaticFleet());
  const auto trace = TinyTrace(16, seed + 3);

  std::vector<TokenMap> sinks(2);
  auto live = fleet.RunAsync(
      trace, Fcfs(), EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, FastReplay());
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  const WallLatencyReport& wall = live->wall;
  EXPECT_EQ(wall.requests, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(wall.ttft.count(), trace.size());
  EXPECT_GT(wall.tokens, 0);
  EXPECT_GT(wall.duration_s, 0.0);
  EXPECT_GT(wall.throughput_tok_s, 0.0);
  // Quantiles are monotone and clamped to the observed range.
  EXPECT_LE(wall.ttft.P50(), wall.ttft.P95());
  EXPECT_LE(wall.ttft.P95(), wall.ttft.P99());
  EXPECT_GE(wall.ttft.P50(), wall.ttft.min());
  EXPECT_LE(wall.ttft.P99(), wall.ttft.max());
  EXPECT_GT(live->wall_duration_s, 0.0);
  // Virtual-frame report still comes along for the ride.
  EXPECT_EQ(live->serve.combined.ttfts.count(), trace.size());
}

TEST(AsyncServingTest, HierarchicalFleetMatchesVirtualMode) {
  // Two cells of two instances: the feeder runs the same CellRouter front
  // tier as the virtual run, so shared-prefix prompts hash to the same
  // cells, land on the same instances and cost the same probes.
  for (const uint64_t seed : FuzzSeeds()) {
    SharedPrefixConfig sp;
    sp.system_prompt_len = 16;
    sp.num_conversations = 6;
    sp.turns_per_conversation = 3;
    sp.tokens_per_turn = 8;
    sp.output_len_mean = 4;
    sp.vocab_size = ModelConfig::Tiny().vocab_size;
    sp.think_time_s = 0.2;
    sp.conversation_stagger_s = 0.05;
    sp.seed = seed;
    auto trace = BuildSharedPrefixTrace(sp);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    FleetConfig config = StaticFleet(4);
    config.router.policy = RoutePolicy::kPrefixAffinity;
    config.router.block_size = 8;
    config.cells.num_cells = 2;
    const SamplingParams sampling = SamplingParams::Greedy();

    std::vector<TokenMap> virt_sinks(4);
    auto virt = FleetController(config).Run(
        *trace, Fcfs(), EngineFactory(&virt_sinks, seed, sampling, 1),
        SloSpec{5.0, 5.0});
    ASSERT_TRUE(virt.ok()) << virt.status().ToString();
    obs::MetricsRegistry registry;
    config.metrics = &registry;
    std::vector<TokenMap> async_sinks(4);
    auto live = FleetController(config).RunAsync(
        *trace, Fcfs(), EngineFactory(&async_sinks, seed, sampling, 1),
        SloSpec{5.0, 5.0}, FastReplay());
    ASSERT_TRUE(live.ok()) << live.status().ToString();

    ExpectSameTokens(Flatten(std::move(virt_sinks)),
                     Flatten(std::move(async_sinks)));
    EXPECT_EQ(virt->serve.requests_per_instance,
              live->serve.requests_per_instance)
        << "seed=" << seed;
    ExpectSameRouteCost(virt->serve.route_cost, live->serve.route_cost);
    EXPECT_GT(live->serve.route_cost.cell_probes, 0);
    EXPECT_EQ(registry.GetCounter("aptserve_router_decisions_total")->value(),
              static_cast<int64_t>(trace->size()));
  }
}

TEST(AsyncServingTest, ClockStartsAfterInstanceSetUp) {
  // Slow instance construction (weights loading, say) is not serving time:
  // neither wall_duration_s nor the arrival replay may include it.
  const std::chrono::milliseconds set_up(250);
  const uint64_t seed = FuzzSeeds().front();
  std::vector<TokenMap> sinks(2);
  const BackendFactory engines =
      EngineFactory(&sinks, seed, SamplingParams::Greedy(), 1);
  const BackendFactory slow = [&](int32_t i) {
    std::this_thread::sleep_for(set_up);
    return engines(i);
  };
  AsyncServingConfig async = FastReplay();
  async.replay_speedup = 100.0;
  auto live = FleetController(StaticFleet()).RunAsync(
      TinyTrace(24, seed + 5), Fcfs(), slow, SloSpec{5.0, 5.0}, async);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_LT(live->wall_duration_s,
            std::chrono::duration<double>(set_up).count());
}

TEST(AsyncServingTest, ElasticFleetMatchesVirtualTokens) {
  // One instance takes a burst; the queue-depth rule spawns a second at a
  // tick, the planner rebalances onto it once it is live, and later
  // arrivals are routed across both. Which requests move, and where the
  // later ones land, depends on wall timing, so instances share weights
  // and the trace carries its prompt tokens.
  for (const uint64_t seed : FuzzSeeds()) {
    FleetConfig config = PlannerFleet(1);
    config.max_instances = 2;
    config.instance_warmup_s = 0.0;
    config.scaling.push_back(ScalingRule::QueueDepth(/*high=*/2.0,
                                                     /*low=*/0.5));
    // A burst of 32 requests of 12-16 decode steps each keeps the lone
    // instance's queue deep for several windows, however fast it steps;
    // 32 more arrive over the next 0.16 s.
    auto trace = TinyTrace(64, seed + 6, /*spacing=*/0.0);
    for (Request& r : trace) {
      r.output_len += 10;
      if (r.id >= 32) r.arrival = 0.005 * (r.id - 31);
    }
    EnsureTokenIds(&trace, seed, ModelConfig::Tiny().vocab_size);
    obs::TraceRecorder recorder(size_t{1} << 16);
    auto live = ServeSharedWeights(config, trace, seed, 128, &recorder);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_GT(live->fleet.cold_starts, 0) << "seed=" << seed;
    bool spawned = false;
    for (const FleetScaleEvent& ev : live->fleet.scale_events) {
      spawned |= ev.kind == FleetScaleEvent::Kind::kAdd && ev.instance > 0;
    }
    EXPECT_TRUE(spawned) << "seed=" << seed;
    EXPECT_GT(live->fleet.migrations, 0) << "seed=" << seed;
    EXPECT_GT(live->serve.requests_per_instance[1], 0) << "seed=" << seed;
    EXPECT_EQ(live->wall.requests, static_cast<int64_t>(trace.size()));

    // The trace is in the wall frame throughout: route decisions at their
    // release instants, every mark inside the run, migrations' flow arrows
    // matched.
    const std::vector<obs::TraceEvent> events = recorder.Flush();
    int64_t routed = 0;
    for (const obs::TraceEvent& ev : events) {
      EXPECT_LE(ev.ts + ev.dur, live->wall_duration_s);
      if (ev.op == obs::TraceOp::kRouteDecision) {
        ++routed;
        EXPECT_EQ(ev.ts, trace[ev.id].arrival / kSharedReplaySpeedup);
      }
    }
    EXPECT_EQ(routed, static_cast<int64_t>(trace.size()));
    auto stats = obs::ValidateChromeTrace(obs::ExportChromeTrace(events));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_GT(stats->scale_events, 0);
    EXPECT_EQ(stats->matched_flows, live->fleet.migrations);
  }
}

TEST(AsyncServingTest, BadWallConfigIsInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<TokenMap> sinks(2);
  for (const auto& [speedup, valve] :
       std::vector<std::pair<double, double>>{{0.0, 60.0},
                                              {-1.0, 60.0},
                                              {nan, 60.0},
                                              {inf, 60.0},
                                              {100.0, 0.0},
                                              {100.0, nan},
                                              {100.0, inf}}) {
    AsyncServingConfig async;
    async.replay_speedup = speedup;
    async.max_wall_seconds = valve;
    auto result = FleetController(StaticFleet()).RunAsync(
        TinyTrace(4, 1), Fcfs(),
        EngineFactory(&sinks, 1, SamplingParams::Greedy(), 1),
        SloSpec{5.0, 5.0}, async);
    ASSERT_FALSE(result.ok()) << speedup << " " << valve;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // A valid but tiny valve trips as an error, not an abort or a hang.
  AsyncServingConfig async;
  async.replay_speedup = 1.0;
  async.max_wall_seconds = 1e-3;
  auto result = FleetController(StaticFleet()).RunAsync(
      TinyTrace(4, 1, /*spacing=*/1.0), Fcfs(),
      EngineFactory(&sinks, 1, SamplingParams::Greedy(), 1),
      SloSpec{5.0, 5.0}, async);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(AsyncServingTest, SingleInstanceFleetDrains) {
  // Degenerate planner fleet: one instance, nowhere to migrate to.
  const uint64_t seed = FuzzSeeds().front();
  const auto trace = TinyTrace(10, seed + 4, /*spacing=*/0.0);
  auto live = ServeSharedWeights(PlannerFleet(1), trace, seed);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->serve.requests_per_instance,
            std::vector<int32_t>{static_cast<int32_t>(trace.size())});
  EXPECT_EQ(live->fleet.migrations, 0);
}

}  // namespace
}  // namespace aptserve
