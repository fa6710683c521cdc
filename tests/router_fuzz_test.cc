// Property/fuzz tests for the fleet router: seeded random workloads
// (shared-prefix conversations mixed with Poisson singleton arrivals)
// swept across every policy and admission mode, asserting the structural
// invariants that must hold for ANY input:
//   - conservation: no request is lost — admitted + rejected == trace
//     size, shard sizes match the decision, assignments are in range;
//   - determinism: routing the same trace twice gives identical decisions,
//     and the routed fleet's merged report is bit-identical at 1 and 4
//     fleet threads (the epoch-barrier guarantee);
//   - accounting: per-instance stats sum to the fleet totals (latency
//     sample counts, iterations, prefill accounting, PrefixStats,
//     eligible/best-effort splits).
// The seed matrix is overridable via APTSERVE_FUZZ_SEEDS (comma-separated)
// so CI can fan out fixed seeds.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "common/env.h"
#include "common/rng.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "serve/router.h"
#include "workload/arrival.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

std::vector<uint64_t> FuzzSeeds() {
  // Strict parse with a warning on malformed tokens (std::stoull threw on
  // garbage and silently truncated partial parses like "4x").
  return env::FuzzSeedsFromEnv({1, 2, 3});
}

/// Mixed workload: a shared-prefix conversation block plus Poisson
/// singletons with random lengths, merged by arrival and re-id'd.
std::vector<Request> MixedTrace(uint64_t seed) {
  Rng rng(seed);
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = static_cast<int32_t>(rng.UniformInt(8, 32));
  cfg.num_conversations = static_cast<int32_t>(rng.UniformInt(2, 6));
  cfg.turns_per_conversation = static_cast<int32_t>(rng.UniformInt(2, 4));
  cfg.tokens_per_turn = static_cast<int32_t>(rng.UniformInt(4, 16));
  cfg.output_len_mean = static_cast<int32_t>(rng.UniformInt(2, 8));
  cfg.vocab_size = 1000;
  cfg.think_time_s = rng.Uniform(0.5, 3.0);
  cfg.conversation_stagger_s = rng.Uniform(0.05, 0.5);
  cfg.seed = seed * 31 + 7;
  auto conv = BuildSharedPrefixTrace(cfg);
  EXPECT_TRUE(conv.ok());
  std::vector<Request> trace = *conv;

  const int32_t singles = static_cast<int32_t>(rng.UniformInt(10, 30));
  auto arrivals = PoissonArrivals(rng.Uniform(2.0, 12.0), singles, &rng);
  EXPECT_TRUE(arrivals.ok());
  for (int32_t i = 0; i < singles; ++i) {
    Request r;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 100));
    r.output_len = static_cast<int32_t>(rng.UniformInt(1, 12));
    r.arrival = (*arrivals)[i];
    if (rng.Uniform() < 0.3) r.slo_ttft_s = rng.Uniform(0.001, 2.0);
    trace.push_back(r);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].id = static_cast<RequestId>(i);
  }
  return trace;
}

void ExpectDecisionInvariants(const RouteDecision& d, size_t trace_size,
                              int32_t n_instances) {
  ASSERT_EQ(d.assignment.size(), trace_size);
  ASSERT_EQ(d.best_effort.size(), trace_size);
  ASSERT_EQ(d.admitted_per_instance.size(),
            static_cast<size_t>(n_instances));
  int64_t admitted = 0, rejected = 0, deprioritized = 0;
  std::vector<int32_t> per(n_instances, 0);
  for (size_t i = 0; i < trace_size; ++i) {
    const int32_t a = d.assignment[i];
    if (a == RouteDecision::kRejected) {
      ++rejected;
      EXPECT_EQ(d.best_effort[i], 0);
      continue;
    }
    ASSERT_GE(a, 0);
    ASSERT_LT(a, n_instances);
    ++admitted;
    ++per[a];
    if (d.best_effort[i]) ++deprioritized;
  }
  EXPECT_EQ(admitted, d.admitted);
  EXPECT_EQ(rejected, d.rejected);
  EXPECT_EQ(deprioritized, d.deprioritized);
  EXPECT_EQ(admitted + rejected, static_cast<int64_t>(trace_size));
  EXPECT_EQ(per, d.admitted_per_instance);
}

void ExpectStatsSumToFleetTotals(const MultiInstanceResult& r,
                                 size_t trace_size) {
  int64_t requests = 0;
  for (int32_t c : r.requests_per_instance) requests += c;
  EXPECT_EQ(requests + r.rejected_requests,
            static_cast<int64_t>(trace_size));

  size_t ttft_samples = 0;
  int64_t iterations = 0, preemptions = 0;
  int64_t eligible = 0, best_effort = 0, slo_met = 0;
  for (const SloReport& rep : r.per_instance) {
    ttft_samples += rep.ttfts.count();
    iterations += rep.iterations;
    preemptions += rep.preemptions;
    eligible += rep.eligible_requests;
    best_effort += rep.best_effort_requests;
    slo_met += rep.slo_met_requests;
  }
  EXPECT_EQ(ttft_samples, r.combined.ttfts.count());
  EXPECT_EQ(iterations, r.combined.iterations);
  EXPECT_EQ(preemptions, r.combined.preemptions);
  EXPECT_EQ(eligible, r.combined.eligible_requests);
  EXPECT_EQ(best_effort, r.combined.best_effort_requests);
  EXPECT_EQ(slo_met, r.combined.slo_met_requests);
  // Every admitted request is either eligible or best-effort, and every
  // admitted request produced a first token.
  EXPECT_EQ(eligible + best_effort, requests);
  EXPECT_EQ(ttft_samples, static_cast<size_t>(requests));

  int64_t computed = 0, skipped = 0, hits = 0, matched = 0;
  for (size_t i = 0; i < r.per_instance.size(); ++i) {
    computed += r.prefill_computed_per_instance[i];
    skipped += r.prefill_skipped_per_instance[i];
    hits += r.prefix_per_instance[i].hits;
    matched += r.prefix_per_instance[i].matched_tokens;
  }
  EXPECT_EQ(computed, r.prefill_tokens_computed);
  EXPECT_EQ(skipped, r.prefill_tokens_skipped);
  EXPECT_EQ(hits, r.prefix.hits);
  EXPECT_EQ(matched, r.prefix.matched_tokens);
}

TEST(RouterFuzzTest, InvariantsAcrossPoliciesAdmissionAndSeeds) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const SloSpec slo{1.0, 1.0};

  const RoutePolicy policies[] = {
      RoutePolicy::kRoundRobin, RoutePolicy::kLeastLoaded,
      RoutePolicy::kPowerOfTwo, RoutePolicy::kLeastOutstandingWork,
      RoutePolicy::kPrefixAffinity};
  const AdmissionMode admissions[] = {AdmissionMode::kNone,
                                      AdmissionMode::kReject,
                                      AdmissionMode::kDeprioritize};

  for (uint64_t seed : FuzzSeeds()) {
    const auto trace = MixedTrace(seed);
    for (RoutePolicy policy : policies) {
      for (AdmissionMode admission : admissions) {
        SCOPED_TRACE(std::string(RoutePolicyName(policy)) + " seed " +
                     std::to_string(seed) + " admission " +
                     std::to_string(static_cast<int>(admission)));
        RouterConfig rc;
        rc.n_instances = 3;
        rc.policy = policy;
        rc.block_size = 4;
        rc.admission = admission;
        rc.default_slo = SloSpec{2.0, 2.0};
        rc.default_output_len = 8.0;
        const Router router(rc, &cm);

        // Determinism: routing twice gives the same decision.
        const RouteDecision d1 = router.Route(trace);
        const RouteDecision d2 = router.Route(trace);
        EXPECT_EQ(d1.assignment, d2.assignment);
        EXPECT_EQ(d1.best_effort, d2.best_effort);
        EXPECT_EQ(d1.rejected, d2.rejected);
        ExpectDecisionInvariants(d1, trace.size(), rc.n_instances);

        // Serve the routed fleet; per-instance stats must sum to totals,
        // and the merged report must be thread-count independent.
        auto make_backend =
            [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
          CostModelBackend::Options o;
          o.block_size = 4;
          o.pool_blocks_override = 512;
          o.enable_prefix_sharing = true;
          o.token_vocab = 1000;
          APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                               CostModelBackend::Create(cm, o));
          return std::unique_ptr<ExecutionBackend>(std::move(backend));
        };
        auto make_scheduler = [] { return std::make_unique<FcfsScheduler>(); };

        FleetConfig fc;
        fc.router = rc;
        fc.runtime.num_threads = 1;
        auto serial_run = FleetController(fc, &cm).Run(trace, make_scheduler,
                                                        make_backend, slo);
        ASSERT_TRUE(serial_run.ok()) << serial_run.status().ToString();
        const MultiInstanceResult* result = &serial_run->serve;
        ExpectStatsSumToFleetTotals(*result, trace.size());
        EXPECT_EQ(result->rejected_requests, d1.rejected);
        EXPECT_EQ(result->deprioritized_requests, d1.deprioritized);

        fc.runtime.num_threads = 4;
        auto threaded_run = FleetController(fc, &cm).Run(
            trace, make_scheduler, make_backend, slo);
        ASSERT_TRUE(threaded_run.ok()) << threaded_run.status().ToString();
        const MultiInstanceResult* threaded_result = &threaded_run->serve;
        EXPECT_EQ(result->combined.total_serving_time,
                  threaded_result->combined.total_serving_time);
        EXPECT_EQ(result->combined.slo_attainment,
                  threaded_result->combined.slo_attainment);
        EXPECT_EQ(result->combined.goodput_rps,
                  threaded_result->combined.goodput_rps);
        EXPECT_EQ(result->combined.ttfts.samples(),
                  threaded_result->combined.ttfts.samples());
        EXPECT_EQ(result->prefill_tokens_skipped,
                  threaded_result->prefill_tokens_skipped);
        EXPECT_EQ(result->prefix.hits, threaded_result->prefix.hits);
      }
    }
  }
}

// Elastic fleets under the same seeded workloads: scaling policies plus
// live migration (cache state included) must preserve the structural
// invariants — conservation, per-instance sums, and 1-vs-4-thread
// bit-identity of both the serving report and the fleet metrics.
TEST(RouterFuzzTest, ElasticScalingAndMigrationInvariants) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const SloSpec slo{2.0, 2.0};

  for (uint64_t seed : FuzzSeeds()) {
    const auto trace = MixedTrace(seed);
    SCOPED_TRACE("elastic seed " + std::to_string(seed));

    auto make_backend =
        [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
      CostModelBackend::Options o;
      o.block_size = 4;
      o.pool_blocks_override = 256;  // small: queues and migrations form
      o.enable_prefix_sharing = true;
      o.token_vocab = 1000;
      APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                           CostModelBackend::Create(cm, o));
      return std::unique_ptr<ExecutionBackend>(std::move(backend));
    };
    auto make_scheduler = [] { return std::make_unique<FcfsScheduler>(); };

    FleetResult results[2];
    const int32_t thread_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      FleetConfig cfg;
      cfg.router.n_instances = 2;
      cfg.router.policy = RoutePolicy::kLeastOutstandingWork;
      cfg.min_instances = 1;
      cfg.max_instances = 4;
      cfg.tick_interval_s = 0.4;
      cfg.instance_warmup_s = 0.2;
      cfg.scale_up_cooldown_s = 0.4;
      cfg.scale_down_cooldown_s = 2.0;
      cfg.scaling = {ScalingRule::QueueDepth(1.0, 0.1),
                     ScalingRule::TargetUtilization(0.8, 0.2)};
      cfg.enable_migration = true;
      cfg.migration_imbalance_threshold = 1.0;
      cfg.runtime.num_threads = thread_counts[i];
      FleetController controller(cfg, &cm);
      auto result = controller.Run(trace, make_scheduler, make_backend, slo);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      results[i] = std::move(*result);
    }

    // Conservation: every request was served somewhere (admission off).
    for (const FleetResult& r : results) {
      int64_t served = 0;
      for (int32_t c : r.serve.requests_per_instance) served += c;
      EXPECT_EQ(served + r.serve.rejected_requests,
                static_cast<int64_t>(trace.size()));
      EXPECT_EQ(r.serve.combined.eligible_requests +
                    r.serve.combined.best_effort_requests,
                static_cast<int64_t>(trace.size()));
      ExpectStatsSumToFleetTotals(r.serve, trace.size());
    }

    // Thread-count bit-identity of report and elasticity metrics.
    const SloReport& a = results[0].serve.combined;
    const SloReport& b = results[1].serve.combined;
    EXPECT_EQ(a.ttfts.samples(), b.ttfts.samples());
    EXPECT_EQ(a.p99_tbts.samples(), b.p99_tbts.samples());
    EXPECT_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_EQ(a.goodput_rps, b.goodput_rps);
    EXPECT_EQ(results[0].serve.requests_per_instance,
              results[1].serve.requests_per_instance);
    EXPECT_EQ(results[0].fleet.migrations, results[1].fleet.migrations);
    EXPECT_EQ(results[0].fleet.migrations_with_cache,
              results[1].fleet.migrations_with_cache);
    EXPECT_EQ(results[0].fleet.migration_bytes,
              results[1].fleet.migration_bytes);
    EXPECT_EQ(results[0].fleet.instance_seconds,
              results[1].fleet.instance_seconds);
    EXPECT_EQ(results[0].fleet.cold_starts, results[1].fleet.cold_starts);
    ASSERT_EQ(results[0].fleet.scale_events.size(),
              results[1].fleet.scale_events.size());
    for (size_t e = 0; e < results[0].fleet.scale_events.size(); ++e) {
      EXPECT_EQ(results[0].fleet.scale_events[e].time,
                results[1].fleet.scale_events[e].time);
      EXPECT_EQ(results[0].fleet.scale_events[e].instance,
                results[1].fleet.scale_events[e].instance);
      EXPECT_EQ(static_cast<int>(results[0].fleet.scale_events[e].kind),
                static_cast<int>(results[1].fleet.scale_events[e].kind));
    }
  }
}

// Hierarchical (fleet-of-fleets) routing under the same seeded workloads:
// a two-level fleet must keep every structural invariant of the flat one —
// conservation, per-cell sums folding into fleet totals, 1-vs-4-thread
// bit-identity — and the num_cells=1 configuration must be bit-for-bit the
// flat fleet (same shards, same reports, same prefix accounting).
TEST(RouterFuzzTest, HierarchicalFleetInvariants) {
  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));
  const SloSpec slo{2.0, 2.0};

  auto make_backend =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.block_size = 4;
    o.pool_blocks_override = 512;
    o.enable_prefix_sharing = true;
    o.token_vocab = 1000;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
  auto make_scheduler = [] { return std::make_unique<FcfsScheduler>(); };

  for (uint64_t seed : FuzzSeeds()) {
    const auto trace = MixedTrace(seed);
    for (int32_t num_cells : {1, 4}) {
      SCOPED_TRACE("hier seed " + std::to_string(seed) + " cells " +
                   std::to_string(num_cells));
      auto run = [&](int32_t threads) {
        FleetConfig cfg;
        cfg.router.n_instances = 8;
        cfg.router.policy = RoutePolicy::kPrefixAffinity;
        cfg.router.block_size = 4;
        cfg.cells.num_cells = num_cells;
        cfg.runtime.num_threads = threads;
        FleetController controller(cfg, &cm);
        auto result =
            controller.Run(trace, make_scheduler, make_backend, slo);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        return std::move(*result);
      };
      const FleetResult serial = run(1);
      const FleetResult threaded = run(4);

      // Conservation across cells: every request served exactly once, and
      // per-cell partial sums (grouped by the instance->cell map) fold
      // back into the fleet totals.
      ExpectStatsSumToFleetTotals(serial.serve, trace.size());
      EXPECT_EQ(serial.fleet.num_cells, num_cells);
      ASSERT_EQ(serial.fleet.instance_cell.size(),
                serial.serve.per_instance.size());
      std::vector<int64_t> cell_requests(num_cells, 0);
      std::vector<int64_t> cell_prefill(num_cells, 0);
      std::vector<int64_t> cell_hits(num_cells, 0);
      for (size_t i = 0; i < serial.fleet.instance_cell.size(); ++i) {
        const int32_t cell = serial.fleet.instance_cell[i];
        ASSERT_GE(cell, 0);
        ASSERT_LT(cell, num_cells);
        cell_requests[cell] += serial.serve.requests_per_instance[i];
        cell_prefill[cell] += serial.serve.prefill_computed_per_instance[i];
        cell_hits[cell] += serial.serve.prefix_per_instance[i].hits;
      }
      int64_t requests = 0, prefill = 0, hits = 0;
      for (int32_t c = 0; c < num_cells; ++c) {
        requests += cell_requests[c];
        prefill += cell_prefill[c];
        hits += cell_hits[c];
      }
      EXPECT_EQ(requests, static_cast<int64_t>(trace.size()));
      EXPECT_EQ(prefill, serial.serve.prefill_tokens_computed);
      EXPECT_EQ(hits, serial.serve.prefix.hits);
      if (num_cells > 1) {
        EXPECT_EQ(serial.serve.route_cost.cell_hash_routed +
                      serial.serve.route_cost.cell_fallback_routed,
                  serial.serve.route_cost.decisions);
      }

      // 1-vs-4-thread bit-identity (token streams, shards, counters).
      EXPECT_EQ(serial.serve.requests_per_instance,
                threaded.serve.requests_per_instance);
      EXPECT_EQ(serial.serve.combined.total_serving_time,
                threaded.serve.combined.total_serving_time);
      EXPECT_EQ(serial.serve.combined.ttfts.samples(),
                threaded.serve.combined.ttfts.samples());
      EXPECT_EQ(serial.serve.prefill_tokens_computed,
                threaded.serve.prefill_tokens_computed);
      EXPECT_EQ(serial.serve.prefill_tokens_skipped,
                threaded.serve.prefill_tokens_skipped);
      EXPECT_EQ(serial.serve.prefix.hits, threaded.serve.prefix.hits);
      EXPECT_EQ(serial.serve.tokens_generated,
                threaded.serve.tokens_generated);
      EXPECT_EQ(serial.serve.route_cost.instance_probes,
                threaded.serve.route_cost.instance_probes);
      EXPECT_EQ(serial.serve.route_cost.cell_probes,
                threaded.serve.route_cost.cell_probes);
      EXPECT_EQ(serial.fleet.instance_cell, threaded.fleet.instance_cell);

      // num_cells=1 is bit-for-bit the flat fleet.
      if (num_cells == 1) {
        FleetConfig fc;
        fc.router.n_instances = 8;
        fc.router.policy = RoutePolicy::kPrefixAffinity;
        fc.router.block_size = 4;
        fc.runtime.num_threads = 1;
        auto flat_run = FleetController(fc, &cm).Run(trace, make_scheduler,
                                                      make_backend, slo);
        ASSERT_TRUE(flat_run.ok()) << flat_run.status().ToString();
        const MultiInstanceResult* flat_result = &flat_run->serve;
        EXPECT_EQ(flat_result->requests_per_instance,
                  serial.serve.requests_per_instance);
        EXPECT_EQ(flat_result->combined.total_serving_time,
                  serial.serve.combined.total_serving_time);
        EXPECT_EQ(flat_result->combined.goodput_rps,
                  serial.serve.combined.goodput_rps);
        EXPECT_EQ(flat_result->prefill_tokens_computed,
                  serial.serve.prefill_tokens_computed);
        EXPECT_EQ(flat_result->prefill_tokens_skipped,
                  serial.serve.prefill_tokens_skipped);
        EXPECT_EQ(flat_result->prefix.hits, serial.serve.prefix.hits);
        EXPECT_EQ(flat_result->tokens_generated,
                  serial.serve.tokens_generated);
        EXPECT_EQ(flat_result->route_cost.instance_probes,
                  serial.serve.route_cost.instance_probes);
        EXPECT_EQ(flat_result->route_cost.mirror_nodes_walked,
                  serial.serve.route_cost.mirror_nodes_walked);
      }
    }
  }
}

}  // namespace
}  // namespace aptserve
