// A flat-fleet reference computed without FleetController: the flat Router
// routes the whole trace over an all-live fleet (RouteOne, arrival order),
// and each instance's shard is served to completion on its own
// ServingLoop, the way the pre-controller per-shard runner did (see
// RouterParityTest in router_test.cc). A static FleetController run of the
// same trace must reproduce it bit for bit; the cell-router suites use it
// to pin that num_cells = 1 is the flat fleet.
//
// Used by cell_router_test and router_fuzz_test.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "serve/fleet_controller.h"
#include "serve/router.h"
#include "serve/serving_loop.h"

namespace aptserve {

/// Serves `trace` on `router`'s flat fleet, one ServingLoop per instance.
/// Fills the MultiInstanceResult fields a static fleet run reports:
/// per-instance and combined reports, prefill and prefix accounting,
/// tokens generated and the routing cost.
inline StatusOr<MultiInstanceResult> RunFlatFleetReference(
    const Router& router, const std::vector<Request>& trace,
    const SchedulerFactory& make_scheduler, const BackendFactory& make_backend,
    const SloSpec& slo) {
  const int32_t n = router.config().n_instances;
  RouterState state = router.MakeState();
  const std::vector<uint8_t> live(n, 1);
  std::vector<std::vector<Request>> shards(n);
  for (size_t i = 0; i < trace.size(); ++i) {
    bool best_effort = false;
    const int32_t inst =
        router.RouteOne(trace[i], i, live, &state, &best_effort);
    if (inst == RouteDecision::kRejected || best_effort) {
      return Status::Unimplemented("reference covers admitted requests only");
    }
    shards[inst].push_back(trace[i]);
  }
  MultiInstanceResult out;
  out.per_instance.resize(n);
  out.requests_per_instance.assign(n, 0);
  out.prefill_computed_per_instance.assign(n, 0);
  out.prefill_skipped_per_instance.assign(n, 0);
  out.prefix_per_instance.resize(n);
  for (int32_t i = 0; i < n; ++i) {
    if (shards[i].empty()) continue;  // an idle instance reports zeros
    APT_ASSIGN_OR_RETURN(std::unique_ptr<ExecutionBackend> backend,
                         make_backend(i));
    const auto scheduler = make_scheduler();
    APT_ASSIGN_OR_RETURN(
        ServingLoopResult r,
        ServingLoop(backend.get(), {}).Run(shards[i], scheduler.get(), slo));
    out.per_instance[i] = r.report;
    out.requests_per_instance[i] = static_cast<int32_t>(r.records.size());
    out.prefill_computed_per_instance[i] = r.prefill_tokens_computed;
    out.prefill_skipped_per_instance[i] = r.prefill_tokens_skipped;
    out.prefix_per_instance[i] = r.prefix;
    out.prefill_tokens_computed += r.prefill_tokens_computed;
    out.prefill_tokens_skipped += r.prefill_tokens_skipped;
    out.tokens_generated += r.tokens_generated;
    out.prefix += r.prefix;
  }
  out.combined = MergeReports(out.per_instance, out.requests_per_instance);
  out.route_cost = state.cost_stats();
  return out;
}

/// Expects a static fleet run to equal the flat reference bit for bit.
inline void ExpectEqualsFlatReference(const MultiInstanceResult& ref,
                                      const MultiInstanceResult& run) {
  EXPECT_EQ(ref.requests_per_instance, run.requests_per_instance);
  EXPECT_EQ(ref.combined.total_serving_time, run.combined.total_serving_time);
  EXPECT_EQ(ref.combined.iterations, run.combined.iterations);
  EXPECT_EQ(ref.combined.slo_attainment, run.combined.slo_attainment);
  EXPECT_EQ(ref.combined.goodput_rps, run.combined.goodput_rps);
  EXPECT_EQ(ref.combined.ttfts.samples(), run.combined.ttfts.samples());
  EXPECT_EQ(ref.prefill_computed_per_instance,
            run.prefill_computed_per_instance);
  EXPECT_EQ(ref.prefill_tokens_computed, run.prefill_tokens_computed);
  EXPECT_EQ(ref.prefill_tokens_skipped, run.prefill_tokens_skipped);
  EXPECT_EQ(ref.prefix.hits, run.prefix.hits);
  EXPECT_EQ(ref.prefix.matched_tokens, run.prefix.matched_tokens);
  EXPECT_EQ(ref.prefix.evicted_blocks, run.prefix.evicted_blocks);
  EXPECT_EQ(ref.tokens_generated, run.tokens_generated);
  EXPECT_EQ(ref.route_cost.decisions, run.route_cost.decisions);
  EXPECT_EQ(ref.route_cost.instance_probes, run.route_cost.instance_probes);
  EXPECT_EQ(ref.route_cost.mirror_nodes_walked,
            run.route_cost.mirror_nodes_walked);
}

}  // namespace aptserve
