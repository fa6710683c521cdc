// FleetController composes with any ExecutionBackend: the same
// routing policies shard the analytic CostModelBackend and the real-engine
// InferenceBackend — which before the serve/ refactor was impossible
// (sharding was wired to the simulator only).
#include <gtest/gtest.h>

#include <memory>

#include "baselines/fcfs_scheduler.h"
#include "serve/fleet_controller.h"
#include "serve/inference_backend.h"

namespace aptserve {
namespace {

TEST(MultiBackendFleetTest, InferenceBackendFleetServesAllRequests) {
  // Shard a burst of tiny requests across two *real-engine* instances.
  std::vector<Request> trace;
  Rng rng(5);
  for (int32_t i = 0; i < 12; ++i) {
    Request r;
    r.id = i;
    r.prompt_len = static_cast<int32_t>(rng.UniformInt(4, 16));
    r.output_len = static_cast<int32_t>(rng.UniformInt(2, 8));
    r.arrival = 0.01 * i;
    trace.push_back(r);
  }

  FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.router.policy = RoutePolicy::kRoundRobin;
  cfg.loop.max_batch_size = INT32_MAX;
  auto run = FleetController(cfg).Run(
      trace, [] { return std::make_unique<FcfsScheduler>(); },
      [](int32_t instance) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
        InferenceBackendOptions options;
        options.virtual_timing = true;
        return std::unique_ptr<ExecutionBackend>(
            std::make_unique<InferenceBackend>(
                ModelConfig::Tiny(), /*weight_seed=*/42 + instance,
                /*num_blocks=*/96, /*block_size=*/8, SamplingParams{},
                options));
      },
      SloSpec{5.0, 5.0});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const MultiInstanceResult* result = &run->serve;
  EXPECT_EQ(result->requests_per_instance[0], 6);
  EXPECT_EQ(result->requests_per_instance[1], 6);
  // Every request produced a first token on some instance.
  EXPECT_EQ(result->combined.ttfts.count(), 12u);
}

}  // namespace
}  // namespace aptserve
