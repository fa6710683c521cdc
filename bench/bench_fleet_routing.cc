// Fleet-routing sweep: routing policy x instance-count x shared-prefix
// fan-out over the conversation workload, run on BOTH execution backends
// (cost-model fleet and real-engine fleet, prefix sharing enabled).
//
// Reported per cell: prefill tokens computed/skipped, the prefill
// reduction factor vs round-robin on the same cell, mean TTFT, goodput,
// SLO attainment, prefix hits and the per-instance request spread.
//
// Two hard checks gate the exit code (the PR's acceptance criteria):
//   1. PrefixStats identical across backends on every grid cell — routing
//      is backend-independent, so the shards (and what each instance's
//      index earns on them) must be too.
//   2. Prefix-affinity routing achieves >= 1.5x prefill-token reduction
//      vs round-robin on every cell of the sweep's conversation workload.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "bench/bench_util.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "serve/inference_backend.h"
#include "serve/router.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

constexpr int32_t kBlockSize = 4;
constexpr int32_t kPoolBlocks = 512;

std::vector<Request> MakeTrace(int32_t fan_out) {
  SharedPrefixConfig cfg;
  cfg.system_prompt_len = 16;
  cfg.num_conversations = fan_out;
  cfg.turns_per_conversation = 5;
  cfg.tokens_per_turn = 20;
  cfg.output_len_mean = 6;
  cfg.think_time_s = 2.0;
  cfg.conversation_stagger_s = 0.25;
  cfg.vocab_size = ModelConfig::Tiny().vocab_size;
  auto trace = BuildSharedPrefixTrace(cfg);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    std::abort();
  }
  return *trace;
}

MultiInstanceResult RunFleet(const std::vector<Request>& trace,
                             const CostModel& cm, RoutePolicy policy,
                             int32_t instances, bool engine_backend) {
  FleetConfig config;
  config.router.n_instances = instances;
  config.router.policy = policy;
  config.router.block_size = kBlockSize;
  BackendFactory make_backend;
  if (engine_backend) {
    make_backend =
        [](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
      InferenceBackendOptions o;
      o.virtual_timing = true;
      o.enable_prefix_sharing = true;
      return std::unique_ptr<ExecutionBackend>(
          std::make_unique<InferenceBackend>(
              ModelConfig::Tiny(), /*weight_seed=*/42, kPoolBlocks,
              kBlockSize, SamplingParams{}, o));
    };
  } else {
    make_backend =
        [&cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
      CostModelBackend::Options o;
      o.block_size = kBlockSize;
      o.pool_blocks_override = kPoolBlocks;
      o.enable_prefix_sharing = true;
      o.token_vocab = ModelConfig::Tiny().vocab_size;
      APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                           CostModelBackend::Create(cm, o));
      return std::unique_ptr<ExecutionBackend>(std::move(backend));
    };
  }
  auto result = FleetController(config, &cm).Run(
      trace, [] { return std::make_unique<FcfsScheduler>(); }, make_backend,
      SloSpec{10.0, 10.0});
  if (!result.ok()) {
    std::fprintf(stderr, "fleet(%s): %s\n", RoutePolicyName(policy),
                 result.status().ToString().c_str());
    std::abort();
  }
  return result->serve;
}

void Record(const std::string& backend, RoutePolicy policy,
            int32_t instances, int32_t fan_out,
            const MultiInstanceResult& r, double reduction) {
  std::string spread;
  for (size_t i = 0; i < r.requests_per_instance.size(); ++i) {
    if (i > 0) spread += "/";
    spread += std::to_string(r.requests_per_instance[i]);
  }
  bench::JsonObject e;
  e.Str("backend", backend)
      .Str("policy", RoutePolicyName(policy))
      .Int("instances", instances)
      .Int("fan_out", fan_out)
      .Int("prefill_tokens_computed", r.prefill_tokens_computed)
      .Int("prefill_tokens_skipped", r.prefill_tokens_skipped)
      .Num("prefill_reduction_vs_rr", reduction)
      .Num("mean_ttft_s", r.combined.mean_ttft)
      .Num("goodput_rps", r.combined.goodput_rps)
      .Num("slo_attainment", r.combined.slo_attainment)
      .Int("prefix_hits", r.prefix.hits)
      .Int("prefix_matched_tokens", r.prefix.matched_tokens)
      .Str("requests_per_instance", spread);
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

bool SamePrefixStats(const PrefixStats& a, const PrefixStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits &&
         a.matched_tokens == b.matched_tokens &&
         a.shared_blocks == b.shared_blocks &&
         a.cow_matches == b.cow_matches;
}

}  // namespace
}  // namespace aptserve

int main() {
  using namespace aptserve;

  bench::BenchJson::Instance().config()
      .Int("block_size", kBlockSize)
      .Int("pool_blocks", kPoolBlocks)
      .Str("scheduler", "FCFS")
      .Str("cost_model", "OPT-13B")
      .Str("engine_model", "Tiny")
      .Int("turns_per_conversation", 5)
      .Int("tokens_per_turn", 20)
      .Int("system_prompt_len", 16);

  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));

  const std::vector<RoutePolicy> policies = {
      RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstandingWork,
      RoutePolicy::kPrefixAffinity};
  const std::vector<int32_t> instance_counts = {2, 4};
  const std::vector<int32_t> fan_outs = {5, 7};

  std::printf("=== Fleet routing: policy x instances x fan-out sweep ===\n");
  std::printf("%-16s %-22s %4s %6s | %8s %8s %8s | %9s %9s | %s\n",
              "backend", "policy", "inst", "fanout", "pf_comp", "pf_skip",
              "redux", "mean_ttft", "goodput", "spread");

  bool parity_ok = true;
  bool reduction_ok = true;
  for (int32_t instances : instance_counts) {
    for (int32_t fan_out : fan_outs) {
      const auto trace = MakeTrace(fan_out);
      // Per-policy results for both backends on this cell.
      std::map<int, std::pair<MultiInstanceResult, MultiInstanceResult>>
          results;
      int64_t rr_computed_cost = 0;
      for (RoutePolicy policy : policies) {
        MultiInstanceResult cost =
            RunFleet(trace, cm, policy, instances, /*engine_backend=*/false);
        MultiInstanceResult engine =
            RunFleet(trace, cm, policy, instances, /*engine_backend=*/true);
        if (policy == RoutePolicy::kRoundRobin) {
          rr_computed_cost = cost.prefill_tokens_computed;
        }
        // Check 1: identical PrefixStats across backends, fleet-wide and
        // per instance.
        bool cell_parity =
            SamePrefixStats(cost.prefix, engine.prefix) &&
            cost.prefill_tokens_skipped == engine.prefill_tokens_skipped &&
            cost.requests_per_instance == engine.requests_per_instance;
        for (int32_t i = 0; cell_parity && i < instances; ++i) {
          cell_parity = SamePrefixStats(cost.prefix_per_instance[i],
                                        engine.prefix_per_instance[i]);
        }
        if (!cell_parity) {
          parity_ok = false;
          std::printf("  !! PrefixStats diverged across backends: %s inst=%d "
                      "fanout=%d\n",
                      RoutePolicyName(policy), instances, fan_out);
        }
        const double reduction =
            cost.prefill_tokens_computed > 0
                ? static_cast<double>(rr_computed_cost) /
                      cost.prefill_tokens_computed
                : 0.0;
        Record("cost-model", policy, instances, fan_out, cost, reduction);
        Record("inference-engine", policy, instances, fan_out, engine,
               reduction);
        for (const auto& [name, r] :
             {std::make_pair(std::string("cost-model"), &cost),
              std::make_pair(std::string("inference-engine"), &engine)}) {
          std::string spread;
          for (size_t i = 0; i < r->requests_per_instance.size(); ++i) {
            if (i > 0) spread += "/";
            spread += std::to_string(r->requests_per_instance[i]);
          }
          std::printf(
              "%-16s %-22s %4d %6d | %8lld %8lld %7.2fx | %9.5f %9.3f | %s\n",
              name.c_str(), RoutePolicyName(policy), instances, fan_out,
              static_cast<long long>(r->prefill_tokens_computed),
              static_cast<long long>(r->prefill_tokens_skipped), reduction,
              r->combined.mean_ttft, r->combined.goodput_rps,
              spread.c_str());
        }
        // Check 2: affinity beats round-robin by >= 1.5x on every cell.
        if (policy == RoutePolicy::kPrefixAffinity && reduction < 1.5) {
          reduction_ok = false;
          std::printf("  !! affinity reduction %.2fx < 1.5x at inst=%d "
                      "fanout=%d\n",
                      reduction, instances, fan_out);
        }
      }
      (void)results;
    }
  }

  std::printf("\nPrefixStats identical across backends on every cell: %s\n",
              parity_ok ? "yes" : "NO");
  std::printf("prefix-affinity >=1.5x prefill reduction vs round-robin on "
              "every cell: %s\n",
              reduction_ok ? "yes" : "NO");
  bench::BenchJson::Instance().config()
      .Int("parity_ok", parity_ok ? 1 : 0)
      .Int("reduction_ok", reduction_ok ? 1 : 0);
  return parity_ok && reduction_ok ? 0 : 1;
}
