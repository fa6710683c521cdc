// Fleet-of-fleets scaling gate: the hierarchical front tier's reason to
// exist, measured. Two parts:
//
//   Part A (routing cost): a 100k+-request multi-group shared-prefix trace
//   is routed — routing only, no serving — across fleets of 8..128
//   instances, flat kPrefixAffinity vs the two-level CellRouter +
//   intra-cell affinity at a fixed cell width of 8. The readout is
//   RouteCostStats::ProbesPerDecision(): deterministic state examinations
//   per routing decision (instance probes + mirror radix nodes walked +
//   cell-summary probes), not wall time, so the numbers are bit-stable
//   across machines and build modes.
//
//   Part B (routing quality): the same workload shape served end-to-end at
//   64 instances on the cost-model backend with prefix sharing enabled —
//   round-robin vs flat affinity vs hierarchical (8 cells of 8). The
//   hierarchy must keep prefix locality: hashing a conversation's leading
//   chunk pins its turns (and its group's siblings) to one cell, where the
//   intra-cell mirrors finish the job.
//
// Hard checks gating the exit code (the PR's acceptance criteria):
//   1. Hierarchical probes/decision grows <= 1.5x from 8 to 128 instances
//      (the front tier is O(1) in fleet width; only the fixed-width cell
//      term remains).
//   2. Flat probes/decision grows >= 8x over the same range (the per-
//      decision cost scales with fleet width, i.e. fleet-wide routing work
//      grows superlinearly) — the regression the hierarchy removes.
//   3. Cell-stats conservation on every hierarchical run:
//      hash_routed + fallback_routed == decisions == requests.
//   4. Hierarchical routing achieves >= 1.4x prefill-token reduction vs
//      round-robin at 64 instances.
// `--smoke` runs a small grid for CI: machinery + conservation checks
// only, scaling-ratio gates skipped (they need the full fleet range).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "bench/bench_util.h"
#include "serve/cell_router.h"
#include "serve/cost_model_backend.h"
#include "serve/fleet_controller.h"
#include "serve/router.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

constexpr int32_t kBlockSize = 16;
constexpr int32_t kCellWidth = 8;
constexpr int32_t kPoolBlocks = 512;
constexpr int32_t kVocab = 50272;

struct TraceShape {
  int32_t groups = 0;  ///< distinct prefix groups (independent system prompts)
  int32_t conversations = 0;  ///< conversations per group
  int32_t turns = 0;
  int32_t tokens_per_turn = 0;
  int32_t system_prompt_len = 0;
  int32_t output_len_mean = 4;
};

// Union of `groups` shared-prefix traces with distinct seeds (so distinct
// system prompts — each group is its own affinity universe), interleaved
// by a small per-group arrival offset, merged by arrival and re-id'd.
// A single SharedPrefixConfig generates ONE global system prompt; routing
// over many instances only differentiates policies when there are many
// groups to spread.
std::vector<Request> MakeMultiGroupTrace(const TraceShape& shape) {
  std::vector<Request> all;
  for (int32_t g = 0; g < shape.groups; ++g) {
    SharedPrefixConfig cfg;
    cfg.system_prompt_len = shape.system_prompt_len;
    cfg.num_conversations = shape.conversations;
    cfg.turns_per_conversation = shape.turns;
    cfg.tokens_per_turn = shape.tokens_per_turn;
    cfg.output_len_mean = shape.output_len_mean;
    // Per-group timing jitter: with uniform staggers the merged arrival
    // order is group-cyclic and round-robin accidentally pins each group
    // to one instance, which would flatter the baseline.
    cfg.think_time_s = 2.0 + 0.037 * (g % 13);
    cfg.conversation_stagger_s = 0.25 + 0.013 * (g % 7);
    cfg.vocab_size = kVocab;
    cfg.seed = 1000 + static_cast<uint64_t>(g) * 7919;
    auto trace = BuildSharedPrefixTrace(cfg);
    if (!trace.ok()) {
      std::fprintf(stderr, "trace(group %d): %s\n", g,
                   trace.status().ToString().c_str());
      std::abort();
    }
    const double offset = 0.017 * g;
    all.reserve(all.size() + trace->size());
    for (Request& r : *trace) {
      r.arrival += offset;
      all.push_back(std::move(r));
    }
  }
  std::stable_sort(
      all.begin(), all.end(),
      [](const Request& a, const Request& b) { return a.arrival < b.arrival; });
  for (size_t i = 0; i < all.size(); ++i) all[i].id = static_cast<RequestId>(i);
  return all;
}

RouterConfig AffinityConfig(int32_t n) {
  RouterConfig rc;
  rc.n_instances = n;
  rc.policy = RoutePolicy::kPrefixAffinity;
  rc.block_size = kBlockSize;
  return rc;
}

struct ProbeRun {
  RouteCostStats cost;    // cell_* folded in for hierarchical runs
  CellRouteStats cells;   // zero for flat runs
  double ppd = 0.0;
};

ProbeRun RouteFlat(const std::vector<Request>& trace, const CostModel& cm,
                   int32_t n) {
  const Router router(AffinityConfig(n), &cm);
  RouterState state = router.MakeState();
  const std::vector<uint8_t> live(n, 1);
  bool best_effort = false;
  for (size_t i = 0; i < trace.size(); ++i) {
    router.RouteOne(trace[i], i, live, &state, &best_effort);
  }
  ProbeRun out;
  out.cost = state.cost_stats();
  out.ppd = out.cost.ProbesPerDecision();
  return out;
}

ProbeRun RouteHier(const std::vector<Request>& trace, const CostModel& cm,
                   int32_t n) {
  const int32_t num_cells = std::max(1, n / kCellWidth);
  const Router router(AffinityConfig(n), &cm);
  CellRouterConfig cc;
  cc.num_cells = num_cells;
  CellRouter cells(cc, kBlockSize);
  RouterState state = router.MakeState();
  // Same instance->cell map the fleet controller's least-populated spawn
  // assignment produces for an initial all-at-once fleet.
  std::vector<std::vector<int32_t>> members(num_cells);
  for (int32_t i = 0; i < n; ++i) members[i % num_cells].push_back(i);
  bool best_effort = false;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& req = trace[i];
    const int32_t cell = cells.RouteOne(req, req.arrival);
    router.RouteOneLive(req, i, members[cell], &state, &best_effort);
    cells.Commit(cell, req.arrival, router.EstimatedServiceSeconds(req),
                 static_cast<int32_t>(members[cell].size()));
  }
  ProbeRun out;
  out.cost = state.cost_stats();
  out.cells = cells.stats();
  out.cost.cell_probes = out.cells.cell_probes;
  out.cost.cell_hash_routed = out.cells.hash_routed;
  out.cost.cell_fallback_routed = out.cells.fallback_routed;
  out.ppd = out.cost.ProbesPerDecision();
  return out;
}

void RecordProbe(const std::string& mode, int32_t instances,
                 int32_t num_cells, size_t requests, const ProbeRun& r,
                 double growth_vs_smallest) {
  bench::JsonObject e;
  e.Str("part", "probe_cost")
      .Str("mode", mode)
      .Int("instances", instances)
      .Int("num_cells", num_cells)
      .Int("requests", static_cast<int64_t>(requests))
      .Int("decisions", r.cost.decisions)
      .Int("instance_probes", r.cost.instance_probes)
      .Int("mirror_nodes_walked", r.cost.mirror_nodes_walked)
      .Int("cell_probes", r.cost.cell_probes)
      .Int("cell_hash_routed", r.cost.cell_hash_routed)
      .Int("cell_fallback_routed", r.cost.cell_fallback_routed)
      .Int("mirror_node_peak", r.cost.mirror_node_peak)
      .Int("mirror_evictions", r.cost.mirror_evictions)
      .Num("probes_per_decision", r.ppd)
      .Num("growth_vs_smallest", growth_vs_smallest);
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

MultiInstanceResult Serve(const std::vector<Request>& trace,
                          const CostModel& cm, RoutePolicy policy,
                          int32_t instances, int32_t num_cells) {
  FleetConfig config;
  config.router.n_instances = instances;
  config.router.policy = policy;
  config.router.block_size = kBlockSize;
  config.cells.num_cells = num_cells;
  BackendFactory make_backend =
      [&cm](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    CostModelBackend::Options o;
    o.block_size = kBlockSize;
    o.pool_blocks_override = kPoolBlocks;
    o.enable_prefix_sharing = true;
    o.token_vocab = kVocab;
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> backend,
                         CostModelBackend::Create(cm, o));
    return std::unique_ptr<ExecutionBackend>(std::move(backend));
  };
  auto result = FleetController(config, &cm).Run(
      trace, [] { return std::make_unique<FcfsScheduler>(); }, make_backend,
      SloSpec{10.0, 10.0});
  if (!result.ok()) {
    std::fprintf(stderr, "serve(%s, cells=%d): %s\n", RoutePolicyName(policy),
                 num_cells, result.status().ToString().c_str());
    std::abort();
  }
  return result->serve;
}

void RecordServe(const std::string& mode, int32_t instances,
                 int32_t num_cells, const MultiInstanceResult& r,
                 double reduction) {
  bench::JsonObject e;
  e.Str("part", "serving")
      .Str("mode", mode)
      .Int("instances", instances)
      .Int("num_cells", num_cells)
      .Int("prefill_tokens_computed", r.prefill_tokens_computed)
      .Int("prefill_tokens_skipped", r.prefill_tokens_skipped)
      .Num("prefill_reduction_vs_rr", reduction)
      .Num("mean_ttft_s", r.combined.mean_ttft)
      .Num("goodput_rps", r.combined.goodput_rps)
      .Int("prefix_hits", r.prefix.hits)
      .Int("prefix_matched_tokens", r.prefix.matched_tokens)
      .Num("route_probes_per_decision", r.route_cost.ProbesPerDecision());
  bench::BenchJson::Instance().AddEntry(std::move(e));
}

}  // namespace
}  // namespace aptserve

int main(int argc, char** argv) {
  using namespace aptserve;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // Part A trace: 128 groups x 40 conversations x 20 turns = 102,400
  // requests in full mode.
  TraceShape probe_shape;
  probe_shape.groups = smoke ? 8 : 128;
  probe_shape.conversations = smoke ? 4 : 40;
  probe_shape.turns = smoke ? 4 : 20;
  probe_shape.tokens_per_turn = 16;
  probe_shape.system_prompt_len = 32;
  probe_shape.output_len_mean = 4;
  const std::vector<int32_t> fleet_sizes =
      smoke ? std::vector<int32_t>{8, 16}
            : std::vector<int32_t>{8, 16, 32, 64, 128};

  bench::BenchJson::Instance().config()
      .Str("mode", smoke ? "smoke" : "full")
      .Int("block_size", kBlockSize)
      .Int("cell_width", kCellWidth)
      .Int("probe_groups", probe_shape.groups)
      .Int("probe_requests",
           static_cast<int64_t>(probe_shape.groups) * probe_shape.conversations *
               probe_shape.turns)
      .Str("cost_model", "OPT-13B");

  const ModelSpec m = ModelSpec::Opt13B();
  const CostModel cm(m, ClusterSpec::ForModel(m));

  std::printf("=== Part A: probes/decision, flat vs hierarchical ===\n");
  const auto probe_trace = MakeMultiGroupTrace(probe_shape);
  std::printf("trace: %zu requests, %d prefix groups\n\n", probe_trace.size(),
              probe_shape.groups);
  std::printf("%-14s %5s %6s | %10s %8s | %12s %12s %10s\n", "mode", "inst",
              "cells", "probes/dec", "growth", "inst_probes", "mirror_walk",
              "cell_prb");

  bool conservation_ok = true;
  double flat_first = 0.0, flat_last = 0.0;
  double hier_first = 0.0, hier_last = 0.0;
  for (int32_t n : fleet_sizes) {
    const ProbeRun flat = RouteFlat(probe_trace, cm, n);
    const ProbeRun hier = RouteHier(probe_trace, cm, n);
    const int32_t num_cells = std::max(1, n / kCellWidth);
    if (n == fleet_sizes.front()) {
      flat_first = flat.ppd;
      hier_first = hier.ppd;
    }
    flat_last = flat.ppd;
    hier_last = hier.ppd;
    const double flat_growth = flat_first > 0 ? flat.ppd / flat_first : 0.0;
    const double hier_growth = hier_first > 0 ? hier.ppd / hier_first : 0.0;
    RecordProbe("flat", n, 1, probe_trace.size(), flat, flat_growth);
    RecordProbe("hierarchical", n, num_cells, probe_trace.size(), hier,
                hier_growth);
    std::printf("%-14s %5d %6d | %10.2f %7.2fx | %12lld %12lld %10lld\n",
                "flat", n, 1, flat.ppd, flat_growth,
                static_cast<long long>(flat.cost.instance_probes),
                static_cast<long long>(flat.cost.mirror_nodes_walked),
                static_cast<long long>(flat.cost.cell_probes));
    std::printf("%-14s %5d %6d | %10.2f %7.2fx | %12lld %12lld %10lld\n",
                "hierarchical", n, num_cells, hier.ppd, hier_growth,
                static_cast<long long>(hier.cost.instance_probes),
                static_cast<long long>(hier.cost.mirror_nodes_walked),
                static_cast<long long>(hier.cost.cell_probes));
    // Check 3: cell-stats conservation.
    const auto& cs = hier.cells;
    if (cs.hash_routed + cs.fallback_routed != cs.decisions ||
        cs.decisions != static_cast<int64_t>(probe_trace.size())) {
      conservation_ok = false;
      std::printf("  !! cell-stats conservation broken at inst=%d: "
                  "%lld + %lld != %lld (requests %zu)\n",
                  n, static_cast<long long>(cs.hash_routed),
                  static_cast<long long>(cs.fallback_routed),
                  static_cast<long long>(cs.decisions), probe_trace.size());
    }
  }

  const double hier_ratio = hier_first > 0 ? hier_last / hier_first : 0.0;
  const double flat_ratio = flat_first > 0 ? flat_last / flat_first : 0.0;
  std::printf("\nprobes/decision growth %d->%d: hierarchical %.2fx, "
              "flat %.2fx\n",
              fleet_sizes.front(), fleet_sizes.back(), hier_ratio, flat_ratio);

  // Part B: serve at 64 instances (8 cells of 8); smoke: 8 instances
  // (2 cells of 4).
  TraceShape serve_shape;
  serve_shape.groups = smoke ? 8 : 64;
  serve_shape.conversations = smoke ? 4 : 10;
  serve_shape.turns = smoke ? 4 : 6;
  serve_shape.tokens_per_turn = smoke ? 16 : 24;
  serve_shape.system_prompt_len = smoke ? 32 : 48;
  serve_shape.output_len_mean = 6;
  const int32_t serve_instances = smoke ? 8 : 64;
  const int32_t serve_cells = smoke ? 2 : 8;

  std::printf("\n=== Part B: served prefill tokens at %d instances ===\n",
              serve_instances);
  const auto serve_trace = MakeMultiGroupTrace(serve_shape);
  std::printf("trace: %zu requests, %d prefix groups\n\n", serve_trace.size(),
              serve_shape.groups);

  const MultiInstanceResult rr =
      Serve(serve_trace, cm, RoutePolicy::kRoundRobin, serve_instances, 1);
  const MultiInstanceResult flat_aff =
      Serve(serve_trace, cm, RoutePolicy::kPrefixAffinity, serve_instances, 1);
  const MultiInstanceResult hier_aff = Serve(
      serve_trace, cm, RoutePolicy::kPrefixAffinity, serve_instances,
      serve_cells);

  const auto reduction = [&rr](const MultiInstanceResult& r) {
    return r.prefill_tokens_computed > 0
               ? static_cast<double>(rr.prefill_tokens_computed) /
                     static_cast<double>(r.prefill_tokens_computed)
               : 0.0;
  };
  const double red_flat = reduction(flat_aff);
  const double red_hier = reduction(hier_aff);
  RecordServe("round-robin", serve_instances, 1, rr, 1.0);
  RecordServe("flat-affinity", serve_instances, 1, flat_aff, red_flat);
  RecordServe("hier-affinity", serve_instances, serve_cells, hier_aff,
              red_hier);
  std::printf("%-14s %6s | %10s %10s %8s | %10s %9s\n", "mode", "cells",
              "pf_comp", "pf_skip", "redux", "mean_ttft", "probes/dec");
  for (const auto& [name, cells, r, red] :
       {std::make_tuple("round-robin", 1, &rr, 1.0),
        std::make_tuple("flat-affinity", 1, &flat_aff, red_flat),
        std::make_tuple("hier-affinity", static_cast<int>(serve_cells),
                        &hier_aff, red_hier)}) {
    std::printf("%-14s %6d | %10lld %10lld %7.2fx | %10.5f %9.2f\n", name,
                cells, static_cast<long long>(r->prefill_tokens_computed),
                static_cast<long long>(r->prefill_tokens_skipped), red,
                r->combined.mean_ttft, r->route_cost.ProbesPerDecision());
  }

  // Gates.
  bool ok = conservation_ok;
  if (!smoke) {
    if (hier_ratio > 1.5) {
      ok = false;
      std::printf("!! hierarchical probes/decision growth %.2fx > 1.5x\n",
                  hier_ratio);
    }
    if (flat_ratio < 8.0) {
      ok = false;
      std::printf("!! flat probes/decision growth %.2fx < 8x — the flat "
                  "baseline is no longer superlinear?\n",
                  flat_ratio);
    }
    if (red_hier < 1.4) {
      ok = false;
      std::printf("!! hierarchical prefill reduction %.2fx < 1.4x vs "
                  "round-robin\n",
                  red_hier);
    }
  } else {
    // Smoke: machinery only — the hierarchy must still probe less than the
    // flat scan at the largest smoke fleet.
    if (hier_last >= flat_last) {
      ok = false;
      std::printf("!! smoke: hierarchical probes/decision %.2f >= flat %.2f "
                  "at inst=%d\n",
                  hier_last, flat_last, fleet_sizes.back());
    }
  }
  bench::BenchJson::Instance().config()
      .Num("hier_growth_ratio", hier_ratio)
      .Num("flat_growth_ratio", flat_ratio)
      .Num("hier_prefill_reduction_vs_rr", red_hier)
      .Int("gates_ok", ok ? 1 : 0);
  std::printf("\nall gates: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
