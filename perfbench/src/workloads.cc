#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/serving_loop.h"
#include "sim/cluster_spec.h"
#include "sim/model_spec.h"
#include "workload/shared_prefix.h"
#include "workload/trace.h"

namespace perfbench {

using aptserve::CostModel;
using aptserve::CostModelBackend;
using aptserve::Request;
using aptserve::RequestId;
using aptserve::Status;
using aptserve::StatusOr;

namespace {

constexpr uint64_t kWeightSeed = 2025;
constexpr int32_t kChatBlockSize = 16;  // CostModelBackend's default
/// fleet_chat: two waves of conversations, the second starting this many
/// virtual seconds after the first, so the fleet grows and then drains.
constexpr double kWaveGapS = 90.0;

CostModel Opt13bCostModel() {
  const aptserve::ModelSpec model = aptserve::ModelSpec::Opt13B();
  return CostModel(model, aptserve::ClusterSpec::ForModel(model));
}

aptserve::AptConfig AptFor(const aptserve::SloSpec& slo) {
  aptserve::AptConfig c;
  c.slo = slo;
  return c;
}

/// fleet_chat's elastic two-cell fleet.
aptserve::FleetConfig ChatFleetConfig() {
  aptserve::FleetConfig cfg;
  cfg.router.n_instances = 2;
  cfg.router.policy = aptserve::RoutePolicy::kPrefixAffinity;
  cfg.router.block_size = kChatBlockSize;
  cfg.min_instances = 2;
  cfg.max_instances = 8;
  cfg.tick_interval_s = 1.0;
  cfg.instance_warmup_s = 2.0;
  cfg.scale_up_cooldown_s = 2.0;
  cfg.scale_down_cooldown_s = 10.0;
  cfg.scaling = {aptserve::ScalingRule::QueueDepth(/*high=*/4.0, /*low=*/0.5)};
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 8.0;
  cfg.cells.num_cells = 2;
  cfg.runtime.num_threads = 1;
  return cfg;
}

StatusOr<std::vector<Request>> BuildChatTrace(uint64_t seed, int32_t waves,
                                              int32_t conversations) {
  std::vector<Request> all;
  for (int32_t wave = 0; wave < waves; ++wave) {
    aptserve::Rng rng(seed * 7919 + static_cast<uint64_t>(wave));
    aptserve::SharedPrefixConfig c;
    c.system_prompt_len = 256;
    c.num_conversations = conversations;
    c.turns_per_conversation = 6;
    c.tokens_per_turn = 48;
    c.output_len_mean = 48;
    c.output_jitter = 0.5;
    c.think_time_s = 3.0 + 0.5 * rng.Uniform();
    c.conversation_stagger_s = 0.1 + 0.02 * rng.Uniform();
    c.seed = seed * 1000003 + static_cast<uint64_t>(wave);
    APT_ASSIGN_OR_RETURN(std::vector<Request> part,
                         aptserve::BuildSharedPrefixTrace(c));
    for (Request& r : part) {
      r.arrival += wave * kWaveGapS;
      all.push_back(std::move(r));
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (size_t i = 0; i < all.size(); ++i) all[i].id = static_cast<RequestId>(i);
  return all;
}

/// Bounds on the prefill positions each request can adopt from a prefix
/// index, from the trace's own token ids: a request can adopt the full
/// blocks it shares with some other request's prompt, plus less than one
/// block copied from a partially matching block; on a recompute pass it can
/// also adopt its own indexed prompt blocks.
std::unordered_map<RequestId, SkipBound> PrefixSkipBounds(
    const std::vector<Request>& trace, int32_t block_size) {
  std::vector<std::vector<uint64_t>> prefix_hash(trace.size());
  std::unordered_map<uint64_t, int32_t> holders;
  for (size_t i = 0; i < trace.size(); ++i) {
    const std::vector<int32_t>& ids = trace[i].token_ids;
    uint64_t h = 1469598103934665603ull;
    for (size_t p = 0; p < ids.size(); ++p) {
      h = (h ^ static_cast<uint64_t>(static_cast<uint32_t>(ids[p]))) *
          1099511628211ull;
      if ((p + 1) % block_size == 0) {
        prefix_hash[i].push_back(h);
        ++holders[h];
      }
    }
  }
  std::unordered_map<RequestId, SkipBound> bounds;
  for (size_t i = 0; i < trace.size(); ++i) {
    int32_t shared = 0;
    for (size_t k = 0; k < prefix_hash[i].size(); ++k) {
      if (holders[prefix_hash[i][k]] >= 2) shared = static_cast<int32_t>(k) + 1;
    }
    const int32_t len = trace[i].prompt_len;
    const int32_t own = static_cast<int32_t>(prefix_hash[i].size());
    SkipBound b;
    b.first_pass = std::min(len, shared * block_size + block_size - 1);
    b.repass = std::min(len, std::max(shared, own) * block_size + block_size - 1);
    bounds[trace[i].id] = b;
  }
  return bounds;
}

}  // namespace

StatusOr<WorkloadSpec> MakeSpec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "sim_sharegpt") {
    s.kind = Kind::kSim;
    s.profile = aptserve::DatasetProfile::ShareGpt();
    s.slo = {1.0, 1.0};
    s.replicas = 4;
    s.num_requests = 2000;
    s.ref_rate = 1.5;
    s.bisect_lo = 3.5;
    s.bisect_hi = 6.5;
    s.bisect_steps = 6;
  } else if (name == "sim_longbench") {
    s.kind = Kind::kSim;
    s.profile = aptserve::DatasetProfile::LongBench();
    s.slo = {4.0, 1.0};
    s.replicas = 12;
    s.num_requests = 1000;
    s.ref_rate = 0.35;
    s.bisect_lo = 0.4;
    s.bisect_hi = 1.2;
    s.bisect_steps = 7;
  } else if (name == "fleet_chat") {
    s.kind = Kind::kFleet;
    s.slo = {1.0, 1.0};
    s.replicas = 4;
    s.ref_rate = 6.0;
    // Prefix sharing keeps this fleet below 90% attainment at every rate
    // (README, fault a), so its effective throughput is read at the
    // paper's other threshold, 60%.
    s.attain_target = 0.6;
    s.bisect_lo = 6.0;
    s.bisect_hi = 16.0;
    s.bisect_steps = 7;
  } else if (name == "engine_burst") {
    // An offline burst: effective_rps is its goodput (requests meeting
    // both SLOs per virtual second of the burst), not a bisection.
    s.kind = Kind::kEngine;
    s.slo = {1.0, 0.2};
    s.replicas = 2;
    s.num_requests = 128;
    s.model = aptserve::ModelConfig::Small();
    s.model.max_seq_len = 256;
    s.engine_blocks = 800;
    s.engine_block_size = 8;
    s.engine_threads = static_cast<int32_t>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    s.rho_seconds_per_token = 2e-6;
    s.virtual_item_seconds = 1e-3;
  } else {
    return Status::InvalidArgument("unknown workload " + name);
  }
  return s;
}

StatusOr<Inputs> BuildInputs(const WorkloadSpec& spec, uint64_t seed,
                             double* trace_s) {
  Inputs in;
  const double t0 = WallSeconds();
  for (int32_t k = 0; k < spec.replicas; ++k) {
    const uint64_t replica_seed = seed * 1000003ull + static_cast<uint64_t>(k);
    Replica rep;
    switch (spec.kind) {
      case Kind::kSim: {
        aptserve::TraceConfig tc;
        tc.profile = spec.profile;
        tc.num_requests = spec.num_requests;
        tc.rate_per_sec = spec.ref_rate;
        tc.cv = 1.0;
        tc.seed = replica_seed;
        APT_ASSIGN_OR_RETURN(rep.trace, aptserve::BuildTrace(tc));
        for (const Request& r : rep.trace) {
          rep.shape.push_back(r.arrival * spec.ref_rate);
        }
        break;
      }
      case Kind::kFleet: {
        APT_ASSIGN_OR_RETURN(rep.trace, BuildChatTrace(replica_seed, 2, 150));
        const double rate =
            rep.trace.size() / std::max(1e-9, rep.trace.back().arrival);
        for (Request& r : rep.trace) {
          rep.shape.push_back(r.arrival * rate);
          r.arrival = rep.shape.back() / spec.ref_rate;
        }
        rep.skip_bounds = PrefixSkipBounds(rep.trace, kChatBlockSize);
        break;
      }
      case Kind::kEngine: {
        aptserve::Rng rng(replica_seed);
        double t = 0.0;
        for (int32_t i = 0; i < spec.num_requests; ++i) {
          Request r;
          r.id = i;
          r.prompt_len = static_cast<int32_t>(rng.UniformInt(16, 48));
          r.output_len = static_cast<int32_t>(rng.UniformInt(8, 24));
          r.token_ids.resize(r.prompt_len);
          for (int32_t& tok : r.token_ids) {
            tok = static_cast<int32_t>(
                rng.UniformInt(0, spec.model.vocab_size - 1));
          }
          r.arrival = 0.0;  // burst
          t += rng.Exponential(1.0);
          rep.shape.push_back(t);
          rep.trace.push_back(std::move(r));
        }
        break;
      }
    }
    in.replicas.push_back(std::move(rep));
  }
  *trace_s = WallSeconds() - t0;
  if (spec.kind == Kind::kEngine) {
    aptserve::RuntimeConfig rt;
    rt.num_threads = spec.engine_threads;
    in.engine = std::make_unique<aptserve::InferenceEngine>(
        spec.model, kWeightSeed, spec.engine_blocks, spec.engine_block_size,
        rt);
  }
  return in;
}

std::vector<Request> AtRate(const Replica& replica, double rate) {
  std::vector<Request> trace = replica.trace;
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].arrival = replica.shape[i] / rate;
  }
  return trace;
}

namespace {

/// Single-instance run: one ServingLoop over `backend`, optionally
/// decorated.
RunOutput ServeOne(const WorkloadSpec& spec,
                   const std::vector<Request>& trace,
                   aptserve::ExecutionBackend* backend,
                   std::function<int32_t()> index_blocks,
                   const aptserve::ModelConfig* flop_model,
                   Recorder* recorder) {
  RunOutput out;
  std::unique_ptr<aptserve::Scheduler> scheduler =
      std::make_unique<aptserve::AptScheduler>(AptFor(spec.slo));
  std::unique_ptr<ObservedBackend> observed;
  aptserve::ExecutionBackend* serving = backend;
  if (recorder != nullptr) {
    InstanceLog* log = recorder->AddInstance();
    scheduler = std::make_unique<ObservedScheduler>(std::move(scheduler), log,
                                                    recorder->traced());
    observed = std::make_unique<ObservedBackend>(
        nullptr, backend, log, recorder->traced(), index_blocks, flop_model,
        nullptr);
    serving = observed.get();
  }
  aptserve::ServingLoop loop(serving, aptserve::ServingLoopConfig{});
  const double t0 = WallSeconds();
  auto result = loop.Run(trace, scheduler.get(), spec.slo);
  out.wall_s = WallSeconds() - t0;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.report = std::move(result->report);
  out.records = std::move(result->records);
  out.tokens_generated = result->tokens_generated;
  out.prefill_computed = result->prefill_tokens_computed;
  out.prefill_skipped = result->prefill_tokens_skipped;
  out.prefix = result->prefix;
  out.leftover_blocks = backend->pool()->num_allocated() -
                        (index_blocks ? index_blocks() : 0);
  return out;
}

}  // namespace

RunOutput Serve(const WorkloadSpec& spec, aptserve::InferenceEngine* engine,
                const Replica& replica, const std::vector<Request>& trace,
                Recorder* recorder) {
  switch (spec.kind) {
    case Kind::kSim: {
      auto backend = CostModelBackend::Create(Opt13bCostModel(),
                                              CostModelBackend::Options{});
      if (!backend.ok()) {
        RunOutput out;
        out.status = backend.status();
        return out;
      }
      return ServeOne(spec, trace, backend->get(), nullptr, nullptr, recorder);
    }
    case Kind::kEngine: {
      aptserve::InferenceBackendOptions o;
      o.virtual_timing = true;
      o.virtual_item_seconds = spec.virtual_item_seconds;
      o.rho_seconds_per_token = spec.rho_seconds_per_token;
      aptserve::InferenceBackend backend(engine, o);
      RunOutput out =
          ServeOne(spec, trace, &backend, nullptr, &spec.model, recorder);
      out.tokens = backend.TakeFinishedTokens();
      return out;
    }
    case Kind::kFleet:
      break;
  }

  RunOutput out;
  out.is_fleet = true;
  const CostModel cm = Opt13bCostModel();
  CostModelBackend::Options opts;
  opts.block_size = kChatBlockSize;
  opts.enable_prefix_sharing = true;
  const aptserve::AptConfig apt = AptFor(spec.slo);
  const bool traced = recorder != nullptr && recorder->traced();
  aptserve::SchedulerFactory make_scheduler =
      [&]() -> std::unique_ptr<aptserve::Scheduler> {
    auto s = std::make_unique<aptserve::AptScheduler>(apt);
    if (recorder == nullptr) return s;
    return std::make_unique<ObservedScheduler>(std::move(s),
                                               recorder->AddInstance(), traced);
  };
  aptserve::BackendFactory make_backend = [&](int32_t)
      -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
    APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> b,
                         CostModelBackend::Create(cm, opts));
    if (recorder == nullptr) {
      return std::unique_ptr<aptserve::ExecutionBackend>(std::move(b));
    }
    const CostModelBackend* raw = b.get();
    auto index_blocks = [raw] {
      return raw->prefix_index() ? raw->prefix_index()->indexed_blocks() : 0;
    };
    return std::unique_ptr<aptserve::ExecutionBackend>(
        std::make_unique<ObservedBackend>(std::move(b), nullptr,
                                          recorder->last(), traced,
                                          index_blocks, nullptr,
                                          &replica.skip_bounds));
  };
  aptserve::FleetController controller(ChatFleetConfig(), &cm);
  const double t0 = WallSeconds();
  auto result = controller.Run(trace, make_scheduler, make_backend, spec.slo);
  out.wall_s = WallSeconds() - t0;
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.report = std::move(result->serve.combined);
  out.tokens_generated = result->serve.tokens_generated;
  out.prefill_computed = result->serve.prefill_tokens_computed;
  out.prefill_skipped = result->serve.prefill_tokens_skipped;
  out.prefix = result->serve.prefix;
  out.fleet = std::move(result->fleet);
  out.route = result->serve.route_cost;
  return out;
}

void Accumulate(const RunOutput& part, RunOutput* total) {
  total->wall_s += part.wall_s;
  total->tokens_generated += part.tokens_generated;
  total->prefill_computed += part.prefill_computed;
  total->prefill_skipped += part.prefill_skipped;
  aptserve::PrefixStats& p = total->prefix;
  p.lookups += part.prefix.lookups;
  p.hits += part.prefix.hits;
  p.matched_tokens += part.prefix.matched_tokens;
  p.shared_blocks += part.prefix.shared_blocks;
  p.cow_matches += part.prefix.cow_matches;
  p.inserted_blocks += part.prefix.inserted_blocks;
  p.evicted_blocks += part.prefix.evicted_blocks;
  total->is_fleet = part.is_fleet;
  aptserve::FleetMetrics& f = total->fleet;
  f.ticks += part.fleet.ticks;
  f.migrations += part.fleet.migrations;
  f.migrations_with_cache += part.fleet.migrations_with_cache;
  f.cold_starts += part.fleet.cold_starts;
  f.instance_seconds += part.fleet.instance_seconds;
  f.peak_instances = std::max(f.peak_instances, part.fleet.peak_instances);
  aptserve::RouteCostStats& r = total->route;
  r.decisions += part.route.decisions;
  r.instance_probes += part.route.instance_probes;
  r.mirror_nodes_walked += part.route.mirror_nodes_walked;
  r.cell_probes += part.route.cell_probes;
  r.cell_fallback_routed += part.route.cell_fallback_routed;
  total->report.preemptions += part.report.preemptions;
  total->report.conversions += part.report.conversions;
  total->report.total_serving_time += part.report.total_serving_time;
  total->report.eligible_requests += part.report.eligible_requests;
  total->report.slo_met_requests += part.report.slo_met_requests;
}

namespace {

class Hasher {
 public:
  template <typename T>
  void Add(const T& v) {
    const unsigned char* p = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(T); ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  void AddSorted(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    Add(v.size());
    for (double x : v) Add(x);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

template <typename Map>
std::vector<RequestId> SortedIds(const Map& m) {
  std::vector<RequestId> ids;
  ids.reserve(m.size());
  for (const auto& kv : m) ids.push_back(kv.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

Fingerprint FingerprintOf(const RunOutput& out) {
  Fingerprint fp;
  {
    Hasher h;
    for (RequestId id : SortedIds(out.tokens)) {
      h.Add(id);
      for (int32_t t : out.tokens.at(id)) h.Add(t);
    }
    for (RequestId id : SortedIds(out.records)) {
      const aptserve::RequestRecord& rec = out.records.at(id);
      h.Add(id);
      h.Add(rec.ttft);
      h.Add(rec.finish_time);
      for (double g : rec.tbt_samples) h.Add(g);
    }
    h.Add(out.tokens_generated);
    fp.tokens = h.value();
  }
  {
    const aptserve::SloReport& r = out.report;
    Hasher h;
    for (double v : {r.slo_attainment, r.ttft_attainment, r.tbt_attainment,
                     r.batch_limit_time_ratio, r.total_serving_time,
                     r.mean_batch_size, r.mean_ttft, r.p99_ttft,
                     r.jain_fairness_ttft, r.goodput_rps}) {
      h.Add(v);
    }
    for (int64_t v : {r.iterations, r.preemptions, r.conversions,
                      r.eligible_requests, r.slo_met_requests,
                      r.best_effort_requests, r.rejected_requests,
                      out.prefill_computed, out.prefill_skipped,
                      out.prefix.lookups, out.prefix.hits,
                      out.prefix.matched_tokens, out.prefix.shared_blocks,
                      out.prefix.cow_matches, out.prefix.inserted_blocks,
                      out.prefix.evicted_blocks}) {
      h.Add(v);
    }
    h.AddSorted(r.ttfts.samples());
    h.AddSorted(r.p99_tbts.samples());
    fp.report = h.value();
  }
  {
    const aptserve::FleetMetrics& f = out.fleet;
    Hasher h;
    for (const aptserve::FleetScaleEvent& e : f.scale_events) {
      h.Add(e.time);
      h.Add(e.instance);
      h.Add(static_cast<int32_t>(e.kind));
    }
    for (const auto& [t, n] : f.size_timeline) {
      h.Add(t);
      h.Add(n);
    }
    for (int64_t v : {f.ticks, f.migrations, f.migrations_with_cache,
                      f.migration_deduped_tokens, f.migration_copied_tokens,
                      f.cross_cell_migrations,
                      static_cast<int64_t>(f.peak_instances),
                      static_cast<int64_t>(f.cold_starts),
                      static_cast<int64_t>(f.num_cells)}) {
      h.Add(v);
    }
    for (double v : {f.migration_bytes, f.migration_seconds,
                     f.instance_seconds, f.cross_cell_migration_bytes}) {
      h.Add(v);
    }
    for (int32_t c : f.instance_cell) h.Add(c);
    const aptserve::RouteCostStats& rc = out.route;
    for (int64_t v : {rc.decisions, rc.instance_probes, rc.mirror_nodes_walked,
                      rc.mirror_nodes, rc.mirror_node_peak,
                      rc.mirror_evictions, rc.cell_probes, rc.cell_hash_routed,
                      rc.cell_fallback_routed}) {
      h.Add(v);
    }
    fp.fleet = h.value();
  }
  return fp;
}

StatusOr<std::unordered_map<RequestId, std::vector<int32_t>>> ReferenceTokens(
    const WorkloadSpec& spec, const std::vector<Request>& trace) {
  const int32_t bs = spec.engine_block_size;
  const int32_t blocks = 2 * ((spec.model.max_seq_len + bs - 1) / bs) + 2;
  aptserve::InferenceEngine engine(spec.model, kWeightSeed, blocks, bs);
  std::unordered_map<RequestId, std::vector<int32_t>> tokens;
  for (const Request& r : trace) {
    APT_RETURN_NOT_OK(
        engine.AddRequest(r.id, r.token_ids, aptserve::CacheType::kKV));
    APT_ASSIGN_OR_RETURN(tokens[r.id], engine.Generate(r.id, r.output_len));
    APT_RETURN_NOT_OK(engine.RemoveRequest(r.id));
  }
  return tokens;
}

// ---- Fault reproductions ----------------------------------------------------

namespace {

int ReproSharing() {
  // fleet_chat's fleet on its 1,800-request chat trace, prefix sharing on
  // versus off, at the trace's own timing and re-timed to lower rates.
  auto built = BuildChatTrace(/*seed=*/1, /*waves=*/2, /*conversations=*/150);
  if (!built.ok()) return 1;
  const CostModel cm = Opt13bCostModel();
  const aptserve::SloSpec slo{1.0, 1.0};
  const double native = built->size() / built->back().arrival;
  std::printf("%-8s %8s %9s %11s %10s %12s\n", "sharing", "rate", "attain",
              "ttft_p99_s", "peak_inst", "instance_s");
  for (double rate : {native, 8.0, 4.0, 2.0}) {
    std::vector<Request> trace = *built;
    for (Request& r : trace) r.arrival *= native / rate;
    for (bool sharing : {true, false}) {
      CostModelBackend::Options opts;
      opts.block_size = kChatBlockSize;
      opts.enable_prefix_sharing = sharing;
      aptserve::FleetController controller(ChatFleetConfig(), &cm);
      auto r = controller.Run(
          trace,
          [&] { return std::make_unique<aptserve::AptScheduler>(AptFor(slo)); },
          [&](int32_t)
              -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
            APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> b,
                                 CostModelBackend::Create(cm, opts));
            return std::unique_ptr<aptserve::ExecutionBackend>(std::move(b));
          },
          slo);
      if (!r.ok()) {
        std::printf("%-8s %8.2f error: %s\n", sharing ? "on" : "off", rate,
                    r.status().ToString().c_str());
        continue;
      }
      std::printf("%-8s %8.2f %9.3f %11.3f %10d %12.1f\n",
                  sharing ? "on" : "off", rate,
                  r->serve.combined.slo_attainment,
                  r->serve.combined.ttfts.Quantile(0.99),
                  r->fleet.peak_instances, r->fleet.instance_seconds);
    }
  }
  return 0;
}

int ReproAptSarathi() {
  // Apt-S versus Apt with prefix sharing on 400-request shared-prefix
  // traces: the generator's defaults (50 conversations of 8 turns) on one
  // instance, and fleet_chat's chat shape on one instance and on its fleet.
  const aptserve::SloSpec slo{1.0, 1.0};
  const CostModel cm = Opt13bCostModel();
  aptserve::SharedPrefixConfig c;
  c.num_conversations = 50;
  c.turns_per_conversation = 8;
  auto defaults = aptserve::BuildSharedPrefixTrace(c);
  auto chat = BuildChatTrace(/*seed=*/1, /*waves=*/1, /*conversations=*/67);
  if (!defaults.ok() || !chat.ok()) return 1;
  chat->resize(400);
  auto make_scheduler = [&](bool apt_s) -> std::unique_ptr<aptserve::Scheduler> {
    if (!apt_s) return std::make_unique<aptserve::AptScheduler>(AptFor(slo));
    aptserve::AptSarathiConfig ac;
    ac.slo = slo;
    return std::make_unique<aptserve::AptSarathiScheduler>(ac);
  };
  CostModelBackend::Options opts;
  opts.block_size = kChatBlockSize;
  opts.enable_prefix_sharing = true;
  std::printf("%-22s %-6s %9s %8s %s\n", "trace", "sched", "wall_s",
              "attain", "status");
  for (int which = 0; which < 3; ++which) {
    const std::vector<Request>& trace = which == 0 ? *defaults : *chat;
    const char* label = which == 0   ? "defaults, 1 instance"
                        : which == 1 ? "chat, 1 instance"
                                     : "chat, fleet_chat fleet";
    for (bool apt_s : {true, false}) {
      const double t0 = WallSeconds();
      aptserve::Status status;
      double attain = 0.0;
      if (which < 2) {
        auto backend = CostModelBackend::Create(cm, opts);
        if (!backend.ok()) return 1;
        auto sched = make_scheduler(apt_s);
        aptserve::ServingLoop loop(backend->get(), aptserve::ServingLoopConfig{});
        auto r = loop.Run(trace, sched.get(), slo);
        status = r.status();
        if (r.ok()) attain = r->report.slo_attainment;
      } else {
        aptserve::FleetController controller(ChatFleetConfig(), &cm);
        auto r = controller.Run(
            trace, [&] { return make_scheduler(apt_s); },
            [&](int32_t)
                -> StatusOr<std::unique_ptr<aptserve::ExecutionBackend>> {
              APT_ASSIGN_OR_RETURN(std::unique_ptr<CostModelBackend> b,
                                   CostModelBackend::Create(cm, opts));
              return std::unique_ptr<aptserve::ExecutionBackend>(std::move(b));
            },
            slo);
        status = r.status();
        if (r.ok()) attain = r->serve.combined.slo_attainment;
      }
      std::printf("%-22s %-6s %9.2f %8.3f %s\n", label, apt_s ? "Apt-S" : "Apt",
                  WallSeconds() - t0, attain,
                  status.ok() ? "ok" : status.ToString().c_str());
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace

int RunRepro(const std::string& name) {
  if (name == "prefix_sharing_fleet") return ReproSharing();
  if (name == "apt_s_prefix_sharing") return ReproAptSarathi();
  std::fprintf(stderr, "unknown reproduction %s\n", name.c_str());
  return 2;
}

}  // namespace perfbench
