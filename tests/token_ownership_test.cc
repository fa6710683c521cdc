// Who owns a request's prompt token ids: on each instance only the
// execution backend, and only while the request is live there. The serving
// loop hands them over on Prepare/Admit and keeps none in its request
// state; metrics records keep none; the backend drops them when the
// request finishes or is exported, and a migration carries the trace's
// own ids in the MigrationImage (never a fresh synthesis).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/fcfs_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "serve/cost_model_backend.h"
#include "serve/inference_backend.h"
#include "serve/fleet_controller.h"
#include "serve/serving_loop.h"
#include "workload/shared_prefix.h"

namespace aptserve {
namespace {

CostModel Opt13() {
  const ModelSpec m = ModelSpec::Opt13B();
  return CostModel(m, ClusterSpec::ForModel(m));
}

std::vector<Request> ChatTrace() {
  SharedPrefixConfig wc;
  wc.system_prompt_len = 32;
  wc.num_conversations = 24;
  wc.turns_per_conversation = 4;
  wc.tokens_per_turn = 16;
  wc.output_len_mean = 8;
  wc.think_time_s = 0.5;
  wc.conversation_stagger_s = 0.01;
  wc.vocab_size = 1000;
  wc.seed = 3;
  auto trace = BuildSharedPrefixTrace(wc);
  EXPECT_TRUE(trace.ok());
  return *trace;
}

std::unique_ptr<CostModelBackend> SharingBackend(const CostModel& cm) {
  CostModelBackend::Options o;
  o.block_size = 4;
  o.pool_blocks_override = 256;  // small: queues form, migrations happen
  o.enable_prefix_sharing = true;
  o.token_vocab = 1000;
  auto backend = CostModelBackend::Create(cm, o);
  EXPECT_TRUE(backend.ok());
  return std::move(*backend);
}

/// Ownership violations seen by the probes (instances may step on
/// different threads).
struct Violations {
  std::atomic<int64_t> loop_copy_with_ids{0};   ///< sr carried ids after Admit
  std::atomic<int64_t> kept_after_finish{0};
  std::atomic<int64_t> kept_after_export{0};
  std::atomic<int64_t> image_not_trace_ids{0};  ///< exported or imported
  std::atomic<int64_t> live_at_finalize{0};     ///< ids held when drained
  std::atomic<int64_t> exports{0};
  std::atomic<int64_t> imports{0};
};

/// Forwards every call to a CostModelBackend and checks the ownership rule
/// around it.
class OwnershipProbe : public ExecutionBackend {
 public:
  OwnershipProbe(std::unique_ptr<CostModelBackend> inner,
                 const std::unordered_map<RequestId, std::vector<int32_t>>* ids,
                 Violations* v)
      : inner_(std::move(inner)), ids_(ids), v_(v) {}

  std::string name() const override { return inner_->name(); }
  Status Prepare(const std::vector<SimRequest>& reqs) override {
    return inner_->Prepare(reqs);
  }
  Status Admit(const SimRequest& sr) override { return inner_->Admit(sr); }
  StatusOr<MigrationImage> ExportRequest(const SimRequest& sr) override {
    Check(sr);
    auto image = inner_->ExportRequest(sr);
    if (image.ok()) {
      ++v_->exports;
      if (inner_->HoldsTokenIds(sr.spec.id)) ++v_->kept_after_export;
      CheckImage(sr.spec.id, *image);
    }
    return image;
  }
  StatusOr<MigrationImport> ImportRequest(
      const SimRequest& sr, const MigrationImage& image) override {
    Check(sr);
    ++v_->imports;
    CheckImage(sr.spec.id, image);
    return inner_->ImportRequest(sr, image);
  }
  const BlockPool* pool() const override { return inner_->pool(); }
  const HybridCacheAssigner* assigner() const override {
    return inner_->assigner();
  }
  const CostModel* cost_model() const override { return inner_->cost_model(); }
  void BeginIteration() override { inner_->BeginIteration(); }
  StatusOr<double> EndIteration() override { return inner_->EndIteration(); }
  double IdleAdvanceSeconds() const override {
    return inner_->IdleAdvanceSeconds();
  }
  Status Release(const SimRequest& sr) override {
    Check(sr);
    return inner_->Release(sr);
  }
  Status Convert(const SimRequest& sr, CacheType new_type) override {
    Check(sr);
    return inner_->Convert(sr, new_type);
  }
  StatusOr<bool> TrySwapOut(const SimRequest& sr) override {
    Check(sr);
    return inner_->TrySwapOut(sr);
  }
  StatusOr<bool> TrySwapIn(const SimRequest& sr) override {
    Check(sr);
    return inner_->TrySwapIn(sr);
  }
  StatusOr<StepOutcome> ExecutePrefillChunk(const SimRequest& sr,
                                            CacheType cache_type,
                                            int32_t chunk) override {
    Check(sr);
    return inner_->ExecutePrefillChunk(sr, cache_type, chunk);
  }
  StatusOr<StepOutcome> ExecuteDecode(const SimRequest& sr) override {
    Check(sr);
    return inner_->ExecuteDecode(sr);
  }
  Status OnFinish(const SimRequest& sr) override {
    Check(sr);
    Status st = inner_->OnFinish(sr);
    if (inner_->HoldsTokenIds(sr.spec.id)) ++v_->kept_after_finish;
    return st;
  }
  Status Finalize() override {
    v_->live_at_finalize += inner_->requests_with_token_ids();
    return inner_->Finalize();
  }
  const PrefixStats* prefix_stats() const override {
    return inner_->prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override {
    return inner_->ReclaimCache(min_blocks);
  }

 private:
  void Check(const SimRequest& sr) {
    if (sr.spec.has_token_ids()) ++v_->loop_copy_with_ids;
  }
  void CheckImage(RequestId id, const MigrationImage& image) {
    const std::vector<int32_t>& want = ids_->at(id);
    if (image.prompt_len != static_cast<int32_t>(want.size()) ||
        image.tokens.size() < want.size() ||
        !std::equal(want.begin(), want.end(), image.tokens.begin())) {
      ++v_->image_not_trace_ids;
    }
  }

  std::unique_ptr<CostModelBackend> inner_;
  const std::unordered_map<RequestId, std::vector<int32_t>>* ids_;
  Violations* v_;
};

TEST(TokenOwnershipTest, MigratingPrefixSharingFleetKeepsOneOwner) {
  const CostModel cm = Opt13();
  const std::vector<Request> trace = ChatTrace();
  std::unordered_map<RequestId, std::vector<int32_t>> ids;
  for (const Request& r : trace) ids[r.id] = r.token_ids;

  FleetConfig cfg;
  cfg.router.n_instances = 3;
  cfg.router.policy = RoutePolicy::kPrefixAffinity;
  cfg.router.block_size = 4;
  cfg.min_instances = 1;
  cfg.tick_interval_s = 0.25;
  cfg.scale_down_cooldown_s = 0.5;
  // Votes down every tick: drains evacuate queued requests by migration.
  cfg.scaling = {ScalingRule::QueueDepth(/*high=*/1e18, /*low=*/1e18)};
  cfg.enable_migration = true;
  cfg.migration_imbalance_threshold = 0.0;
  cfg.max_migrations_per_tick = 16;
  Violations v;
  BackendFactory make_backend =
      [&](int32_t) -> StatusOr<std::unique_ptr<ExecutionBackend>> {
    return std::unique_ptr<ExecutionBackend>(
        std::make_unique<OwnershipProbe>(SharingBackend(cm), &ids, &v));
  };
  // Chunked prefill leaves queued requests holding partial caches, so some
  // migrations carry cache and re-resolve it through the destination index.
  SarathiConfig sarathi;
  sarathi.chunk_size = 8;
  auto result = FleetController(cfg, &cm).Run(
      trace, [&] { return std::make_unique<SarathiScheduler>(sarathi); },
      make_backend, SloSpec{5.0, 5.0});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The run exercised what the rule is about.
  EXPECT_GT(result->fleet.migrations, 0);
  EXPECT_GT(result->fleet.migrations_with_cache, 0);
  EXPECT_GT(result->serve.prefix.hits, 0);
  EXPECT_EQ(v.exports.load(), result->fleet.migrations);
  EXPECT_EQ(v.imports.load(), result->fleet.migrations);
  EXPECT_EQ(result->serve.combined.eligible_requests,
            static_cast<int64_t>(trace.size()));

  EXPECT_EQ(v.loop_copy_with_ids.load(), 0);
  EXPECT_EQ(v.kept_after_finish.load(), 0);
  EXPECT_EQ(v.kept_after_export.load(), 0);
  EXPECT_EQ(v.image_not_trace_ids.load(), 0);
  EXPECT_EQ(v.live_at_finalize.load(), 0);
}

/// Serves `trace` on two loops, moving half of the source's first queue
/// of at least four migratable requests to the destination, and checks
/// the ownership rule on every extracted request and on every record.
/// `holds(backend, id)` reports whether a backend still holds id's token
/// ids.
template <typename Backend, typename Holds>
void ServeWithMigration(const std::vector<Request>& trace,
                        Backend* src_backend, Backend* dst_backend,
                        Scheduler* src_sched, Scheduler* dst_sched,
                        const Holds& holds) {
  std::unordered_map<RequestId, const Request*> by_id;
  for (const Request& r : trace) by_id[r.id] = &r;
  ServingLoopState src(src_backend, {});
  ServingLoopState dst(dst_backend, {});
  const SloSpec slo{30.0, 30.0};
  EXPECT_TRUE(src.Start(trace, src_sched, slo).ok());
  EXPECT_TRUE(dst.Start({}, dst_sched, slo).ok());

  std::vector<RequestId> movable;
  while (movable.size() < 4 && !src.AllServed()) {
    EXPECT_TRUE(src.Step().ok());
    movable = src.MigratableWaiting();
  }
  EXPECT_GE(movable.size(), 4u);
  movable.resize(movable.size() / 2);
  for (RequestId id : movable) {
    auto m = src.Extract(id);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    if (!m.ok()) return;
    EXPECT_FALSE(m->spec.has_token_ids());
    EXPECT_FALSE(m->record.spec.has_token_ids());
    const std::vector<int32_t>& want = by_id.at(id)->token_ids;
    EXPECT_EQ(m->image.prompt_len, static_cast<int32_t>(want.size()));
    EXPECT_TRUE(m->image.tokens.size() >= want.size() &&
                std::equal(want.begin(), want.end(), m->image.tokens.begin()))
        << "request " << id << " migrated without its trace ids";
    EXPECT_FALSE(holds(*src_backend, id));
    EXPECT_TRUE(dst.Receive(std::move(*m), src.now()).ok());
    EXPECT_TRUE(holds(*dst_backend, id));
  }
  while (!src.AllServed()) EXPECT_TRUE(src.Step().ok());
  while (!dst.AllServed()) EXPECT_TRUE(dst.Step().ok());
  auto src_result = src.Finish();
  auto dst_result = dst.Finish();
  EXPECT_TRUE(src_result.ok()) << src_result.status().ToString();
  EXPECT_TRUE(dst_result.ok()) << dst_result.status().ToString();
  if (!src_result.ok() || !dst_result.ok()) return;

  EXPECT_EQ(src_result->records.size() + dst_result->records.size(),
            trace.size());
  EXPECT_EQ(dst_result->records.size(), movable.size());
  for (const auto* result : {&*src_result, &*dst_result}) {
    for (const auto& [id, record] : result->records) {
      EXPECT_FALSE(record.spec.has_token_ids()) << "request " << id;
      EXPECT_EQ(record.spec.prompt_len, by_id.at(id)->prompt_len);
    }
  }
  for (const Request& r : trace) {
    EXPECT_FALSE(holds(*src_backend, r.id)) << "request " << r.id;
    EXPECT_FALSE(holds(*dst_backend, r.id)) << "request " << r.id;
  }
}

// Records (including a migrated request's) and the loop's request state
// hold no token ids; each backend drops them as requests leave.
TEST(TokenOwnershipTest, RecordsAndMigratedRequestsHoldNoTokenIds) {
  const CostModel cm = Opt13();
  auto src = SharingBackend(cm);
  auto dst = SharingBackend(cm);
  FcfsScheduler src_sched, dst_sched;
  ServeWithMigration(ChatTrace(), src.get(), dst.get(), &src_sched,
                     &dst_sched,
                     [](const CostModelBackend& b, RequestId id) {
                       return b.HoldsTokenIds(id);
                     });
  EXPECT_EQ(src->requests_with_token_ids(), 0);
  EXPECT_EQ(dst->requests_with_token_ids(), 0);
}

// The engine backend's ids live in its per-request generation state, which
// it drops on export and on finish.
TEST(TokenOwnershipTest, EngineBackendDropsExportedAndFinishedRequests) {
  SharedPrefixConfig wc;
  wc.system_prompt_len = 12;
  wc.num_conversations = 6;
  wc.turns_per_conversation = 3;
  wc.tokens_per_turn = 8;
  wc.output_len_mean = 4;
  wc.think_time_s = 0.05;
  wc.conversation_stagger_s = 0.0;
  wc.vocab_size = 60;  // inside Tiny's 64-token vocabulary
  wc.seed = 9;
  auto trace = BuildSharedPrefixTrace(wc);
  ASSERT_TRUE(trace.ok());
  InferenceBackendOptions o;
  o.virtual_timing = true;
  o.enable_prefix_sharing = true;
  const auto make = [&o] {
    return std::make_unique<InferenceBackend>(ModelConfig::Tiny(), 42,
                                              /*num_blocks=*/64,
                                              /*block_size=*/4,
                                              SamplingParams{}, o);
  };
  auto src = make();
  auto dst = make();
  SarathiConfig sarathi;
  sarathi.chunk_size = 8;
  SarathiScheduler src_sched(sarathi), dst_sched(sarathi);
  ServeWithMigration(*trace, src.get(), dst.get(), &src_sched, &dst_sched,
                     [](InferenceBackend& b, RequestId id) {
                       return b.engine().Find(id) != nullptr;
                     });
}

}  // namespace
}  // namespace aptserve
