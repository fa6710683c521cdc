// Sweep harness (bench/sweep/): matrix expansion, the --resume contract
// (skip on matching meta.json, rerun on any config change), run-directory
// layout, runs.csv row conservation, and report rendering.
#include "bench/sweep/config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "bench/sweep/collect.h"
#include "bench/sweep/fs_util.h"
#include "bench/sweep/report.h"
#include "bench/sweep/runner.h"
#include "common/json.h"

namespace aptserve {
namespace sweep {
namespace {

SweepConfig TinyConfig(const std::string& out_root) {
  SweepConfig config;
  config.name = "tiny";
  config.out_root = out_root;
  config.jobs = 2;
  config.base.num_requests = 8;
  config.base.n_instances = 2;
  config.matrix.schedulers = {"vLLM", "Apt"};
  config.matrix.router_policies = {"round-robin"};
  config.matrix.admission = {"none"};
  config.matrix.prefix_sharing = {false};
  config.matrix.seeds = {7};
  config.matrix.rates = {2.0};
  return config;
}

SweepOptions Quiet() {
  SweepOptions options;
  options.verbose = false;
  return options;
}

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/aptserve_sweep_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    out_root_ = tmpl;
  }
  void TearDown() override {
    // Best-effort cleanup; test dirs are tiny.
    const std::string cmd = "rm -rf '" + out_root_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string out_root_;
};

TEST(SweepConfigTest, ExpandMatrixIsFullCartesianProductInStableOrder) {
  SweepConfig config = TinyConfig("unused");
  config.matrix.schedulers = {"vLLM", "Apt"};
  config.matrix.router_policies = {"round-robin", "least-loaded"};
  config.matrix.admission = {"none", "reject"};
  config.matrix.prefix_sharing = {false, true};
  config.matrix.seeds = {1, 2, 3};
  config.matrix.rates = {0.5, 1.0};
  Ablation no_hedge;
  no_hedge.name = "baseline";
  no_hedge.overrides = json::JsonValue::Object();
  config.ablations.push_back(no_hedge);
  Ablation bigger;
  bigger.name = "more-instances";
  bigger.overrides = json::JsonValue::Object();
  bigger.overrides.Set("n_instances", json::JsonValue::Int(3));
  config.ablations.push_back(bigger);

  auto cells = ExpandMatrix(config);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_EQ(cells->size(), 2u * 2 * 2 * 2 * 2 * 3 * 2);
  // Deterministic order: seed is the innermost axis.
  EXPECT_EQ((*cells)[0].seed, 1u);
  EXPECT_EQ((*cells)[1].seed, 2u);
  EXPECT_EQ((*cells)[2].seed, 3u);
  // The ablation override resolved into the cell params.
  EXPECT_EQ(cells->front().params.n_instances, 2);
  EXPECT_EQ(cells->back().params.n_instances, 3);
  EXPECT_EQ(cells->back().ablation, "more-instances");
  // Run ids are unique and filesystem-safe.
  std::set<std::string> ids;
  for (const RunCell& cell : *cells) {
    EXPECT_TRUE(ids.insert(cell.run_id).second) << cell.run_id;
    EXPECT_EQ(cell.run_id.find('/'), std::string::npos);
    EXPECT_EQ(cell.run_id.find('*'), std::string::npos) << cell.run_id;
  }
}

TEST(SweepConfigTest, StrictParsingRejectsTyposAndBadNames) {
  const auto expect_bad = [](const std::string& text) {
    auto doc = json::ParseJson(text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_FALSE(ParseSweepConfig(*doc).ok()) << text;
  };
  expect_bad(R"({"name":"x","out_root":"o","basee":{}})");
  expect_bad(R"({"name":"x","out_root":"o","base":{"num_request":4}})");
  expect_bad(R"({"name":"x","out_root":"o","matrix":{"schedulers":["nope"]}})");
  expect_bad(
      R"({"name":"x","out_root":"o","matrix":{"router_policies":["rr"]}})");
  expect_bad(R"({"name":"x","out_root":"o","matrix":{"rates":[]}})");
  expect_bad(R"({"name":"x","out_root":"o","base":{"workload":"zipf"}})");
  expect_bad(
      R"({"name":"x","out_root":"o","ablations":[{"name":"a","extra":1}]})");

  auto good = json::ParseJson(
      R"({"name":"x","out_root":"o","matrix":{"schedulers":["Apt"]}})");
  ASSERT_TRUE(good.ok());
  auto config = ParseSweepConfig(*good);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  // A default baseline ablation materializes when none are given.
  ASSERT_EQ(config->ablations.size(), 1u);
  EXPECT_EQ(config->ablations[0].name, "baseline");
}

TEST_F(SweepTest, RunsProduceMetaAndResultPerCell) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->planned, 2);
  EXPECT_EQ(run->executed, 2);
  EXPECT_EQ(run->skipped, 0);
  EXPECT_EQ(run->failed, 0);

  auto cells = ExpandMatrix(config);
  ASSERT_TRUE(cells.ok());
  for (const RunCell& cell : *cells) {
    const std::string run_dir = run->exp_dir + "/runs/" + cell.run_id;
    auto meta = json::ParseJsonFile(run_dir + "/meta.json");
    ASSERT_TRUE(meta.ok()) << run_dir;
    // The recorded cell is exactly the expansion's resume key, and the
    // environment stamp is present.
    const json::JsonValue* recorded = meta->Find("cell");
    ASSERT_NE(recorded, nullptr);
    EXPECT_TRUE(*recorded == cell.Key());
    ASSERT_NE(meta->Find("environment"), nullptr);
    EXPECT_NE(meta->Find("environment")->GetString("runtime", ""), "");

    auto result = json::ParseJsonFile(run_dir + "/result.json");
    ASSERT_TRUE(result.ok()) << run_dir;
    EXPECT_EQ(result->GetInt("requests", -1), 8);
    EXPECT_GT(result->GetNumber("total_serving_time_s", 0.0), 0.0);
    ASSERT_NE(result->Find("ttft_cdf"), nullptr);
    EXPECT_FALSE(result->Find("ttft_cdf")->items().empty());
  }
}

TEST_F(SweepTest, ResumeSkipsCellsWhoseMetaMatches) {
  const SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->executed, 2);

  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 0);
  EXPECT_EQ(second->skipped, 2);
  EXPECT_EQ(second->failed, 0);
}

TEST_F(SweepTest, ResumeRerunsCellsWhenConfigChanges) {
  SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Any resolved-params change invalidates every cell it touches — here
  // all of them (the trace gets longer).
  config.base.num_requests = 12;
  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 2);
  EXPECT_EQ(second->skipped, 0);

  // And without resume, everything always reruns.
  auto third = RunSweep(config, Quiet());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->executed, 2);
}

TEST_F(SweepTest, ResumeRerunsCellsMissingResults) {
  const SweepConfig config = TinyConfig(out_root_);
  auto first = RunSweep(config, Quiet());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Simulate a cell that died after writing meta.json: stale, must rerun.
  const std::string victim =
      first->exp_dir + "/runs/" + first->outcomes[0].run_id + "/result.json";
  ASSERT_EQ(std::remove(victim.c_str()), 0);

  SweepOptions resume = Quiet();
  resume.resume = true;
  auto second = RunSweep(config, resume);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->executed, 1);
  EXPECT_EQ(second->skipped, 1);
}

TEST_F(SweepTest, RunsCsvConservesOneRowPerFinishedCell) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto runs = CollectAndWriteCsv(run->exp_dir);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(static_cast<int64_t>(runs->size()), run->executed);

  std::ifstream csv(run->exp_dir + "/aggregate/runs.csv");
  ASSERT_TRUE(csv.good());
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, RunsCsvHeader());
  const size_t header_cols = 1 + std::count(line.begin(), line.end(), ',');
  int64_t rows = 0;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(1 + std::count(line.begin(), line.end(), ','), header_cols)
        << line;
  }
  EXPECT_EQ(rows, run->executed);
}

TEST_F(SweepTest, ReportIsSelfContainedHtmlWithSvgPlots) {
  const SweepConfig config = TinyConfig(out_root_);
  auto run = RunSweep(config, Quiet());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto runs = CollectRuns(run->exp_dir);
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();

  const std::string html = RenderReportHtml(config.name, *runs);
  EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("SLO attainment vs. request rate"), std::string::npos);
  EXPECT_NE(html.find("TTFT CDF"), std::string::npos);
  // Both schedulers appear as series.
  EXPECT_NE(html.find("Apt"), std::string::npos);
  EXPECT_NE(html.find("vLLM"), std::string::npos);
  // Self-contained: no external scripts or stylesheets.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("<link"), std::string::npos);

  ASSERT_TRUE(WriteReport(config.name, *runs, run->exp_dir).ok());
  EXPECT_TRUE(PathExists(run->exp_dir + "/report/index.html"));
}

TEST_F(SweepTest, DryRunExecutesNothingAndTouchesNoDisk) {
  const SweepConfig config = TinyConfig(out_root_);
  SweepOptions dry = Quiet();
  dry.dry_run = true;
  auto run = RunSweep(config, dry);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->planned, 2);
  EXPECT_EQ(run->executed, 0);
  EXPECT_FALSE(PathExists(run->exp_dir + "/runs"));
}

TEST(SweepConfigTest, CommittedExampleConfigsParseAndExpand) {
  const std::string root = APTSERVE_SOURCE_DIR;
  for (const char* name : {"smoke", "paper_table"}) {
    auto config = LoadSweepConfigFile(root + "/bench/experiments/" + name +
                                      ".json");
    ASSERT_TRUE(config.ok()) << name << ": " << config.status().ToString();
    auto cells = ExpandMatrix(*config);
    ASSERT_TRUE(cells.ok()) << name << ": " << cells.status().ToString();
    EXPECT_FALSE(cells->empty()) << name;
  }
  // The smoke config is the CI two-cell matrix; pin its size so the CI
  // resume assertion ("executed 0 of 2") stays meaningful.
  auto smoke = LoadSweepConfigFile(root + "/bench/experiments/smoke.json");
  ASSERT_TRUE(smoke.ok());
  auto cells = ExpandMatrix(*smoke);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(cells->size(), 2u);
}

}  // namespace
}  // namespace sweep
}  // namespace aptserve
