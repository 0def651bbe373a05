// Tests for the pipeline engine (src/pipeline): stage chaining over the
// shared context, quality-policy handling, prerequisite errors, and the
// engine-level serial/parallel determinism contract.
#include "pipeline/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "quality/quality.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace spire::pipeline {
namespace {

using counters::Event;
using sampling::Dataset;
using sampling::Sample;

std::string testdata(const std::string& name) {
  return std::string(SPIRE_TESTDATA_DIR) + "/" + name;
}

/// A temp-file path unique to this test binary run.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("spire_pipeline_" + name))
      .string();
}

/// Noisy but trainable series for `metric`, deterministic per seed.
void add_series(Dataset& data, Event metric, std::uint64_t seed,
                int samples = 60) {
  util::Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    const double t = 1000.0;
    const double w = 100.0 + rng.uniform(0.0, 900.0);
    const double m = rng.below(4) == 0 ? 0.0 : rng.uniform(1.0, 400.0);
    data.add(metric, {t, w, m});
  }
}

Dataset trainable_dataset(std::uint64_t seed = 99) {
  Dataset data;
  add_series(data, Event::kIdqDsbUops, seed);
  add_series(data, Event::kBrMispRetiredAllBranches, seed + 1);
  return data;
}

TEST(PipelineEngine, CollectStageFillsDataStatsAndCounterDelta) {
  const auto& entry = workloads::hpc_suite().front();
  Engine engine;
  engine.collect(entry, sampling::CollectorConfig{}, /*max_cycles=*/200'000);
  const auto& ctx = engine.context();
  EXPECT_FALSE(ctx.data.empty());
  ASSERT_TRUE(ctx.collection_stats.has_value());
  EXPECT_GT(ctx.collection_stats->windows, 0u);
  ASSERT_TRUE(ctx.counter_delta.has_value());
  EXPECT_GT(ctx.counter_delta->get(Event::kCpuClkUnhaltedThread), 0u);
}

TEST(PipelineEngine, LoadSamplesMergesFiles) {
  const auto path_a = temp_path("a.csv");
  const auto path_b = temp_path("b.csv");
  Dataset a, b;
  add_series(a, Event::kIdqDsbUops, 1, 10);
  add_series(b, Event::kLsdUops, 2, 5);
  {
    std::ofstream out_a(path_a), out_b(path_b);
    a.save_csv(out_a);
    b.save_csv(out_b);
  }
  Engine engine;
  engine.load_samples({path_a, path_b});
  EXPECT_EQ(engine.context().data.size(), 15u);
  EXPECT_EQ(engine.context().data.metrics().size(), 2u);
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(PipelineEngine, LoadSamplesNamesTheOffendingPath) {
  Engine engine;
  try {
    engine.load_samples({"/nonexistent/samples.csv"});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/samples.csv"),
              std::string::npos);
  }
}

TEST(PipelineEngine, ValidateWarnReportsButKeepsData) {
  Engine engine;
  engine.context().data = trainable_dataset();
  engine.context().data.add(
      Event::kIdqDsbUops, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  const std::size_t before = engine.context().data.size();
  std::ostringstream log;
  engine.context().log = &log;
  engine.validate();
  ASSERT_TRUE(engine.context().quality_report.has_value());
  EXPECT_FALSE(engine.context().quality_report->clean());
  EXPECT_EQ(engine.context().data.size(), before);
  EXPECT_FALSE(log.str().empty());
}

TEST(PipelineEngine, ValidateRepairDropsDefectiveSamples) {
  Engine engine;
  engine.context().policy = quality::Policy::kRepair;
  engine.context().data = trainable_dataset();
  engine.context().data.add(
      Event::kIdqDsbUops, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  const std::size_t before = engine.context().data.size();
  engine.validate();
  EXPECT_LT(engine.context().data.size(), before);
}

TEST(PipelineEngine, ValidateStrictThrowsQualityError) {
  Engine engine;
  engine.context().policy = quality::Policy::kStrict;
  engine.context().data = trainable_dataset();
  engine.context().data.add(
      Event::kIdqDsbUops, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  EXPECT_THROW(engine.validate(), quality::QualityError);
}

TEST(PipelineEngine, StagePrerequisitesAreChecked) {
  EXPECT_THROW(Engine{}.train(), std::runtime_error);
  EXPECT_THROW(Engine{}.estimate(), std::runtime_error);
  EXPECT_THROW(Engine{}.analyze(), std::runtime_error);
}

TEST(PipelineEngine, TrainEstimateAnalyzeChain) {
  Engine engine;
  engine.context().data = trainable_dataset();
  engine.validate().train().estimate().analyze();
  const auto& ctx = engine.context();
  ASSERT_TRUE(ctx.ensemble.has_value());
  EXPECT_EQ(ctx.ensemble->metric_count(), 2u);
  ASSERT_TRUE(ctx.estimate.has_value());
  ASSERT_TRUE(ctx.analysis.has_value());
  EXPECT_EQ(ctx.analysis->estimated_throughput, ctx.estimate->throughput);
  EXPECT_EQ(ctx.analysis->ranking.size(), 2u);
}

TEST(PipelineEngine, LintCheckAgainstSharedDataset) {
  Engine engine;
  engine.load_samples({testdata("models/parboil.samples.csv")})
      .lint_check({testdata("models/trained_parboil.model")},
                  /*against_data=*/true);
  ASSERT_EQ(engine.context().lint_reports.size(), 1u);
  EXPECT_TRUE(engine.context().lint_reports.front().clean())
      << engine.context().lint_reports.front().describe();
}

TEST(PipelineEngine, LeaveOneOutMatchesDirectCall) {
  std::vector<model::LabelledDataset> workloads;
  for (std::uint64_t seed : {10u, 20u, 30u}) {
    Dataset data;
    add_series(data, Event::kIdqDsbUops, seed, 30);
    workloads.push_back({"wl-" + std::to_string(seed), std::move(data)});
  }
  Engine engine;
  engine.context().exec = util::ExecOptions{4};
  engine.leave_one_out(workloads);
  const auto& via_engine = engine.context().loo_results;
  const auto direct = model::leave_one_out(workloads);  // serial reference
  ASSERT_EQ(via_engine.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_engine[i].label, direct[i].label);
    EXPECT_EQ(via_engine[i].coverage.covered, direct[i].coverage.covered);
    EXPECT_EQ(via_engine[i].estimated_throughput,
              direct[i].estimated_throughput);
  }
}

TEST(PipelineEngine, ParallelRunIsBitIdenticalToSerial) {
  const auto run = [](util::ExecOptions exec) {
    Engine engine;
    engine.context().exec = exec;
    engine.context().data = trainable_dataset();
    engine.validate().train().analyze();
    // Move, not copy: the context carries the whole training dataset.
    return std::move(engine.context());
  };
  const auto serial = run({});
  const auto parallel = run(util::ExecOptions{4});
  ASSERT_EQ(serial.analysis->ranking.size(), parallel.analysis->ranking.size());
  for (std::size_t i = 0; i < serial.analysis->ranking.size(); ++i) {
    EXPECT_EQ(serial.analysis->ranking[i].metric,
              parallel.analysis->ranking[i].metric);
    EXPECT_EQ(serial.analysis->ranking[i].p_bar,
              parallel.analysis->ranking[i].p_bar);
  }
  EXPECT_EQ(serial.analysis->estimated_throughput,
            parallel.analysis->estimated_throughput);
  EXPECT_EQ(serial.analysis->measured_throughput,
            parallel.analysis->measured_throughput);
}

}  // namespace
}  // namespace spire::pipeline
