// The compiled serving path's one hard promise is bit-identity: everything
// here compares against Ensemble::estimate with operator== on doubles, not
// tolerances. A compiled model that is "almost" the tree-walk is a broken
// compiled model.
#include "serve/compiled_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "pipeline/engine.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/service.h"
#include "spire/ensemble.h"
#include "spire/model_io.h"
#include "util/rng.h"

namespace spire::serve {
namespace {

using counters::Event;
using model::Ensemble;
using model::Estimate;
using sampling::Dataset;
using sampling::DatasetView;

Ensemble trained_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset train;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss,
                       Event::kMemInstRetiredAllLoads}) {
    for (int i = 0; i < 60; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, {1.0, p, std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return Ensemble::train(train);
}

/// A workload exercising every estimate code path: usable samples across
/// the intensity range, structurally unusable ones (skipped by Eq. 1),
/// metrics the model lacks, and one model metric with only junk samples.
Dataset mixed_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < 40; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = rng.chance(0.15)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-2.0, 4.0));
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                     std::isinf(intensity) ? 0.0 : p / intensity});
    }
    d.add(metric, {0.0, 1.0, 1.0});    // t <= 0: skipped
    d.add(metric, {1.0, -1.0, 1.0});   // negative work: skipped
    d.add(metric, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  }
  // A metric the model has no roofline for: ignored entirely.
  for (int i = 0; i < 10; ++i) {
    d.add(Event::kUopsIssuedAny, {1.0, 1.0, 1.0});
  }
  // A model metric with only structurally unusable samples: lands in
  // Estimate::skipped with the "no structurally usable samples" reason.
  d.add(Event::kMemInstRetiredAllLoads, {-3.0, 1.0, 1.0});
  return d;
}

void expect_identical(const Estimate& a, const Estimate& b) {
  EXPECT_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_EQ(a.ranking[i].p_bar, b.ranking[i].p_bar);
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

TEST(CompiledModel, CompileFlattensEveryRoofline) {
  const Ensemble ensemble = trained_ensemble(17);
  const CompiledModel compiled = CompiledModel::compile(ensemble);
  EXPECT_EQ(compiled.metric_count(), ensemble.metric_count());
  std::size_t pieces = 0;
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    if (roofline.left().has_value()) pieces += roofline.left()->pieces().size();
    pieces += roofline.right().pieces().size();
  }
  EXPECT_EQ(compiled.piece_count(), pieces);
  // metrics() preserves the map's ascending order.
  auto it = ensemble.rooflines().begin();
  for (const Event metric : compiled.metrics()) {
    EXPECT_EQ(metric, (it++)->first);
  }
}

TEST(CompiledModel, EstimateIsBitIdenticalToEnsemble) {
  const Ensemble ensemble = trained_ensemble(17);
  const CompiledModel compiled = CompiledModel::compile(ensemble);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Dataset workload = mixed_workload(seed);
    const DatasetView view(workload);
    for (const model::Merge merge :
         {model::Merge::kTimeWeighted, model::Merge::kUnweighted}) {
      const Estimate reference = ensemble.estimate(view, merge);
      expect_identical(reference, compiled.estimate(view, merge));
    }
  }
}

TEST(CompiledModel, BatchIsBitIdenticalAtOneFourEightThreads) {
  const Ensemble ensemble = trained_ensemble(29);
  const CompiledModel compiled = CompiledModel::compile(ensemble);
  std::vector<Dataset> workloads;
  std::vector<DatasetView> views;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workloads.push_back(mixed_workload(seed));
  }
  views.assign(workloads.begin(), workloads.end());
  std::vector<Estimate> reference;
  for (const DatasetView& view : views) {
    reference.push_back(ensemble.estimate(view));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const auto batch =
        compiled.estimate_batch(views, util::ExecOptions{threads});
    ASSERT_EQ(batch.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical(reference[i], batch[i]);
    }
  }
}

TEST(CompiledModel, ThrowsTheEnsembleErrorOnNoSharedMetric) {
  const Ensemble ensemble = trained_ensemble(17);
  const CompiledModel compiled = CompiledModel::compile(ensemble);
  Dataset workload;
  workload.add(Event::kUopsIssuedAny, {1.0, 1.0, 1.0});
  const DatasetView view(workload);
  std::string ensemble_error;
  try {
    ensemble.estimate(view);
  } catch (const std::invalid_argument& e) {
    ensemble_error = e.what();
  }
  ASSERT_FALSE(ensemble_error.empty());
  try {
    compiled.estimate(view);
    FAIL() << "compiled estimate must throw like the ensemble";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(ensemble_error, e.what());
  }
  // The batch propagates the same exception (lowest index, like a serial
  // loop) at any thread count.
  std::vector<DatasetView> views{view};
  EXPECT_THROW(compiled.estimate_batch(views, util::ExecOptions{4}),
               std::invalid_argument);
}

TEST(CompiledModel, CheckedInModelsRoundTripAndServeIdentically) {
  const std::string dir = std::string(SPIRE_TESTDATA_DIR) + "/models";
  std::ifstream csv(dir + "/parboil.samples.csv");
  ASSERT_TRUE(csv.is_open());
  const Dataset workload = Dataset::load_csv(csv);
  const DatasetView view(workload);
  std::size_t models = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    ++models;
    const Ensemble original = model::load_model_file(entry.path().string());
    // v1 -> v3 -> ensemble must be lossless...
    std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
    model::save_model_bin(original, bin);
    const Ensemble reloaded = model::load_model_bin(bin);
    EXPECT_EQ(original.rooflines(), reloaded.rooflines())
        << entry.path().string();
    // ...and the compiled form of the reloaded artifact must serve the
    // exact tree-walk estimates.
    const CompiledModel compiled = CompiledModel::compile(reloaded);
    try {
      const Estimate reference = original.estimate(view);
      expect_identical(reference, compiled.estimate(view));
    } catch (const std::invalid_argument&) {
      // Model shares no metric with the parboil samples: fine, covered by
      // ThrowsTheEnsembleErrorOnNoSharedMetric semantics.
      EXPECT_THROW(compiled.estimate(view), std::invalid_argument);
    }
  }
  EXPECT_GE(models, 3u);
}

TEST(CompiledModel, EveryLoadedFormatCompilesToOneImage) {
  const Ensemble ensemble = trained_ensemble(41);
  const std::string text_path = ::testing::TempDir() + "/serve_model.model";
  const std::string bin_path = ::testing::TempDir() + "/serve_model.bin";
  model::save_model_file(ensemble, text_path);
  model::save_model_bin_file(ensemble, bin_path);
  const CompiledModel from_text =
      CompiledModel::compile(model::load_model_any_file(text_path));
  const CompiledModel from_bin =
      CompiledModel::compile(model::load_model_any_file(bin_path));
  EXPECT_EQ(from_text.bytes(), model::model_bin_bytes(ensemble));
  EXPECT_EQ(from_bin.bytes(), model::model_bin_bytes(ensemble));
  const Dataset workload = mixed_workload(3);
  const DatasetView view(workload);
  const Estimate reference = ensemble.estimate(view);
  expect_identical(reference, from_text.estimate(view));
  expect_identical(reference, from_bin.estimate(view));
}

// --------------------------------------------------------------------------
// EstimationService: per-file error isolation
// --------------------------------------------------------------------------

TEST(EstimationService, IsolatesPerFileFailures) {
  const Ensemble ensemble = trained_ensemble(17);
  const EstimationService service(CompiledModel::compile(ensemble));

  const std::string good_path = ::testing::TempDir() + "/serve_good.csv";
  {
    std::ofstream out(good_path);
    mixed_workload(5).save_csv(out);
  }
  const std::string junk_path = ::testing::TempDir() + "/serve_junk.csv";
  {
    std::ofstream out(junk_path);
    out << "this is not a sample csv\n";
  }
  const std::vector<std::string> paths = {
      good_path, "/nonexistent/serve_missing.csv", junk_path, good_path};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions options;
    options.exec = util::ExecOptions{threads};
    const auto results = service.estimate_files(paths, options);
    ASSERT_EQ(results.size(), paths.size());
    // Input order is preserved regardless of scheduling.
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_EQ(results[i].source, paths[i]);
    }
    EXPECT_TRUE(results[0].ok());
    EXPECT_GT(results[0].samples, 0u);
    EXPECT_TRUE(results[0].error.empty());
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("cannot open"), std::string::npos);
    EXPECT_FALSE(results[2].ok());
    EXPECT_FALSE(results[2].error.empty());
    EXPECT_TRUE(results[3].ok());
    // The same file estimates to the same bits, and both match the
    // tree-walk reference.
    const Estimate reference =
        ensemble.estimate(DatasetView(mixed_workload(5)));
    expect_identical(reference, *results[0].estimate);
    expect_identical(reference, *results[3].estimate);
  }
}

TEST(EstimationService, OwnedAndMappedModelsServeFilesIdentically) {
  const Ensemble ensemble = trained_ensemble(41);
  const EstimationService owned(CompiledModel::compile(ensemble));
  EXPECT_EQ(owned.metric_count(), ensemble.metric_count());

  const std::string v3_path = ::testing::TempDir() + "/serve_service.v3.bin";
  model::save_model_bin_file(ensemble, v3_path);
  const EstimationService mapped(std::make_shared<const CompiledModel>(
      CompiledModel::map_file(v3_path)));
  EXPECT_EQ(mapped.metric_count(), ensemble.metric_count());

  // Both serve the same file to the same bits.
  const std::string csv_path = ::testing::TempDir() + "/serve_service.csv";
  {
    std::ofstream out(csv_path);
    mixed_workload(11).save_csv(out);
  }
  const std::vector<std::string> paths = {csv_path};
  const auto a = owned.estimate_files(paths);
  const auto b = mapped.estimate_files(paths);
  ASSERT_TRUE(a[0].ok());
  ASSERT_TRUE(b[0].ok());
  expect_identical(*a[0].estimate, *b[0].estimate);
  expect_identical(ensemble.estimate(DatasetView(mixed_workload(11))),
                   *a[0].estimate);
}

// --------------------------------------------------------------------------
// Pipeline engine stages
// --------------------------------------------------------------------------

TEST(EngineServe, CompileAndEstimateBatchStages) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string model_path = ::testing::TempDir() + "/serve_engine.bin";
  model::save_model_bin_file(ensemble, model_path);
  const std::string csv_path = ::testing::TempDir() + "/serve_engine.csv";
  {
    std::ofstream out(csv_path);
    mixed_workload(7).save_csv(out);
  }

  pipeline::Engine engine;
  engine.load_model(model_path)  // binary artifact through the sniffing path
      .compile()
      .estimate_batch({csv_path, "/nonexistent/serve_engine_missing.csv"});
  const auto& ctx = engine.context();
  ASSERT_NE(ctx.model, nullptr);
  EXPECT_EQ(ctx.model->metric_count(), ensemble.metric_count());
  ASSERT_EQ(ctx.batch_results.size(), 2u);
  ASSERT_TRUE(ctx.batch_results[0].ok());
  EXPECT_FALSE(ctx.batch_results[1].ok());
  expect_identical(ensemble.estimate(DatasetView(mixed_workload(7))),
                   *ctx.batch_results[0].estimate);
}

TEST(EngineServe, EstimateBatchCompilesOnDemand) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string model_path = ::testing::TempDir() + "/serve_engine2.model";
  model::save_model_file(ensemble, model_path);
  const std::string csv_path = ::testing::TempDir() + "/serve_engine2.csv";
  {
    std::ofstream out(csv_path);
    mixed_workload(9).save_csv(out);
  }
  pipeline::Engine engine;
  engine.load_model(model_path).estimate_batch({csv_path});
  EXPECT_NE(engine.context().model, nullptr);
  ASSERT_EQ(engine.context().batch_results.size(), 1u);
  EXPECT_TRUE(engine.context().batch_results[0].ok());
}

TEST(EngineServe, CompileRequiresAnEnsemble) {
  pipeline::Engine engine;
  EXPECT_THROW(engine.compile(), std::runtime_error);
  EXPECT_THROW(engine.estimate_batch({"whatever.csv"}), std::runtime_error);
}

// --------------------------------------------------------------------------
// Lint over binary artifacts
// --------------------------------------------------------------------------

TEST(LintBinary, CleanBinaryArtifactLintsClean) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string bin_path = ::testing::TempDir() + "/serve_lint.bin";
  model::save_model_bin_file(ensemble, bin_path);
  const auto report = lint::lint_model_file(bin_path);
  EXPECT_TRUE(report.clean()) << report.describe();
  EXPECT_EQ(report.metrics_scanned, ensemble.metric_count());
}

TEST(LintBinary, CorruptBinaryArtifactGetsTypedFinding) {
  const Ensemble ensemble = trained_ensemble(17);
  std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
  model::save_model_bin(ensemble, bin);
  const std::string truncated = bin.str().substr(0, 64);
  const std::string bad_path = ::testing::TempDir() + "/serve_lint_bad.bin";
  {
    std::ofstream out(bad_path, std::ios::binary);
    out << truncated;
  }
  const auto report = lint::lint_model_file(bad_path);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.count("binary-load"), 1u) << report.describe();
  // The finding carries the strict loader's diagnostic, prefix included.
  for (const auto& finding : report.findings) {
    if (finding.rule_id == "binary-load") {
      EXPECT_EQ(finding.message.rfind("model-bin:", 0), 0u) << finding.message;
    }
  }
}

}  // namespace
}  // namespace spire::serve
