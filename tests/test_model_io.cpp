#include "spire/model_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.h"

namespace spire::model {
namespace {

using counters::Event;
using sampling::Dataset;
using sampling::Sample;

Sample sample_at(double intensity, double throughput) {
  if (std::isinf(intensity)) return {1.0, throughput, 0.0};
  return {1.0, throughput, throughput / intensity};
}

Ensemble make_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset train;
  for (Event metric : {Event::kIdqDsbUops, Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < 60; ++i) {
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, sample_at(intensity, rng.uniform(0.1, 4.0)));
    }
  }
  return Ensemble::train(train);
}

TEST(ModelIo, RoundTripPreservesRooflinesExactly) {
  const Ensemble original = make_ensemble(11);
  std::stringstream buf;
  save_model(original, buf);
  const Ensemble loaded = load_model(buf);

  ASSERT_EQ(loaded.metric_count(), original.metric_count());
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto it = loaded.rooflines().find(metric);
    ASSERT_NE(it, loaded.rooflines().end());
    EXPECT_EQ(it->second, roofline) << counters::event_name(metric);
  }
}

TEST(ModelIo, RoundTripPreservesEstimates) {
  const Ensemble original = make_ensemble(23);
  std::stringstream buf;
  save_model(original, buf);
  const Ensemble loaded = load_model(buf);

  util::Rng rng(99);
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto& other = loaded.rooflines().at(metric);
    for (int i = 0; i < 200; ++i) {
      const double intensity = std::pow(10.0, rng.uniform(-2.0, 5.0));
      EXPECT_DOUBLE_EQ(roofline.estimate(intensity), other.estimate(intensity));
    }
    EXPECT_DOUBLE_EQ(
        roofline.estimate(std::numeric_limits<double>::infinity()),
        other.estimate(std::numeric_limits<double>::infinity()));
  }
}

TEST(ModelIo, BadHeaderThrows) {
  std::istringstream in("not-a-model\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, UnknownMetricThrows) {
  std::istringstream in(
      "spire-model v1\n"
      "metric fake.event trained_on=5 apex=1 2\n"
      "left 0\n"
      "right 1 1 2 inf 2\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, TruncatedInputThrows) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=5 apex=1 2\n"
      "left 0\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, EmptyModelThrows) {
  std::istringstream in("spire-model v1\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, ParsesHandWrittenModel) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 2 0 0 2 3\n"
      "right 2 2 3 10 1 10 1 inf 1\n");
  const Ensemble ens = load_model(in);
  const auto& roofline = ens.rooflines().at(Event::kIdqDsbUops);
  EXPECT_EQ(roofline.training_sample_count(), 12u);
  EXPECT_DOUBLE_EQ(roofline.apex_intensity(), 2.0);
  EXPECT_DOUBLE_EQ(roofline.estimate(1.0), 1.5);  // on the left segment
  EXPECT_DOUBLE_EQ(roofline.estimate(6.0), 2.0);  // on the right segment
  EXPECT_DOUBLE_EQ(roofline.estimate(1e9), 1.0);  // horizontal tail
}

TEST(ModelIo, DuplicateMetricThrowsWithLineNumber) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 2 0 0 2 3\n"
      "right 1 2 3 inf 3\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 0\n"
      "right 1 2 3 inf 3\n");
  try {
    load_model(in);
    FAIL() << "duplicate metric must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate metric"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, FileRoundTrip) {
  const Ensemble original = make_ensemble(31);
  const std::string path = ::testing::TempDir() + "/spire_model.txt";
  save_model_file(original, path);
  const Ensemble loaded = load_model_file(path);
  EXPECT_EQ(loaded.metric_count(), original.metric_count());
  EXPECT_THROW(load_model_file("/nonexistent/model.txt"), std::runtime_error);
}

// --------------------------------------------------------------------------
// Binary format v3
// --------------------------------------------------------------------------

TEST(ModelIoBin, RoundTripPreservesRooflinesExactly) {
  const Ensemble original = make_ensemble(11);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(original, buf);
  const Ensemble loaded = load_model_bin(buf);
  ASSERT_EQ(loaded.metric_count(), original.metric_count());
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto it = loaded.rooflines().find(metric);
    ASSERT_NE(it, loaded.rooflines().end());
    EXPECT_EQ(it->second, roofline) << counters::event_name(metric);
  }
}

TEST(ModelIoBin, ConversionIsLosslessBothWays) {
  const Ensemble original = make_ensemble(57);
  // text -> binary -> text reproduces the text bytes; binary -> text ->
  // binary reproduces the binary bytes.
  std::stringstream text1;
  save_model(original, text1);
  std::stringstream bin1(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(load_model(text1), bin1);
  std::stringstream text2;
  save_model(load_model_bin(bin1), text2);
  EXPECT_EQ(text1.str(), text2.str());
  std::stringstream bin2(std::ios::in | std::ios::out | std::ios::binary);
  text2.seekg(0);
  save_model_bin(load_model(text2), bin2);
  EXPECT_EQ(bin1.str(), bin2.str());
}

TEST(ModelIoBin, MagicLeadsTheFile) {
  const Ensemble original = make_ensemble(3);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(original, buf);
  EXPECT_EQ(buf.str().substr(0, kModelBinMagicV3.size()), kModelBinMagicV3);
}

TEST(ModelIoBin, BadMagicThrows) {
  std::istringstream in("spire-model v1\nmetric ...");
  EXPECT_THROW(load_model_bin(in), std::runtime_error);
}

TEST(ModelIoBin, FutureVersionNamesAllSupportedVersions) {
  std::istringstream in("spire-model-bin v4\n\x01\x00\x00\x00");
  try {
    load_model_bin(in);
    FAIL() << "future version must not load";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v4"), std::string::npos) << what;
    EXPECT_NE(what.find("v3"), std::string::npos) << what;
  }
}

TEST(ModelIoBin, TruncationAtEveryByteThrowsCleanly) {
  const Ensemble original = make_ensemble(7);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(original, buf);
  const std::string bytes = buf.str();
  // Every prefix must be rejected with the loader's own diagnostic —
  // "model-bin:" inside the metric sections, "model-v3:" inside the flat
  // region — never a crash, hang, or silent partial model.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::istringstream in(bytes.substr(0, len));
    try {
      load_model_bin(in);
      FAIL() << "prefix of " << len << " bytes must not load";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_TRUE(what.rfind("model-bin:", 0) == 0 ||
                  what.rfind("model-v3:", 0) == 0)
          << what;
    }
  }
}

TEST(ModelIoBin, OversizedSectionCountIsRejectedBeforeAllocation) {
  // Magic + a metric count of 2^32-1: must throw on the bound, not try to
  // read four billion sections.
  std::string bytes(kModelBinMagicV3);
  bytes += std::string("\xff\xff\xff\xff", 4);
  std::istringstream in(bytes);
  try {
    load_model_bin(in);
    FAIL() << "oversized metric count must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("metric count"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIoBin, SectionByteCountMustMatchTables) {
  const Ensemble original = make_ensemble(7);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(original, buf);
  std::string bytes = buf.str();
  // Grow the first section's declared byte count by one: the cross-check
  // against the declared table sizes must reject it.
  const std::size_t size_at = kModelBinMagicV3.size() + 4;
  bytes[size_at] = static_cast<char>(bytes[size_at] + 1);
  std::istringstream in(bytes);
  EXPECT_THROW(load_model_bin(in), std::runtime_error);
}

TEST(ModelIoBin, TrailingGarbageIsRejected) {
  const Ensemble original = make_ensemble(7);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bin(original, buf);
  const std::string bytes = buf.str() + "x";
  std::istringstream in(bytes);
  try {
    load_model_bin(in);
    FAIL() << "trailing garbage must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelIoBin, FileWrappersAndSniffing) {
  const Ensemble original = make_ensemble(31);
  const std::string bin_path = ::testing::TempDir() + "/spire_model.bin";
  const std::string text_path = ::testing::TempDir() + "/spire_model.txt";
  save_model_bin_file(original, bin_path);
  save_model_file(original, text_path);

  EXPECT_TRUE(is_binary_model_file(bin_path));
  EXPECT_FALSE(is_binary_model_file(text_path));
  EXPECT_FALSE(is_binary_model_file("/nonexistent/model.bin"));

  // load_model_any_file dispatches on the leading bytes; both routes land
  // on the same rooflines.
  const Ensemble from_bin = load_model_any_file(bin_path);
  const Ensemble from_text = load_model_any_file(text_path);
  EXPECT_EQ(from_bin.rooflines(), from_text.rooflines());
  EXPECT_EQ(from_bin.rooflines(), original.rooflines());
  EXPECT_THROW(load_model_bin_file("/nonexistent/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace spire::model
