// Property tests for the plan/execute batch kernel (serve/model_eval.h).
//
// The contract under test: EvalBatch::estimate is bit-identical to the
// scalar reference estimate_tables — same ulps, ranking order, skip
// reasons, and exception text — and EvalBatch::estimate_many is
// bit-identical to a scalar loop with per-item error capture, over fuzzed
// tables that include duplicate and zero-width segments, infinite
// ceilings, single-piece metrics, missing left regions, and sample
// streams full of NaN/inf/negative garbage. The suite runs unchanged at
// SPIRE_SIMD ON and OFF (CI builds both), which is what proves the
// vectorized execute loop and the scalar fallback cannot drift.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/model_eval.h"
#include "spire/model_bin_v3.h"

namespace spire {
namespace {

using counters::Event;
using model::Estimate;
using model::Merge;
using model::v3::MetricRange;
using sampling::Dataset;
using sampling::DatasetView;
using sampling::Sample;
using serve::EvalBatch;
using serve::EvalOutcome;
using serve::EvalTables;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Owns fuzzable table columns and exposes them in the evaluator shape.
/// compile()'s invariants hold by construction: per-region x1 ascends
/// (lower_bound requirement), the right region is never empty, metrics
/// ascend by event id.
struct TableSet {
  std::vector<Event> metrics;
  std::vector<MetricRange> ranges;
  std::vector<double> x0, y0, x1, y1;

  /// Planless tables: the kernel builds a per-call scratch plan and keeps
  /// the portable column select.
  EvalTables tables() const { return {metrics, ranges, x0, y0, x1, y1}; }

  /// Tables with a model-owned EvalPlan attached (built on first use) —
  /// the shape CompiledModel actually serves through, which is
  /// what routes the interleaved-row execute path (and the AVX2 select
  /// when the build compiled it and the CPU has it).
  EvalTables planned() const {
    if (!plan) {
      plan = std::make_unique<serve::EvalPlan>(serve::EvalPlan::build(tables()));
    }
    EvalTables t = tables();
    t.plan = plan.get();
    return t;
  }

  mutable std::unique_ptr<serve::EvalPlan> plan;
};

/// One region of contiguous pieces starting at `x`, with degeneracy dialed
/// in by the generator: zero-width pieces (x1 == x0), duplicate x1 runs,
/// and optionally an infinite last ceiling.
struct RegionSpec {
  std::size_t pieces = 1;
  double start = 0.0;
  bool infinite_tail = false;
};

void append_region(TableSet& set, const RegionSpec& spec, std::mt19937& rng) {
  std::uniform_real_distribution<double> width(0.0, 4.0);
  std::uniform_real_distribution<double> level(0.1, 8.0);
  std::bernoulli_distribution degenerate(0.25);
  double x = spec.start;
  for (std::size_t i = 0; i < spec.pieces; ++i) {
    const bool zero_width = degenerate(rng);
    const double w = zero_width ? 0.0 : width(rng);
    double next = x + w;
    if (spec.infinite_tail && i + 1 == spec.pieces) next = kInf;
    set.x0.push_back(x);
    set.y0.push_back(level(rng));
    set.x1.push_back(next);
    set.y1.push_back(level(rng));
    if (std::isfinite(next)) x = next;
  }
}

/// A fuzzed model: 1-4 metrics, each with an optional left region and a
/// non-empty right region (single-piece metrics included).
TableSet fuzz_tables(std::mt19937& rng) {
  TableSet set;
  std::uniform_int_distribution<int> metric_count(1, 4);
  std::uniform_int_distribution<int> piece_count(1, 6);
  std::bernoulli_distribution with_left(0.6);
  std::bernoulli_distribution with_inf(0.5);
  const int metrics = metric_count(rng);
  for (int m = 0; m < metrics; ++m) {
    MetricRange range;
    range.left_begin = static_cast<std::uint32_t>(set.x0.size());
    double right_start = 0.0;
    if (with_left(rng)) {
      RegionSpec left;
      left.pieces = static_cast<std::size_t>(piece_count(rng));
      append_region(set, left, rng);
      right_start = set.x1.back();
      if (!std::isfinite(right_start)) right_start = set.x0.back();
      range.left_max = right_start;
    }
    range.left_end = static_cast<std::uint32_t>(set.x0.size());
    range.right_begin = range.left_end;
    RegionSpec right;
    right.pieces = static_cast<std::size_t>(piece_count(rng));
    right.start = right_start;
    right.infinite_tail = with_inf(rng);
    append_region(set, right, rng);
    range.right_end = static_cast<std::uint32_t>(set.x0.size());
    // Ascending event ids, like compile() emits.
    set.metrics.push_back(static_cast<Event>(m));
    set.ranges.push_back(range);
  }
  return set;
}

/// A fuzzed workload: `n` samples per present metric, seasoned with the
/// full garbage menu — non-positive and non-finite t/w/m (the structural
/// filter must drop them), m = 0 (intensity = +inf), and huge intensities
/// past every ceiling.
Dataset fuzz_workload(const TableSet& set, std::size_t n, std::mt19937& rng) {
  Dataset data;
  std::uniform_real_distribution<double> pos(0.1, 40.0);
  std::uniform_int_distribution<int> garbage(0, 11);
  for (const Event metric : set.metrics) {
    for (std::size_t i = 0; i < n; ++i) {
      Sample s{pos(rng), pos(rng), pos(rng)};
      switch (garbage(rng)) {
        case 0: s.t = 0.0; break;           // filtered: t <= 0
        case 1: s.t = -pos(rng); break;     // filtered: t <= 0
        case 2: s.t = kNaN; break;          // filtered: !finite(t)
        case 3: s.w = kInf; break;          // filtered: !finite(w)
        case 4: s.w = -pos(rng); break;     // filtered: w < 0
        case 5: s.m = kNaN; break;          // filtered: !finite(m)
        case 6: s.m = -pos(rng); break;     // filtered: m < 0
        case 7: s.m = 0.0; break;           // kept: intensity = +inf
        case 8: s.w = 0.0; break;           // kept: intensity = 0
        case 9: s.w = pos(rng) * 1e12; break;  // kept: past every ceiling
        default: break;                     // kept: ordinary lane
      }
      data.add(metric, s);
    }
  }
  return data;
}

/// Scalar-reference outcome with the same per-item error capture
/// estimate_many performs.
EvalOutcome scalar_outcome(const EvalTables& tables, DatasetView view,
                           Merge merge) {
  EvalOutcome out;
  try {
    out.estimate = serve::estimate_tables(tables, view, merge);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

void expect_identical(const Estimate& a, const Estimate& b) {
  EXPECT_TRUE(same_bits(a.throughput, b.throughput))
      << a.throughput << " vs " << b.throughput;
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_TRUE(same_bits(a.ranking[i].p_bar, b.ranking[i].p_bar))
        << "metric " << static_cast<int>(a.ranking[i].metric) << ": "
        << a.ranking[i].p_bar << " vs " << b.ranking[i].p_bar;
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

void expect_identical(const EvalOutcome& scalar, const EvalOutcome& batch) {
  ASSERT_EQ(scalar.ok(), batch.ok()) << scalar.error << " vs " << batch.error;
  if (scalar.ok()) {
    expect_identical(*scalar.estimate, *batch.estimate);
  } else {
    EXPECT_EQ(scalar.error, batch.error);
  }
}

TEST(EvalBatchProperty, FuzzedTablesMatchScalarReferenceBitForBit) {
  std::mt19937 rng(20260808);
  EvalBatch batch;
  for (int round = 0; round < 200; ++round) {
    const TableSet set = fuzz_tables(rng);
    // Sweep the batch size across the kMinPlanLanes cutoff so both the
    // scalar fallback and the planned path face every table shape.
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 48);
    const Dataset data = fuzz_workload(set, n, rng);
    const DatasetView view(data);
    const Merge merge = (round % 2) ? Merge::kUnweighted : Merge::kTimeWeighted;
    const EvalOutcome scalar = scalar_outcome(set.tables(), view, merge);
    // Both kernel shapes must match the reference: planless tables (per-call
    // scratch plan, portable select) and the model-owned plan (routed
    // interleaved rows, AVX2 select when available).
    for (const EvalTables& t : {set.tables(), set.planned()}) {
      EvalOutcome kernel;
      try {
        kernel.estimate = batch.estimate(t, view, merge);
      } catch (const std::exception& e) {
        kernel.error = e.what();
      }
      expect_identical(scalar, kernel);
    }
  }
}

TEST(EvalBatchProperty, EstimateManyMatchesPerItemScalarLoop) {
  std::mt19937 rng(977);
  EvalBatch batch;
  for (int round = 0; round < 50; ++round) {
    const TableSet set = fuzz_tables(rng);
    std::vector<Dataset> datasets;
    std::vector<DatasetView> views;
    std::vector<Merge> merges;
    const std::size_t jobs = 1 + rng() % 6;
    datasets.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      // Include empty workloads: they must surface the scalar path's
      // no-shared-metric error text, not poison the batch.
      const std::size_t n = rng() % 4 == 0 ? 0 : 1 + rng() % 24;
      datasets.push_back(fuzz_workload(set, n, rng));
      views.emplace_back(datasets.back());
      merges.push_back(rng() % 2 ? Merge::kUnweighted : Merge::kTimeWeighted);
    }
    // Alternate rounds between planless and model-owned-plan tables so
    // the coalesced path is proven in both kernel shapes.
    const EvalTables t = (round % 2) ? set.planned() : set.tables();
    const auto outcomes =
        batch.estimate_many(t, std::span<const DatasetView>(views),
                            std::span<const Merge>(merges));
    ASSERT_EQ(outcomes.size(), jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      expect_identical(scalar_outcome(set.tables(), views[j], merges[j]),
                       outcomes[j]);
    }
  }
}

TEST(EvalBatchProperty, SinglePieceAndDuplicateSegmentTables) {
  // Hand-built degenerate shapes the fuzzer only hits probabilistically:
  // a single zero-width piece, a run of duplicate x1 values, and an
  // infinite-ceiling-only metric.
  TableSet set;
  // Metric 0: one zero-width piece at x = 2 (right region only).
  set.metrics.push_back(static_cast<Event>(0));
  set.ranges.push_back({0, 0, 0, 1, 0.0});
  set.x0.push_back(2.0);
  set.y0.push_back(3.0);
  set.x1.push_back(2.0);
  set.y1.push_back(5.0);
  // Metric 1: three pieces sharing x1 = 4 then an infinite tail.
  MetricRange r1;
  r1.left_begin = r1.left_end = r1.right_begin = 1;
  for (double y : {1.0, 2.0, 3.0}) {
    set.x0.push_back(4.0);
    set.y0.push_back(y);
    set.x1.push_back(4.0);
    set.y1.push_back(y + 1.0);
  }
  set.x0.push_back(4.0);
  set.y0.push_back(9.0);
  set.x1.push_back(kInf);
  set.y1.push_back(11.0);
  r1.right_end = 5;
  set.metrics.push_back(static_cast<Event>(1));
  set.ranges.push_back(r1);

  std::mt19937 rng(7);
  EvalBatch batch;
  for (int round = 0; round < 40; ++round) {
    const Dataset data = fuzz_workload(set, 1 + rng() % 40, rng);
    const DatasetView view(data);
    for (const EvalTables& t : {set.tables(), set.planned()}) {
      expect_identical(
          scalar_outcome(set.tables(), view, Merge::kTimeWeighted),
          [&] {
            EvalOutcome k;
            try {
              k.estimate = batch.estimate(t, view, Merge::kTimeWeighted);
            } catch (const std::exception& e) {
              k.error = e.what();
            }
            return k;
          }());
    }
  }
}

TEST(EvalBatchProperty, PlanCutoffBoundaryIsSeamless) {
  // kMinPlanLanes is where the kernel switches from the scalar fallback
  // to the planned sort/sweep path; results must be bit-identical on both
  // sides of (and exactly at) the seam.
  std::mt19937 rng(4242);
  const TableSet set = fuzz_tables(rng);
  EvalBatch batch;
  for (std::size_t n = EvalBatch::kMinPlanLanes - 2;
       n <= EvalBatch::kMinPlanLanes + 2; ++n) {
    const Dataset data = fuzz_workload(set, n, rng);
    const DatasetView view(data);
    for (const EvalTables& t : {set.tables(), set.planned()}) {
      expect_identical(
          scalar_outcome(set.tables(), view, Merge::kTimeWeighted),
          [&] {
            EvalOutcome k;
            try {
              k.estimate = batch.estimate(t, view, Merge::kTimeWeighted);
            } catch (const std::exception& e) {
              k.error = e.what();
            }
            return k;
          }());
    }
  }
}

TEST(EvalBatchProperty, NoSharedMetricThrowsSameErrorText) {
  std::mt19937 rng(11);
  const TableSet set = fuzz_tables(rng);
  const Dataset empty;
  const DatasetView view(empty);
  EvalBatch batch;
  std::string scalar_text, batch_text;
  try {
    serve::estimate_tables(set.tables(), view, Merge::kTimeWeighted);
  } catch (const std::invalid_argument& e) {
    scalar_text = e.what();
  }
  try {
    batch.estimate(set.tables(), view, Merge::kTimeWeighted);
  } catch (const std::invalid_argument& e) {
    batch_text = e.what();
  }
  ASSERT_FALSE(scalar_text.empty());
  EXPECT_EQ(scalar_text, batch_text);
}

TEST(EvalBatchCounters, PlannedAndScalarPathsAreCounted) {
  std::mt19937 rng(5);
  TableSet set = fuzz_tables(rng);
  EvalBatch batch;
  const auto before = batch.stats();

  // Below the cutoff: scalar fallback.
  Dataset small;
  for (std::size_t i = 0; i < 3; ++i) {
    small.add(set.metrics.front(), {1.0, 2.0, 1.0});
  }
  (void)batch.estimate(set.tables(), DatasetView(small),
                       Merge::kTimeWeighted);
  const auto after_small = batch.stats();
  EXPECT_GT(after_small.scalar_batches, before.scalar_batches);
  EXPECT_EQ(after_small.planned_batches, before.planned_batches);

  // Well above the cutoff: planned.
  Dataset big;
  for (std::size_t i = 0; i < 4 * EvalBatch::kMinPlanLanes; ++i) {
    big.add(set.metrics.front(), {1.0, 1.0 + static_cast<double>(i), 1.0});
  }
  (void)batch.estimate(set.tables(), DatasetView(big), Merge::kTimeWeighted);
  const auto after_big = batch.stats();
  EXPECT_GT(after_big.planned_batches, after_small.planned_batches);
  EXPECT_GE(after_big.planned_lanes,
            after_small.planned_lanes + 4 * EvalBatch::kMinPlanLanes);

  // The process-wide aggregate ticks the same way (monotonic).
  const auto global = serve::eval_counters_snapshot();
  EXPECT_GE(global.planned_batches, after_big.planned_batches);
}

TEST(EvalBatchThreads, ThreadLocalScratchIsRaceFreeAcrossPoolWorkers) {
  // estimate_batch_tables fans workloads across pool workers, each
  // evaluating through its own thread_eval_batch() scratch; under TSan
  // this is the proof no scratch (or counter) is shared unsynchronized.
  std::mt19937 rng(99);
  const TableSet set = fuzz_tables(rng);
  std::vector<Dataset> datasets;
  std::vector<DatasetView> views;
  datasets.reserve(16);
  for (int i = 0; i < 16; ++i) {
    datasets.push_back(fuzz_workload(set, 40, rng));
    views.emplace_back(datasets.back());
  }
  util::ExecOptions exec;
  exec.threads = 4;
  const auto parallel = serve::estimate_batch_tables(
      set.tables(), std::span<const DatasetView>(views), exec,
      Merge::kTimeWeighted);
  ASSERT_EQ(parallel.size(), views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    expect_identical(
        serve::estimate_tables(set.tables(), views[i], Merge::kTimeWeighted),
        parallel[i]);
  }
}

}  // namespace
}  // namespace spire
