#include "sampling/collector.h"
#include "sampling/dataset.h"
#include "sampling/sample.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "pipeline/engine.h"
#include "workloads/profile_stream.h"
#include "workloads/suite.h"

namespace spire::sampling {
namespace {

using counters::Event;

TEST(Sample, DerivedQuantities) {
  const Sample s{100.0, 250.0, 50.0};
  EXPECT_DOUBLE_EQ(s.throughput(), 2.5);
  EXPECT_DOUBLE_EQ(s.intensity(), 5.0);
}

TEST(Sample, ZeroMetricGivesInfiniteIntensity) {
  const Sample s{100.0, 250.0, 0.0};
  EXPECT_TRUE(std::isinf(s.intensity()));
}

TEST(Dataset, AddAndQuery) {
  Dataset d;
  EXPECT_TRUE(d.empty());
  d.add(Event::kIdqDsbUops, {1.0, 2.0, 3.0});
  d.add(Event::kIdqDsbUops, {4.0, 5.0, 6.0});
  d.add(Event::kLsdUops, {7.0, 8.0, 9.0});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.samples(Event::kIdqDsbUops).size(), 2u);
  EXPECT_TRUE(d.samples(Event::kBaclearsAny).empty());
  EXPECT_EQ(d.metrics().size(), 2u);
}

TEST(Dataset, MetricsInCatalogOrder) {
  Dataset d;
  d.add(Event::kLsdUops, {1.0, 1.0, 1.0});
  d.add(Event::kIdqDsbUops, {1.0, 1.0, 1.0});
  const auto metrics = d.metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0], Event::kIdqDsbUops);  // earlier in the catalog
  EXPECT_EQ(metrics[1], Event::kLsdUops);
}

TEST(Dataset, MergeCombines) {
  Dataset a;
  a.add(Event::kIdqDsbUops, {1.0, 1.0, 1.0});
  Dataset b;
  b.add(Event::kIdqDsbUops, {2.0, 2.0, 2.0});
  b.add(Event::kLsdUops, {3.0, 3.0, 3.0});
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.samples(Event::kIdqDsbUops).size(), 2u);
}

TEST(Dataset, CsvRoundTrip) {
  Dataset d;
  d.add(Event::kIdqDsbUops, {100.5, 250.25, 50.125});
  d.add(Event::kBaclearsAny, {1e9, 2.5e9, 0.0});
  std::stringstream buf;
  d.save_csv(buf);
  const Dataset loaded = Dataset::load_csv(buf);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.samples(Event::kIdqDsbUops)[0], (Sample{100.5, 250.25, 50.125}));
  EXPECT_EQ(loaded.samples(Event::kBaclearsAny)[0], (Sample{1e9, 2.5e9, 0.0}));
}

TEST(Dataset, LoadRejectsBadInput) {
  std::istringstream bad_header("nope\n1,2,3,4\n");
  EXPECT_THROW(Dataset::load_csv(bad_header), std::runtime_error);
  std::istringstream unknown_metric("metric,t,w,m\nfake.event,1,2,3\n");
  EXPECT_THROW(Dataset::load_csv(unknown_metric), std::runtime_error);
  std::istringstream bad_number("metric,t,w,m\nidq.dsb_uops,abc,2,3\n");
  EXPECT_THROW(Dataset::load_csv(bad_number), std::runtime_error);
  std::istringstream short_row("metric,t,w,m\nidq.dsb_uops,1,2\n");
  EXPECT_THROW(Dataset::load_csv(short_row), std::runtime_error);
}

TEST(Collector, ConfigValidation) {
  CollectorConfig bad;
  bad.window_cycles = 0;
  EXPECT_THROW(SampleCollector{bad}, std::invalid_argument);
  CollectorConfig bad2;
  bad2.group_size = 0;
  EXPECT_THROW(SampleCollector{bad2}, std::invalid_argument);
}

workloads::WorkloadProfile test_profile() {
  workloads::WorkloadProfile p;
  p.instruction_count = 400000;
  p.load_fraction = 0.2;
  p.branch_fraction = 0.1;
  p.seed = 42;
  return p;
}

TEST(Collector, ProducesOneSamplePerMetricPerWindow) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  CollectorConfig cc;
  cc.window_cycles = 20000;
  cc.slice_cycles = 1000;
  cc.metrics = {Event::kIdqDsbUops, Event::kBrMispRetiredAllBranches,
                Event::kCycleActivityStallsTotal};
  cc.group_size = 1;
  SampleCollector collector(cc);
  Dataset d;
  const auto stats = collector.collect(core, d, 100000);
  EXPECT_EQ(stats.windows, 5u);
  EXPECT_EQ(d.samples(Event::kIdqDsbUops).size(), 5u);
  EXPECT_EQ(d.samples(Event::kBrMispRetiredAllBranches).size(), 5u);
  EXPECT_EQ(stats.samples, 15u);
  EXPECT_GT(stats.group_switches, 0u);
  EXPECT_GT(stats.overhead_fraction(), 0.0);
  EXPECT_LT(stats.overhead_fraction(), 0.2);
}

TEST(Collector, SamplesShareWindowTimeAndWork) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  CollectorConfig cc;
  cc.window_cycles = 30000;
  cc.metrics = {Event::kIdqDsbUops, Event::kLsdUops, Event::kBaclearsAny};
  cc.group_size = 1;
  SampleCollector collector(cc);
  Dataset d;
  collector.collect(core, d, 90000);
  const auto& a = d.samples(Event::kIdqDsbUops);
  const auto& b = d.samples(Event::kLsdUops);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].t, b[i].t);
    EXPECT_DOUBLE_EQ(a[i].w, b[i].w);
    EXPECT_DOUBLE_EQ(a[i].t, 30000.0);
  }
}

TEST(Collector, MultiplexScalingApproximatesFullCounts) {
  // Collect the same workload twice: once with the metric always enabled
  // (one group) and once multiplexed across dummy groups. The scaled
  // estimates should track the dedicated measurement within noise.
  const auto run = [](int group_size, std::vector<Event> metrics) {
    workloads::ProfileStream stream(test_profile());
    sim::Core core(sim::CoreConfig{}, stream);
    CollectorConfig cc;
    cc.window_cycles = 50000;
    cc.slice_cycles = 1000;
    cc.metrics = std::move(metrics);
    cc.group_size = group_size;
    SampleCollector collector(cc);
    Dataset d;
    collector.collect(core, d, 400000);
    double total = 0.0;
    for (const Sample& s : d.samples(Event::kBrInstRetiredAllBranches)) {
      total += s.m;
    }
    return total;
  };
  const double dedicated =
      run(3, {Event::kBrInstRetiredAllBranches, Event::kIdqDsbUops,
              Event::kLsdUops});
  const double multiplexed =
      run(1, {Event::kBrInstRetiredAllBranches, Event::kIdqDsbUops,
              Event::kLsdUops});
  ASSERT_GT(dedicated, 0.0);
  EXPECT_NEAR(multiplexed / dedicated, 1.0, 0.1);
}

TEST(Collector, StopsWhenWorkloadFinishes) {
  auto profile = test_profile();
  profile.instruction_count = 20000;
  workloads::ProfileStream stream(profile);
  sim::Core core(sim::CoreConfig{}, stream);
  SampleCollector collector((CollectorConfig()));
  Dataset d;
  const auto stats = collector.collect(core, d, 100'000'000);
  EXPECT_TRUE(core.done());
  EXPECT_EQ(stats.instructions, 20000u);
}

TEST(Collector, DefaultsToAllMetricEvents) {
  workloads::ProfileStream stream(test_profile());
  sim::Core core(sim::CoreConfig{}, stream);
  SampleCollector collector((CollectorConfig()));
  Dataset d;
  collector.collect(core, d, 120000);
  EXPECT_EQ(d.metrics().size(), counters::metric_events().size());
}

// Bit-identity pin for the simulator: a handful of suite workloads are
// collected at reduced length with the benchmark's collector settings and
// every (metric, t, w, m) sample plus the whole-run counter delta is hashed.
// The digests were recorded from the simulator before its hot loop was
// rewritten; any change to the cycle model (ordering of events, the
// calendar's horizon wrap, cache replacement, the workload stream) moves
// them. Update them only for an intended change of the simulated machine,
// and say so where the change is recorded.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t collect_digest(const std::string& name, const std::string& config,
                             std::uint64_t seed) {
  CollectorConfig cc;
  cc.window_cycles = 50'000;
  cc.slice_cycles = 2'000;
  cc.group_size = 6;
  cc.switch_overhead_cycles = 30;
  pipeline::Engine engine;
  engine.collect(workloads::find_workload(name, config), cc, 200'000, seed);
  const auto& ctx = engine.context();
  Fnv64 fnv;
  for (const Event metric : ctx.data.metrics()) {
    fnv.add(static_cast<std::uint64_t>(metric));
    for (const Sample& s : ctx.data.samples(metric)) {
      fnv.add(s.t);
      fnv.add(s.w);
      fnv.add(s.m);
    }
  }
  for (const std::uint64_t count : ctx.counter_delta->raw()) fnv.add(count);
  return fnv.h;
}

TEST(SimGolden, CollectDigestsUnchanged) {
  struct Case {
    const char* name;
    const char* config;
    std::uint64_t digest;
  };
  // Stencil and T5 schedule loads and wake-ups past the calendar horizon;
  // BLAS CPU runs at high IPC; graph500 is DRAM-bound and mostly idle;
  // CUTCP is microcoded, locked and divide-heavy; Mobilenet's 3 KiB loop
  // lives in the LSD.
  const Case cases[] = {
      {"parboil", "Stencil", 0x422310dd95003c24ULL},
      {"onnx", "T5 Encoder, Std.", 0xb2c0640c794ffdacULL},
      {"arrayfire", "BLAS CPU", 0x3fa362fe132ba18fULL},
      {"graph500", "Scale: 29", 0xca53e35a4a76c3d4ULL},
      {"parboil", "CUTCP", 0xe8f80040840d8c14ULL},
      {"tensorflow-lite", "Mobilenet Quant", 0x3d9f2610c3ec3b37ULL},
  };
  std::uint64_t seed = 7;
  for (const Case& c : cases) {
    EXPECT_EQ(collect_digest(c.name, c.config, seed), c.digest)
        << c.name << " / " << c.config;
    ++seed;
  }
}

}  // namespace
}  // namespace spire::sampling
