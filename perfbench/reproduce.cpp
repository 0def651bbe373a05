// The offline job: the simulator and the multiplexing sampler collect the
// suite, then the fit job (validate -> train -> compile -> publish ->
// analyze -> estimate_batch -> leave_one_out) runs at ExecOptions{4}. This
// is the only workload where spire fitting and the per-call ThreadPool do
// most of the work, and the only one that writes models.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>

#include "inputs.h"
#include "pipeline/engine.h"
#include "serve/compiled_model.h"
#include "serve/service.h"
#include "speed.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using spire::model::Ensemble;
using spire::pipeline::Engine;

namespace {

spire::sampling::CollectorConfig collector_config() {
  spire::sampling::CollectorConfig cc;
  cc.window_cycles = 50'000;
  cc.slice_cycles = 2'000;
  cc.group_size = 6;
  cc.switch_overhead_cycles = 30;
  return cc;
}

/// Runs one pipeline stage inside its span and adds its wall time to
/// `stages[name]`.
void stage(const char* name, std::map<std::string, double>& stages,
           const std::function<void()>& body) {
  trace::Span span(name);
  const auto start = Clock::now();
  body();
  stages[name] += seconds_since(start);
}

bool same_dataset(const spire::sampling::Dataset& a,
                  const spire::sampling::Dataset& b) {
  if (a.metrics() != b.metrics()) return false;
  for (const auto metric : a.metrics()) {
    if (a.samples(metric) != b.samples(metric)) return false;
  }
  return true;
}

}  // namespace

std::vector<spire::workloads::SuiteEntry> suite_subset(std::size_t n) {
  const auto& suite = spire::workloads::hpc_suite();
  if (n >= suite.size()) return suite;
  std::vector<spire::workloads::SuiteEntry> out;
  for (const auto& e : suite) {
    if (!e.testing && out.size() + 1 < n) out.push_back(e);
  }
  for (const auto& e : suite) {
    if (e.testing) {
      out.push_back(e);
      break;
    }
  }
  return out;
}

void collect_suite(const std::vector<spire::workloads::SuiteEntry>& entries,
                   std::uint64_t cycles, std::uint64_t seed, Reproduction& r) {
  r.collect_s.resize(entries.size());
  const auto config = collector_config();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& entry = entries[i];
    Engine engine;
    r.collect_s[i].push_back(normalized_seconds(1, [&] {
      trace::Span span("sim.collect", i + 1);
      engine.collect(entry, config, cycles, seed * 1'000'003ULL + i);
    }));
    auto& ctx = engine.context();
    if (i < r.workloads.size()) {
      if (!same_dataset(r.workloads[i].data, ctx.data)) r.deterministic = false;
      continue;
    }
    const auto& s = *ctx.collection_stats;
    r.stats.windows += s.windows;
    r.stats.samples += s.samples;
    r.stats.group_switches += s.group_switches;
    r.stats.measured_cycles += s.measured_cycles;
    r.stats.overhead_cycles += s.overhead_cycles;
    r.stats.instructions += s.instructions;
    r.workloads.push_back(
        {entry.profile.name + "/" + entry.profile.config, std::move(ctx.data)});
    r.testing.push_back(entry.testing);
  }
}

void write_profiles(Reproduction& r, const std::string& dir) {
  fs::create_directories(dir);
  for (std::size_t i = 0; i < r.workloads.size(); ++i) {
    r.csvs.push_back(to_csv(r.workloads[i].data));
    r.paths.push_back(dir + "/profile-" + std::to_string(i) + ".csv");
    std::ofstream(r.paths.back(), std::ios::trunc) << r.csvs.back();
    if (!r.testing[i]) r.training.merge(r.workloads[i].data);
  }
}

void fit_jobs(Reproduction& r, double seconds, const std::string& dir,
              Report& report) {
  std::vector<spire::sampling::Dataset> tests;
  for (std::size_t i = 0; i < r.workloads.size(); ++i) {
    if (r.testing[i]) tests.push_back(r.workloads[i].data);
  }
  const std::string root = dir + "/fit-registry";
  const auto slice_start = Clock::now();
  do {
    fs::remove_all(root);
    Engine engine;
    auto& ctx = engine.context();
    ctx.exec = spire::util::ExecOptions{4};
    ctx.data = r.training;
    std::map<std::string, double> stages;
    const std::uint64_t job = r.fit_s.size() + 1;
    double speed = 1.0;
    r.fit_s.push_back(normalized_seconds(
        kAllThreads,
        [&] {
          trace::Span span("pipeline.job", job);
          stage("pipeline.validate", stages, [&] { engine.validate(); });
          stage("pipeline.train", stages, [&] { engine.train(); });
          stage("pipeline.compile", stages, [&] { engine.compile(); });
          stage("pipeline.publish", stages, [&] { engine.publish(root); });
          stage("pipeline.analyze", stages, [&] {
            for (const auto& test : tests) {
              ctx.data = test;
              engine.analyze();
            }
          });
          stage("pipeline.estimate_batch", stages,
                [&] { engine.estimate_batch(r.paths); });
          stage("pipeline.loo", stages,
                [&] { engine.leave_one_out(r.workloads); });
        },
        &speed));
    for (const auto& [name, s] : stages) {
      r.stage_s[name].push_back(s * speed);
    }
    r.model = std::move(ctx.ensemble);
    r.model_id = ctx.published_id;
    r.batch = std::move(ctx.batch_results);
    report.attempted += 1;
  } while (seconds_since(slice_start) < seconds);
}

void check_fit(Reproduction& r, const std::string& dir, bool break_oracle,
               Report& report) {
  // The 4-thread model must be the model a serial train publishes.
  Ensemble::TrainOptions serial;
  serial.exec = spire::util::ExecOptions{1};
  const Ensemble reference = Ensemble::train(r.training, serial);
  fs::remove_all(dir + "/serial-registry");
  const std::string serial_id =
      spire::serve::ModelRegistry(dir + "/serial-registry").publish(reference);
  report.check(serial_id == r.model_id,
               "4-thread model " + r.model_id + " != serial model " +
                   serial_id);

  // Every estimate_batch result must equal Ensemble::estimate.
  const auto& batch = r.batch;
  report.check(batch.size() == r.workloads.size(),
               "estimate_batch returned " + std::to_string(batch.size()) +
                   " results for " + std::to_string(r.workloads.size()));
  for (std::size_t i = 0; i < batch.size() && i < r.workloads.size(); ++i) {
    const bool ok = batch[i].ok() &&
                    same_estimate(*batch[i].estimate,
                                  oracle_estimate(*r.model, r.workloads[i].data,
                                                  break_oracle));
    report.check(ok, "estimate_batch result for " + r.workloads[i].label +
                         " differs from Ensemble::estimate");
  }
  r.pieces = spire::serve::EstimationService(
                 spire::serve::CompiledModel::compile(*r.model))
                 .piece_count();
}

void report_collect(const Reproduction& r, Report& report) {
  report.check(r.deterministic,
               "a repeated collect gave different samples for the same seed");
  // One collect of every workload: the sum over workloads of the fastest
  // of each one's collects. A collect's time moves by up to 1.5x with how
  // busy the host is, more than the probe's (speed.h); the fastest of a
  // workload's collects held within 0.05 over six serve-bin runs where the
  // median spread 0.17.
  double collect_s = 0.0;
  for (const auto& times : r.collect_s) {
    collect_s += *std::min_element(times.begin(), times.end());
  }
  report.add("collect_s", collect_s, "s");
  const double cycles =
      static_cast<double>(r.stats.measured_cycles + r.stats.overhead_cycles);
  report.layer("sim.cycles", cycles, "count");
  report.layer("sim.instructions", static_cast<double>(r.stats.instructions),
               "count");
  report.layer("sim.mcycles_per_s", cycles / collect_s / 1e6, "Mcycles/s");
  report.layer("sampling.samples", static_cast<double>(r.stats.samples),
               "count");
  report.layer("sampling.group_switches",
               static_cast<double>(r.stats.group_switches), "count");
  report.layer("sampling.overhead_fraction", r.stats.overhead_fraction(),
               "fraction");
}

void report_fit(const Reproduction& r, Report& report) {
  report.add("fit_s", median(r.fit_s), "s");
  for (const char* name :
       {"validate", "train", "compile", "publish", "analyze",
        "estimate_batch", "loo"}) {
    const auto it = r.stage_s.find(std::string("pipeline.") + name);
    report.layer(std::string("pipeline.") + name + "_s",
                 it == r.stage_s.end() ? 0.0 : median(it->second), "s");
  }
  report.layer("spire.metrics_fit",
               r.model ? static_cast<double>(r.model->metric_count()) : 0.0,
               "count");
  report.layer("spire.pieces", static_cast<double>(r.pieces), "count");
}

void run_reproduce(const Args& args, Report& report, bool ladder) {
  const Sizes size = sizes_for(args.tiny);
  const auto entries = suite_subset(size.suite_entries);
  const std::string dir = kWorkDir + "/reproduce";

  // Set-up: a fresh work tree and a warm-up of the simulator and the thread
  // pool. setup_s is the median of kSetups set-ups: one here, the rest two
  // to a slice below.
  fs::remove_all(dir);
  std::vector<double> setups;
  const auto set_up = [&] {
    setups.push_back(normalized_seconds(1, [&] {
      fs::remove_all(dir + "/setup");
      fs::create_directories(dir + "/setup");
      Engine warm;
      warm.collect(entries.front(), collector_config(), 100'000, args.seed);
      (void)spire::util::parallel_for_index(spire::util::ExecOptions{4}, 4,
                                            [](std::size_t k) { return k; });
    }));
  };
  set_up();

  // Every collect of the suite comes first, back to back, while the heap
  // holds little else: the simulator's speed depends on where its
  // allocations land (up to 1.7x on one input between heap layouts).
  Reproduction r;
  for (int repeat = 0; repeat < size.collect_repeats; ++repeat) {
    collect_suite(entries, size.collect_cycles, args.seed, r);
  }
  write_profiles(r, dir + "/profiles");

  // Then fit jobs, the companion serving pass and set-ups alternate. The
  // companion serves the fitted model over the suite profiles, default
  // class only, text CSV, with the server's caches off: the 27 profiles
  // would fit in the memo-cache, and memo hits time little but thread
  // wake-ups. So every request is parsed and evaluated.
  std::vector<const Ensemble*> models;
  std::vector<spire::sampling::Dataset> profiles;
  for (const auto& w : r.workloads) profiles.push_back(w.data);
  std::optional<ServingFixture> fixture;
  LoadConfig load;
  load.socket = dir + "/s.sock";
  load.seconds = size.companion_seconds / kRounds;
  load.payloads = &r.csvs;
  std::vector<spire::util::Rng> rngs;
  for (std::size_t c = 0; c < kConnections; ++c) {
    rngs.emplace_back(args.seed * 31 + c);
  }
  load.pick = [&](std::size_t conn) {
    return RequestSpec{-1, rngs[conn].below(r.csvs.size())};
  };
  LoadResult result;
  spire::server::StatsReply stats_before;
  for (int round = 0; round < kRounds; ++round) {
    fit_jobs(r, static_cast<double>(args.seconds) / kRounds, dir, report);
    if (!fixture) {
      models = {&*r.model};
      spire::server::ServerOptions options;
      options.cache_entries = 0;
      options.profile_cache_entries = 0;
      fixture.emplace(dir + "/serve-registry", load.socket, models,
                      r.csvs.front(), false, options);
      report.check(fixture->warm_ok(), "serving warm-up failed");
      load.model_ids = fixture->ids();
      stats_before = fixture->server().stats_snapshot();
    }
    run_load(load, result);
    for (int i = 0; i < (kSetups - 1) / kRounds; ++i) set_up();
  }
  report.add("setup_s", median(setups), "s");
  report_load(result, stats_before, fixture->server().stats_snapshot(),
              fixture->server().shards_snapshot(), report);
  fixture.reset();
  check_replies(result, models, profiles, args.break_oracle, report);
  check_fit(r, dir, args.break_oracle, report);
  report_collect(r, report);
  report_fit(r, report);

  if (ladder) {
    LadderInputs in;
    in.models = &models;
    in.profiles = &profiles;
    in.training = &r.training;
    in.count = std::min(size.ladder_profiles, profiles.size());
    in.seed = args.seed;
    in.dir = dir + "/ladder";
    in.socket = dir + "/l.sock";
    run_ladder(in, report);
  }
}

}  // namespace perfbench
