// The two serving workloads.
//
// serve-text: sequential text-CSV requests to a fleet, with Zipf-popular
// models and profiles over more distinct profiles than the profile cache
// holds and more (model, profile) pairs than the memo-cache holds, so both
// caches hit on the head and miss on the tail. A quarter of the requests
// address the default class, and connection 0 publishes a new model and
// swaps it in mid-run. Frame decode, routing, both caches and the CSV parse
// do most of the work.
//
// serve-bin: pipelined spire-profile-bin requests, suite-length profiles,
// all connections sharing one scan over 4x the memo-cache's capacity, so no
// cache can answer. The planned kernel and shard coalescing do most of the
// work; a parse or cache change should leave it flat.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <unordered_map>

#include "inputs.h"
#include "serve/profile_bin.h"
#include "speed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using spire::model::Ensemble;
using spire::sampling::Dataset;
using namespace spire::server;

namespace {

constexpr double kDefaultClassShare = 0.25;
constexpr double kZipfExponent = 1.0;

double ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

std::uint64_t counter(const StatsReply& stats, const std::string& name) {
  for (const auto& [key, value] : stats.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// How far server counter `name` moved between two snapshots.
std::uint64_t delta(const StatsReply& before, const StatsReply& after,
                    const std::string& name) {
  return counter(after, name) - counter(before, name);
}

}  // namespace

ServingFixture::ServingFixture(const std::string& root,
                               const std::string& socket,
                               const std::vector<const Ensemble*>& models,
                               const std::string& warm_payload, bool binary,
                               ServerOptions options) {
  fs::remove_all(root);
  fs::remove(socket);
  registry_ = std::make_unique<spire::serve::ModelRegistry>(root);
  for (const Ensemble* model : models) {
    trace::Span span("serve.publish");
    ids_.push_back(registry_->publish(*model));
  }
  options.socket_path = socket;
  server_ = std::make_unique<EstimationServer>(*registry_, options);
  {
    trace::Span span("server.start");
    server_->start();
  }
  // Warm-up: spin up and map every shard, bind the default class.
  ClientOptions client_options;
  client_options.socket_path = socket;
  Client client(client_options);
  std::vector<std::string> targets = ids_;
  targets.push_back("");
  for (const std::string& id : targets) {
    trace::Span span("server.warmup");
    try {
      EstimateReply reply;
      if (binary) {
        EstimateBinRequest request;
        request.model_id = id;
        request.profiles = {std::string_view(warm_payload)};
        reply = client.estimate_bin(std::move(request));
      } else {
        EstimateRequest request;
        request.model_id = id;
        request.workload_csvs = {warm_payload};
        reply = client.estimate(std::move(request));
      }
      warm_ok_ &= reply.results.size() == 1 &&
                  reply.results[0].status == ErrorCode::kOk;
    } catch (const std::exception&) {
      warm_ok_ = false;
    }
  }
}

ServingFixture::~ServingFixture() {
  server_->begin_shutdown();
  (void)server_->wait_until_drained();
  server_.reset();
}

void check_replies(const LoadResult& load,
                   const std::vector<const Ensemble*>& models,
                   const std::vector<Dataset>& profiles, bool break_oracle,
                   Report& report) {
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  std::uint64_t mismatches = 0;
  for (const Outcome& o : load.outcomes) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(o.model) << 32) | o.profile;
    auto it = expected.find(key);
    if (it == expected.end()) {
      const Dataset& data = profiles[o.profile];
      const auto e = oracle_estimate(*models[o.model], data, break_oracle);
      it = expected.emplace(key, digest(wire_result(e, data.size()))).first;
    }
    if (it->second != o.digest) ++mismatches;
  }
  report.check(mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(load.outcomes.size()) +
                   " replies differ from Ensemble::estimate of the model "
                   "they name");
  report.check(load.unknown_model_replies == 0,
               std::to_string(load.unknown_model_replies) +
                   " replies name a model that was never published");
}

void report_load(const LoadResult& load, const StatsReply& before,
                 const StatsReply& after, const ShardsReply& shards,
                 Report& report) {
  const auto moved = [&](const std::string& name) {
    return delta(before, after, name);
  };
  const double sent = static_cast<double>(std::max<std::uint64_t>(
      load.attempted, 1));
  // Per window, then the median across windows: a burst of host noise
  // that the probes around a window did not see moves that window only.
  std::vector<double> rate, p50, p90;
  for (const LoadWindow& w : load.windows) {
    const auto ok =
        std::count_if(w.latency_ms.begin(), w.latency_ms.end(),
                      [](double ms) { return std::isfinite(ms); });
    rate.push_back(static_cast<double>(ok) / w.seconds);
    p50.push_back(quantile(w.latency_ms, 0.50));
    p90.push_back(quantile(w.latency_ms, 0.90));
  }
  report.add("req_per_s", median(rate), "1/s");
  report.add("p50_ms", median(p50), "ms");
  report.add("p90_ms", median(p90), "ms");
  // Every server shed is a failed operation. A shed the client retried is
  // also an extra attempt; a shed it gave up on is already among the
  // client's failures.
  const std::uint64_t server_shed = moved("shed_overloaded");
  const std::uint64_t retried =
      server_shed > load.shed ? server_shed - load.shed : 0;
  report.attempted += load.attempted + retried;
  report.failed += load.failed + retried;
  report.shape.push_back(
      "failed " + std::to_string(load.failed + retried) + " of " +
      std::to_string(load.attempted + retried) + " (server shed " +
      std::to_string(server_shed) + ", " + std::to_string(retried) +
      " of them retried by the client)");

  report.layer("serve.memo_hit_ratio",
               ratio(moved("cache_hits"), moved("cache_misses")), "fraction");
  report.layer("serve.profile_hit_ratio",
               ratio(moved("profile_parse_hits"),
                     moved("profile_parse_misses")),
               "fraction");
  report.layer("serve.registry_hit_ratio",
               ratio(moved("registry_cache_hits"),
                     moved("registry_cache_misses")),
               "fraction");
  const double batches = static_cast<double>(moved("coalesced_batches"));
  report.layer("serve.requests_per_batch",
               batches > 0 ? static_cast<double>(moved("coalesced_requests")) /
                                 batches
                           : 0.0,
               "count");
  report.layer("serve.eval_planned_lanes",
               static_cast<double>(load.planned_lanes) / sent, "lanes/req");
  report.layer("serve.eval_scalar_lanes",
               static_cast<double>(load.scalar_lanes) / sent, "lanes/req");
  report.layer("server.bytes_in_per_req",
               static_cast<double>(moved("bytes_read")) / sent, "B");
  report.layer("server.bytes_out_per_req",
               static_cast<double>(moved("bytes_written")) / sent, "B");
  report.layer("server.frames_pipelined",
               static_cast<double>(moved("frames_pipelined")), "count");
  report.layer("server.shed", static_cast<double>(server_shed), "count");
  report.shape.push_back("live shards after the load: " +
                         std::to_string(shards.shards.size()));
}

void run_serving(const Args& args, bool binary, Report& report, bool ladder) {
  const Sizes size = sizes_for(args.tiny);
  const std::string dir =
      kWorkDir + (binary ? "/serve-bin" : "/serve-text");
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Inputs: a pure function of the seed, generated before set-up.
  const std::size_t model_count = binary ? size.bin_models : size.text_models;
  const std::size_t profile_count =
      binary ? size.bin_profiles : size.text_profiles;
  const int windows = binary ? size.bin_windows : size.text_windows;
  std::vector<Ensemble> fleet;
  for (std::size_t i = 0; i <= model_count; ++i) {  // the last is the swap-in
    fleet.push_back(fleet_model(args.seed * 7919 + i));
  }
  std::vector<const Ensemble*> models;
  for (const Ensemble& m : fleet) models.push_back(&m);
  std::vector<Dataset> profiles;
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < profile_count; ++i) {
    profiles.push_back(fleet_profile(args.seed * 104729 + i, windows));
    payloads.push_back(binary ? spire::serve::profile_bin::compile(profiles.back())
                              : to_csv(profiles.back()));
  }
  const Dataset warm = fleet_profile(args.seed * 104729 + profile_count, windows);
  const std::string warm_payload =
      binary ? spire::serve::profile_bin::compile(warm) : to_csv(warm);
  const std::string swap_id =
      spire::serve::ModelRegistry(dir + "/ids").publish(fleet.back());

  // Set-up, kSetups times (median): publish, start, warm every shard.
  const std::vector<const Ensemble*> served(models.begin(),
                                            models.begin() + model_count);
  const std::string socket = dir + "/s.sock";
  std::optional<ServingFixture> fixture;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    setups.push_back(normalized_seconds(1, [&] {
      fixture.emplace(dir + "/registry", socket, served, warm_payload, binary);
    }));
    report.check(fixture->warm_ok(), "serving warm-up failed");
  }
  report.add("setup_s", median(setups), "s");

  LoadConfig load;
  load.socket = socket;
  load.binary = binary;
  load.seconds = static_cast<double>(args.seconds) / kRounds;
  load.model_ids = fixture->ids();
  load.model_ids.push_back(swap_id);
  load.payloads = &payloads;
  std::vector<spire::util::Rng> rngs;
  for (std::size_t c = 0; c < kConnections; ++c) {
    rngs.emplace_back(args.seed * 31 + c);
  }
  const Zipf zipf_models(model_count, kZipfExponent);
  const Zipf zipf_profiles(profile_count, kZipfExponent);
  std::vector<RequestSpec> scan;
  std::atomic<std::uint64_t> next{0};
  if (binary) {
    for (std::size_t m = 0; m < model_count; ++m) {
      for (std::size_t p = 0; p < profile_count; ++p) {
        scan.push_back({static_cast<int>(m), p});
      }
    }
    spire::util::Rng shuffle(args.seed);
    shuffle.shuffle(scan);
    load.pick = [&](std::size_t) {
      return scan[next.fetch_add(1, std::memory_order_relaxed) % scan.size()];
    };
  } else {
    load.pick = [&](std::size_t conn) {
      spire::util::Rng& rng = rngs[conn];
      const int model =
          rng.chance(kDefaultClassShare) ? -1 : static_cast<int>(zipf_models(rng));
      return RequestSpec{model, zipf_profiles(rng)};
    };
    load.swap_after = size.swap_after;
    load.before_swap = [&] {
      trace::Span span("serve.publish");
      (void)fixture->registry().publish(fleet.back());
    };
  }

  // Companion inputs: the fit job runs over a synthetic suite shaped like
  // the real one (27 workloads, the last 4 held out for testing), so one
  // fit job does as much work as on `reproduce`.
  const auto companion_entries = suite_subset(size.companion_entries);
  Reproduction collected;
  Reproduction r;
  constexpr std::size_t kSuite = 27;
  for (std::size_t i = 0; i < kSuite; ++i) {
    r.workloads.push_back({"synthetic-" + std::to_string(i),
                           fleet_profile(args.seed * 15485863 + i,
                                         size.text_windows)});
    r.testing.push_back(i + 4 >= kSuite);
  }
  write_profiles(r, dir + "/synthetic");

  // The load, a collect of each companion workload and fit jobs alternate,
  // so that collect_s, the fastest of each workload's collects, picks from
  // the whole run; the swap happens in the first load window only.
  const StatsReply before = fixture->server().stats_snapshot();
  LoadResult result;
  for (int round = 0; round < kRounds; ++round) {
    run_load(load, result);
    collect_suite(companion_entries, size.collect_cycles, args.seed,
                  collected);
    fit_jobs(r, size.companion_seconds / kRounds, dir, report);
  }
  const StatsReply after = fixture->server().stats_snapshot();
  const ShardsReply shards = fixture->server().shards_snapshot();
  fixture.reset();

  report_load(result, before, after, shards, report);
  if (!result.first_error.empty()) {
    report.shape.push_back("first failure: " + result.first_error);
  }
  check_replies(result, models, profiles, args.break_oracle, report);

  const double memo = report.value("serve.memo_hit_ratio");
  const double parse = report.value("serve.profile_hit_ratio");
  if (binary) {
    // Binary requests carry a view, so the profile cache is never asked and
    // its ratio is 0 by construction: check that nothing was parsed.
    const std::uint64_t parses =
        delta(before, after, "profile_parse_hits") +
        delta(before, after, "profile_parse_misses");
    report.shape_check(memo == 0.0, "serve.memo_hit_ratio " +
                                        std::to_string(memo) + " == 0");
    report.shape_check(parses == 0, "profile parse lookups " +
                                        std::to_string(parses) + " == 0");
  } else {
    report.shape_check(memo > 0.0 && memo < 1.0,
                       "0 < serve.memo_hit_ratio " + std::to_string(memo) +
                           " < 1");
    report.shape_check(parse > 0.0 && parse < 1.0,
                       "0 < serve.profile_hit_ratio " + std::to_string(parse) +
                           " < 1");
  }
  check_fit(r, dir, args.break_oracle, report);
  report_collect(collected, report);
  report_fit(r, report);

  if (ladder) {
    LadderInputs in;
    in.models = &served;
    in.profiles = &profiles;
    in.binary = binary;
    in.training = &r.training;
    in.count = std::min(size.ladder_profiles, profiles.size());
    in.seed = args.seed;
    in.dir = dir + "/ladder";
    in.socket = dir + "/l.sock";
    run_ladder(in, report);
  }
}

}  // namespace perfbench
