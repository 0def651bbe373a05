// The layer ladder: the same profiles go through each serving layer in
// turn (kernel -> estimate_csvs -> Shard -> one round trip on one
// connection), each row timed per profile, so the drop between adjacent
// rows is what that layer costs. Every row's answers are checked against
// Ensemble::estimate. The rows share request ids (the profile index) in
// the trace. Also times the reproduction-side probes: one pool call, train
// at 1 and 4 threads, and Ensemble::estimate at 1 and 4 threads.
#include <algorithm>
#include <filesystem>
#include <future>
#include <string_view>

#include "inputs.h"
#include "serve/compiled_model.h"
#include "serve/profile_bin.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using spire::model::Ensemble;
using spire::sampling::Dataset;
using spire::sampling::DatasetView;

namespace {

/// Timed hot swaps on the round-trip server; server.swap_ms is their median.
constexpr std::size_t kSwaps = 5;

/// Median wall time of `body(k)` over k in [0, n), in microseconds, each
/// call inside a span named `name` carrying request id k + 1.
template <typename Body>
double median_us(const char* name, std::size_t n, Body&& body) {
  std::vector<double> us;
  for (std::size_t k = 0; k < n; ++k) {
    trace::Span span(name, k + 1);
    const auto start = Clock::now();
    body(k);
    us.push_back(seconds_since(start) * 1e6);
  }
  return median(us);
}

}  // namespace

void run_ladder(const LadderInputs& in, Report& report) {
  fs::remove_all(in.dir);
  fs::create_directories(in.dir);
  const std::vector<const Ensemble*>& models = *in.models;
  const Ensemble& model = *models.front();
  const std::size_t n = in.count;
  std::vector<DatasetView> views;
  std::vector<std::string> csvs;
  std::vector<std::string> bins;
  std::vector<std::uint64_t> expected;
  for (std::size_t k = 0; k < n; ++k) {
    const Dataset& data = (*in.profiles)[k];
    views.emplace_back(data);
    csvs.push_back(to_csv(data));
    bins.push_back(spire::serve::profile_bin::compile(views.back()));
    expected.push_back(digest(
        wire_result(oracle_estimate(model, data, false), data.size())));
  }
  std::uint64_t wrong = 0;
  const auto check = [&](std::size_t k, const spire::serve::BatchResult& r) {
    if (!r.ok() || digest(wire_result(*r.estimate, r.samples)) != expected[k]) {
      ++wrong;
    }
  };

  // util: one pool call over 4 trivial tasks.
  report.layer("util.pool_call_us",
               median_us("util.pool_call", 200, [](std::size_t) {
                 (void)spire::util::parallel_for_index(
                     spire::util::ExecOptions{4}, 4,
                     [](std::size_t i) { return i; });
               }),
               "us");

  // spire: train at 1 and 4 threads; estimate at 4 and 1.
  Ensemble::TrainOptions serial;
  serial.exec = spire::util::ExecOptions{1};
  Ensemble::TrainOptions parallel;
  parallel.exec = spire::util::ExecOptions{4};
  const double train_1 = median_us("spire.train_serial", 3, [&](std::size_t) {
    (void)Ensemble::train(*in.training, serial);
  });
  const double train_4 = median_us("spire.train_4t", 3, [&](std::size_t) {
    (void)Ensemble::train(*in.training, parallel);
  });
  report.layer("spire.train_speedup_4t", train_1 / train_4, "x");
  report.layer("spire.estimate_us",
               median_us("spire.estimate", n,
                         [&](std::size_t k) {
                           (void)model.estimate(
                               views[k], spire::model::Merge::kTimeWeighted,
                               spire::util::ExecOptions{4});
                         }),
               "us");
  report.layer("spire.estimate_serial_us",
               median_us("spire.estimate_serial", n,
                         [&](std::size_t k) { (void)model.estimate(views[k]); }),
               "us");

  // serve: publish, map and compile each model.
  spire::serve::ModelRegistry registry(in.dir + "/registry", models.size() + 1);
  std::vector<std::string> ids(models.size());
  report.layer("serve.publish_us",
               median_us("serve.publish", models.size(),
                         [&](std::size_t i) {
                           ids[i] = registry.publish(*models[i]);
                         }),
               "us");
  std::vector<std::shared_ptr<const spire::serve::MappedModel>> mapped(
      models.size());
  report.layer(
      "serve.map_us",
      median_us("serve.map", models.size(),
                [&](std::size_t i) { mapped[i] = registry.open(ids[i]); }),
      "us");
  report.layer("serve.compile_us",
               median_us("serve.compile", models.size(),
                         [&](std::size_t i) {
                           (void)spire::serve::CompiledModel::compile(
                               *models[i]);
                         }),
               "us");

  // Ladder rows 1 and 2: the kernel over pre-parsed views, then the parse
  // plus the kernel over CSV text.
  const spire::serve::EstimationService service(mapped.front());
  report.layer("serve.kernel_us",
               median_us("serve.kernel", n,
                         [&](std::size_t k) {
                           spire::serve::ViewJob job;
                           job.view = &views[k];
                           check(k, service.estimate_views({&job, 1}).front());
                         }),
               "us");
  report.layer("serve.bin_parse_us",
               median_us("serve.bin_parse", n,
                         [&](std::size_t k) {
                           (void)spire::serve::profile_bin::parse(bins[k]);
                         }),
               "us");
  report.layer("serve.csv_estimate_us",
               median_us("serve.csv_estimate", n,
                         [&](std::size_t k) {
                           spire::serve::CsvJob job;
                           job.csv = &csvs[k];
                           check(k, service.estimate_csvs({&job, 1}).front());
                         }),
               "us");
  double csv_bytes = 0.0;
  double parse_s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    trace::Span span("sampling.load_csv", k + 1);
    const auto start = Clock::now();
    (void)Dataset::load_csv(std::string_view(csvs[k]));
    parse_s += seconds_since(start);
    csv_bytes += static_cast<double>(csvs[k].size());
  }
  report.layer("sampling.load_csv_mb_per_s", csv_bytes / parse_s / 1e6,
               "MB/s");

  // Row 3: a standalone Shard, from enqueue to complete.
  double shard_us = 0.0;
  {
    spire::util::ThreadPool pool(4);
    auto shard = std::make_shared<spire::serve::Shard>(ids.front(),
                                                       mapped.front(), pool, 64);
    shard_us = median_us("serve.shard", n, [&](std::size_t k) {
      std::promise<spire::serve::BatchResult> done;
      spire::serve::Shard::Request request;
      spire::serve::Shard::Workload workload;
      if (in.binary) {
        workload.view = &views[k];
      } else {
        workload.csv = csvs[k];
      }
      request.workloads.push_back(std::move(workload));
      request.complete = [&done](std::vector<spire::serve::BatchResult> r,
                                 bool) { done.set_value(std::move(r.front())); };
      if (shard->enqueue(std::move(request)) !=
          spire::serve::Shard::Enqueue::kAccepted) {
        ++wrong;
        return;
      }
      check(k, done.get_future().get());
    });
    shard->retire();
  }
  report.layer("serve.shard_us", shard_us, "us");

  // Row 4: one warm request on one connection, caches off so every round
  // trip evaluates like the rows above.
  spire::server::ServerOptions options;
  options.cache_entries = 0;
  options.profile_cache_entries = 0;
  ServingFixture fixture(in.dir + "/serve-registry", in.socket, {&model},
                         in.binary ? bins.front() : csvs.front(), in.binary,
                         options);
  spire::server::ClientOptions client_options;
  client_options.socket_path = in.socket;
  spire::server::Client client(client_options);
  const std::string id = fixture.ids().front();
  const double roundtrip_us =
      median_us("server.roundtrip", n, [&](std::size_t k) {
        spire::server::EstimateReply reply;
        if (in.binary) {
          spire::server::EstimateBinRequest request;
          request.model_id = id;
          request.profiles = {std::string_view(bins[k])};
          reply = client.estimate_bin(std::move(request));
        } else {
          spire::server::EstimateRequest request;
          request.model_id = id;
          request.workload_csvs = {csvs[k]};
          reply = client.estimate(std::move(request));
        }
        if (reply.results.size() != 1 ||
            digest(reply.results.front()) != expected[k]) {
          ++wrong;
        }
      });
  report.layer("server.roundtrip_us", roundtrip_us, "us");
  report.layer("server.wire_us", roundtrip_us - shard_us, "us");

  // Hot swaps of the default class. Before each, publish a model the server
  // has not mapped, so every swap opens and maps it, rebinds the class and
  // retires the displaced shard. latest() orders by mtime and breaks ties
  // by id, so publishing in ascending id order keeps two publishes within
  // one timestamp tick from turning a swap into a no-op.
  std::vector<Ensemble> swap_models;
  std::vector<std::pair<std::string, const Ensemble*>> swaps;
  {
    spire::serve::ModelRegistry scratch(in.dir + "/swap-ids");
    for (std::size_t k = 0; k < kSwaps; ++k) {
      swap_models.push_back(fleet_model(in.seed * 7907 + 1'000'003 + k));
    }
    for (const Ensemble& m : swap_models) {
      swaps.emplace_back(scratch.publish(m), &m);
    }
    std::sort(swaps.begin(), swaps.end());
  }
  std::vector<double> swap_ms;
  std::string bound = id;
  std::uint64_t idle_swaps = 0;
  for (std::size_t k = 0; k < swaps.size(); ++k) {
    {
      trace::Span span("serve.publish", k + 1);
      (void)fixture.registry().publish(*swaps[k].second);
    }
    trace::Span span("server.swap", k + 1);
    const auto start = Clock::now();
    const std::string now = client.swap("").model_id;
    swap_ms.push_back(seconds_since(start) * 1e3);
    if (now == bound) ++idle_swaps;
    bound = now;
  }
  report.layer("server.swap_ms", median(swap_ms), "ms");
  report.check(idle_swaps == 0,
               std::to_string(idle_swaps) +
                   " ladder swaps left the default class on its model");
  report.check(wrong == 0, std::to_string(wrong) +
                               " ladder answers differ from Ensemble::estimate");
}

}  // namespace perfbench
