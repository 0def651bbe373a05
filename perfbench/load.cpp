#include "load.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string_view>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "serve/model_eval.h"
#include "speed.h"
#include "trace.h"

namespace perfbench {

using namespace spire::server;

namespace {

constexpr double kMissed = std::numeric_limits<double>::infinity();

struct Lane {
  std::vector<double> latency_ms;
  std::vector<Outcome> outcomes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t unknown = 0;
  std::string first_error;

  void fail(const std::string& why, bool overloaded) {
    ++failed;
    if (overloaded) ++shed;
    sample(kMissed);
    if (first_error.empty()) first_error = why;
  }
  void sample(double ms) { latency_ms.push_back(ms); }
};

class Connection {
 public:
  Connection(const LoadConfig& config, std::size_t conn, Lane& lane)
      : config_(config), conn_(conn), lane_(lane) {
    for (std::size_t i = 0; i < config.model_ids.size(); ++i) {
      index_[config.model_ids[i]] = static_cast<std::uint32_t>(i);
    }
    ClientOptions options;
    options.socket_path = config.socket;
    options.backoff.seed = 1000 + conn;
    client_ = std::make_unique<Client>(options);
  }

  /// Sends until `stop`. Connection 0 swaps once after `swap_after`
  /// requests (0 = never).
  void run(Clock::time_point stop, std::uint64_t swap_after) {
    trace::Span span("server.connection", conn_);
    bool swapped = false;
    while (Clock::now() < stop) {
      if (config_.binary) {
        pipeline_round();
      } else {
        text_request();
      }
      if (conn_ == 0 && swap_after > 0 && !swapped &&
          lane_.attempted >= swap_after) {
        swap();
        swapped = true;
      }
    }
  }

 private:
  std::uint64_t request_id() const {
    return (static_cast<std::uint64_t>(conn_ + 1) << 40) | lane_.attempted;
  }

  void record(const RequestSpec& spec, const EstimateReply& reply,
              double ms) {
    if (reply.results.size() != 1 ||
        reply.results[0].status != ErrorCode::kOk) {
      lane_.fail(reply.results.empty() ? "empty reply"
                                       : reply.results[0].error,
                 false);
      return;
    }
    const auto it = index_.find(reply.model_id);
    if (it == index_.end()) {
      ++lane_.unknown;
      lane_.fail("reply names unknown model " + reply.model_id, false);
      return;
    }
    lane_.sample(ms);
    lane_.outcomes.push_back({it->second,
                              static_cast<std::uint32_t>(spec.profile),
                              digest(reply.results[0])});
  }

  std::string model_id(const RequestSpec& spec) const {
    return spec.model < 0 ? std::string()
                          : config_.model_ids[static_cast<std::size_t>(
                                spec.model)];
  }

  void text_request() {
    const RequestSpec spec = config_.pick(conn_);
    EstimateRequest request;
    request.model_id = model_id(spec);
    request.workload_csvs = {(*config_.payloads)[spec.profile]};
    trace::Span span("server.request", request_id());
    ++lane_.attempted;
    const auto start = Clock::now();
    try {
      const EstimateReply reply = client_->estimate(std::move(request));
      record(spec, reply, seconds_since(start) * 1e3);
    } catch (const ServerError& e) {
      lane_.fail(e.what(), e.code() == ErrorCode::kOverloaded);
    } catch (const std::exception& e) {
      lane_.fail(e.what(), false);
    }
  }

  void pipeline_round() {
    std::vector<RequestSpec> specs;
    std::vector<Client::PipelineRequest> frames;
    for (std::size_t i = 0; i < kWindow; ++i) {
      const RequestSpec spec = config_.pick(conn_);
      EstimateBinRequest request;
      request.model_id = model_id(spec);
      request.profiles = {std::string_view((*config_.payloads)[spec.profile])};
      frames.push_back({FrameType::kEstimateBinRequest,
                        encode_estimate_bin_request(request, Limits{})});
      specs.push_back(spec);
    }
    std::vector<Client::PipelineResult> results;
    trace::Span span("server.request", request_id());
    lane_.attempted += frames.size();
    const auto start = Clock::now();
    client_->pipeline(frames, &results, kWindow);
    const double ms = seconds_since(start) * 1e3;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Client::PipelineResult& r =
          i < results.size() ? results[i] : Client::PipelineResult{};
      if (!r.ok) {
        lane_.fail(r.error.empty() ? "no reply" : r.error, false);
        continue;
      }
      try {
        if (r.header.type == FrameType::kErrorReply) {
          const ErrorReply error = decode_error_reply(r.payload, Limits{});
          lane_.fail(error.message, error.code == ErrorCode::kOverloaded);
        } else if (r.header.type != FrameType::kEstimateBinReply) {
          lane_.fail("unexpected reply frame type", false);
        } else {
          record(specs[i], decode_estimate_reply(r.payload, Limits{}), ms);
        }
      } catch (const std::exception& e) {
        lane_.fail(e.what(), false);
      }
    }
  }

  void swap() {
    ++lane_.attempted;
    config_.before_swap();
    trace::Span span("server.swap");
    try {
      (void)client_->swap("");
    } catch (const std::exception& e) {
      lane_.fail(std::string("swap: ") + e.what(), false);
    }
  }

  const LoadConfig& config_;
  const std::size_t conn_;
  Lane& lane_;
  std::unordered_map<std::string, std::uint32_t> index_;
  std::unique_ptr<Client> client_;
};

}  // namespace

void run_load(const LoadConfig& config, LoadResult& out) {
  const auto lanes_before = spire::serve::eval_counters_snapshot();
  const auto windows = std::max<long>(1, std::lround(config.seconds / kWindowS));
  for (long w = 0; w < windows; ++w) {
    // The swap happens once per workload run, in its first window.
    const std::uint64_t swap_after =
        out.windows.empty() ? config.swap_after : 0;
    std::vector<Lane> lanes(kConnections);
    LoadWindow window;
    window.seconds = normalized_seconds(
        kAllThreads,
        [&] {
          const auto stop =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWindowS));
          std::vector<std::thread> threads;
          for (std::size_t c = 0; c < kConnections; ++c) {
            threads.emplace_back([&config, &lanes, c, stop, swap_after] {
              try {
                Connection(config, c, lanes[c]).run(stop, swap_after);
              } catch (const std::exception& e) {
                lanes[c].fail(std::string("connection: ") + e.what(), false);
              }
            });
          }
          for (std::thread& t : threads) t.join();
        },
        &window.speed);
    for (Lane& lane : lanes) {
      for (const double ms : lane.latency_ms) {
        window.latency_ms.push_back(ms * window.speed);
      }
      out.outcomes.insert(out.outcomes.end(), lane.outcomes.begin(),
                          lane.outcomes.end());
      out.attempted += lane.attempted;
      out.failed += lane.failed;
      out.shed += lane.shed;
      out.unknown_model_replies += lane.unknown;
      if (out.first_error.empty()) out.first_error = lane.first_error;
    }
    out.windows.push_back(std::move(window));
  }
  const auto lanes_after = spire::serve::eval_counters_snapshot();
  out.planned_lanes += lanes_after.planned_lanes - lanes_before.planned_lanes;
  out.scalar_lanes += lanes_after.scalar_lanes - lanes_before.scalar_lanes;
}

}  // namespace perfbench
