// Closed-loop serving load: one process, up to nproc client threads, one
// connection each. Every caller waits for its verdict before sending the
// next request, as `spire_cli estimate --server` or a CI profiler does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/client.h"

namespace perfbench {

/// Client connections, one thread each. Fewer than nproc (4 on the host the
/// benchmark was sized on), so that the client, reader and shard threads
/// together fit on the vCPUs instead of queueing for them.
inline constexpr std::size_t kConnections = 2;
/// Frames a binary connection keeps in flight per Client::pipeline call.
inline constexpr std::size_t kWindow = 8;

struct RequestSpec {
  int model = -1;  // index into LoadConfig::model_ids; -1 = default class
  std::size_t profile = 0;
};

struct LoadConfig {
  std::string socket;
  /// Binary: each connection runs Client::pipeline over kWindow
  /// kEstimateBinRequest frames at a time. Text: sequential
  /// Client::estimate calls with one CSV workload each.
  bool binary = false;
  double seconds = 10.0;
  /// Every id a reply may name; replies are checked against these.
  std::vector<std::string> model_ids;
  /// One encoded profile (CSV text or spire-profile-bin) per profile index.
  const std::vector<std::string>* payloads = nullptr;
  /// Called only by connection `conn`'s own thread.
  std::function<RequestSpec(std::size_t conn)> pick;
  /// After this many requests on connection 0 in the first window of the
  /// first run_load, call `before_swap` and then Client::swap on the default
  /// class. 0 = no swap.
  std::uint64_t swap_after = 0;
  std::function<void()> before_swap;
};

/// One successful reply, kept for the oracle check after the timed phase.
struct Outcome {
  std::uint32_t model = 0;  // index of the id the reply named
  std::uint32_t profile = 0;
  std::uint64_t digest = 0;
};

/// One window of load: all connections for kWindowS, between two host-speed
/// probes (see speed.h). Its times are scaled to the nominal host speed.
struct LoadWindow {
  double seconds = 0.0;  // its wall time, scaled
  double speed = 1.0;    // the host speed the times were scaled by
  /// Client-side send-to-reply times; a failed or shed request is +inf.
  std::vector<double> latency_ms;
};

/// Window length: long enough for thousands of requests per window, short
/// enough that the host speed changes little within one.
inline constexpr double kWindowS = 0.25;

/// The windows of one or more run_load calls.
struct LoadResult {
  std::vector<LoadWindow> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;  // failures the server answered kOverloaded
  std::vector<Outcome> outcomes;
  std::uint64_t unknown_model_replies = 0;
  std::string first_error;
  /// How far the process-wide eval lane counters moved during the windows.
  std::uint64_t planned_lanes = 0;
  std::uint64_t scalar_lanes = 0;
};

/// Runs `config.seconds` of load as back-to-back windows and appends them to
/// `out`.
void run_load(const LoadConfig& config, LoadResult& out);

}  // namespace perfbench
