// Shared vocabulary of the benchmark program: run arguments, the metric
// list a run prints, and the small statistics every phase uses.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Harness self-test sizes: every phase runs, at a fraction of the work.
  bool tiny = false;
  /// Harness self-test: perturb every oracle value by one ulp, so a correct
  /// program must be reported as wrong.
  bool break_oracle = false;
  std::string commit = "unknown";
};

/// Where a run keeps its registries, sockets, profiles and span file,
/// relative to the checkout root the run starts in.
inline const std::string kWorkDir = ".bench_build/work";

/// What one pass of a workload reports: the end-to-end metrics, the layer
/// metrics, operations attempted and failed, and every check that did not
/// hold (any entry makes the run incorrect).
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Workload-shape checks, printed with every run whether or not they hold.
  std::vector<std::string> shape;

  void add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void shape_check(bool ok, const std::string& what) {
    shape.push_back(what + (ok ? ": ok" : ": FAILED"));
    check(ok, "workload shape: " + what);
  }
  /// The value of metric `name`, end-to-end or layer (0 when absent).
  double value(const std::string& name) const {
    for (const auto* list : {&end_to_end, &layers}) {
      for (const Metric& m : *list) {
        if (m.name == name) return m.value;
      }
    }
    return 0.0;
  }
};

/// Run sizes. The full sizes are the benchmark; `tiny` is the harness
/// self-test, which runs every phase at a fraction of the work.
struct Sizes {
  std::size_t suite_entries;    // reproduce: suite workloads collected
  std::uint64_t collect_cycles; // per suite workload
  int collect_repeats;          // reproduce: collects per suite workload
  double companion_seconds;     // each companion phase (see workloads.h)
  std::size_t companion_entries;  // serve-*: suite workloads collected
  std::size_t text_models;
  std::size_t text_profiles;
  int text_windows;
  std::uint64_t swap_after;
  std::size_t bin_models;
  std::size_t bin_profiles;
  int bin_windows;
  std::size_t ladder_profiles;
};

Sizes sizes_for(bool tiny);

/// Set-ups per run; setup_s is their median. On reproduce, one comes first
/// and the rest are spread over the kRounds slices, two to a slice.
inline constexpr int kSetups = 11;

/// A run's timed phases (on serve-*: the load, the companion collect and
/// fit jobs; on reproduce, after the collects: fit jobs, the serving pass
/// and set-ups) alternate in this many slices, so that each metric samples
/// the whole run, not one stretch of it.
inline constexpr int kRounds = 5;

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile, `q` in [0, 1] (0 when empty).
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
