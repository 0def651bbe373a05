// spire_perfbench: the repository benchmark.
//
//   spire_perfbench --workload reproduce|serve-text|serve-bin --seed N
//                   --seconds S --trace 0|1 [--commit ID] [--tiny]
//                   [--break-oracle]
//
// --trace 0 runs the workload once and prints every end-to-end metric.
// --trace 1 runs it twice, untraced then with spans on plus the layer
// ladder, and prints every layer metric, each layer's self time and the
// tracing overhead (traced end-to-end numbers against the untraced ones).
// The last line of stdout is the result object; the lines before it are the
// run facts and the workload-shape checks. A run whose outputs are wrong
// prints "correct": false.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sys/resource.h>

#include "common.h"
#include "serve/model_eval.h"
#include "speed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Sizes sizes_for(bool tiny) {
  if (tiny) {
    return {.suite_entries = 3, .collect_cycles = 1'000'000,
            .collect_repeats = 1, .companion_seconds = 0.3,
            .companion_entries = 2, .text_models = 4,
            .text_profiles = 300, .text_windows = 4, .swap_after = 20,
            .bin_models = 4, .bin_profiles = 256, .bin_windows = 4,
            .ladder_profiles = 4};
  }
  return {.suite_entries = 27, .collect_cycles = 1'000'000,
          .collect_repeats = 3, .companion_seconds = 5.0,
          .companion_entries = 4, .text_models = 32,
          .text_profiles = 1024, .text_windows = 20, .swap_after = 200,
          .bin_models = 4, .bin_profiles = 256, .bin_windows = 80,
          .ladder_profiles = 32};
}

namespace {

constexpr const char* kLayers[] = {"sim",   "sampling", "pipeline", "spire",
                                   "util",  "serve",    "server"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  // A request that failed counts as missing every latency limit; JSON has
  // no infinity, so a percentile that lands on one prints as 1e12.
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--break-oracle") {
      args.break_oracle = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace" ||
               flag == "--commit") {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") args.workload = v;
      if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args.seconds = std::atoi(v);
      if (flag == "--trace") args.trace = std::strcmp(v, "0") != 0;
      if (flag == "--commit") args.commit = v;
    } else {
      return false;
    }
  }
  return (args.workload == "reproduce" || args.workload == "serve-text" ||
          args.workload == "serve-bin") &&
         args.seconds > 0;
}

void run_workload(const Args& args, Report& report, bool ladder) {
  if (args.workload == "reproduce") {
    run_reproduce(args, report, ladder);
  } else {
    run_serving(args, args.workload == "serve-bin", report, ladder);
  }
  report.shape.push_back(speeds_summary());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
}

void print_facts(const Args& args) {
  std::cout << "{\"run_facts\": {\"workload\": " << json_string(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"spire_simd\": " << (PERFBENCH_SIMD ? "\"ON\"" : "\"OFF\"")
            << ", \"eval_kernel_vectorized\": "
            << (spire::serve::eval_kernel_vectorized() ? "true" : "false")
            << ", \"commit\": " << json_string(args.commit)
            << ", \"tiny\": " << (args.tiny ? "true" : "false") << "}}\n";
}

void print_result(const Report& report,
                  const std::vector<Report::Metric>& metrics) {
  std::cout << "{\"shape\": [";
  for (std::size_t i = 0; i < report.shape.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(report.shape[i]);
  }
  std::cout << "], \"problems\": [";
  for (std::size_t i = 0; i < report.problems.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(report.problems[i]);
  }
  std::cout << "]}\n";
  std::cout << "{\"correct\": "
            << (report.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(metrics[i].name)
              << ": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  print_facts(args);
  if (!args.trace) {
    Report report;
    run_workload(args, report, false);
    print_result(report, report.end_to_end);
    return 0;
  }
  Report untraced;
  run_workload(args, untraced, false);
  trace::set_enabled(true);
  Report traced;
  run_workload(args, traced, true);
  trace::set_enabled(false);

  std::vector<Report::Metric> metrics = traced.layers;
  const auto self = trace::self_seconds();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    metrics.push_back({std::string(layer) + ".self_s",
                       it == self.end() ? 0.0 : it->second, "s"});
  }
  for (const char* name : {"req_per_s", "p50_ms", "collect_s", "fit_s"}) {
    const double base = untraced.value(name);
    metrics.push_back({std::string("trace.overhead.") + name,
                       base > 0 ? traced.value(name) / base - 1.0 : 0.0,
                       "fraction"});
  }
  std::filesystem::create_directories(kWorkDir);
  const std::string spans = kWorkDir + "/trace-" + args.workload + "-" +
                            std::to_string(args.seed) + ".tsv";
  trace::write_tsv(spans);
  traced.shape.push_back(std::to_string(trace::span_count()) +
                         " spans written to " + spans);

  traced.problems.insert(traced.problems.end(), untraced.problems.begin(),
                         untraced.problems.end());
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  print_result(traced, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: spire_perfbench --workload reproduce|serve-text|"
                 "serve-bin --seed N --seconds S --trace 0|1 [--commit ID] "
                 "[--tiny] [--break-oracle]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "spire_perfbench: " << e.what() << '\n';
    return 1;
  }
}
