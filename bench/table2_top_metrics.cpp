// Reproduces paper Table II: the top-10 SPIRE performance metrics for each
// of the four testing workloads, annotated with the measured IPC, the mean
// IPC estimations, each metric's closest TMA area (Table III's coloring),
// and the workload's main TMA bottleneck from the baseline analysis.
//
// The paper's claim being reproduced: SPIRE's lowest-estimate metrics point
// at the same bottleneck families VTune's Top-Down Analysis identifies --
// TNN front-end (DSB starvation), Scikit bad speculation, ONNX memory/DRAM,
// Parboil core (locks, divider, port under-utilization).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "spire/analyzer.h"
#include "util/table.h"

using namespace spire;

// `--fresh` ignores spire_bench_cache/ and re-collects the suite and
// re-trains the model (the ctest gate runs it so).
int main(int argc, char** argv) {
  const bool fresh = argc > 1 && std::strcmp(argv[1], "--fresh") == 0;
  std::printf("=== Table II reproduction: top 10 SPIRE metrics per test workload ===\n\n");
  const auto suite = bench::collect_suite(!fresh);
  const auto ensemble = bench::trained_ensemble(suite, !fresh);
  model::Analyzer analyzer(ensemble);

  std::printf("(ensemble: %zu metric rooflines trained on %zu samples)\n\n",
              ensemble.metric_count(),
              bench::training_dataset(suite).size());

  // The paper's claim is qualitative: "SPIRE accurately identified many of
  // the same bottlenecks". We quantify it per workload via bench_util's
  // tma_agreement: TMA's dominant loss area must appear in SPIRE's top 10,
  // and at least 4 of the top 10 must point at TMA's major loss areas.
  int agreements = 0;
  int total = 0;
  for (const auto& cw : suite) {
    if (!cw.entry.testing) continue;
    const auto analysis = analyzer.analyze(cw.samples);
    const auto tma_result = tma::analyze(cw.counters);
    const auto tma_area = tma_result.main_bottleneck();
    const auto spire_area = model::Analyzer::dominant_area(analysis);

    std::printf("---- %s / %s ----\n", cw.entry.profile.name.c_str(),
                cw.entry.profile.config.c_str());
    std::printf("measured IPC: %.2f   main TMA bottleneck: %s   (expected: %s)\n",
                analysis.measured_throughput,
                std::string(counters::tma_area_name(tma_area)).c_str(),
                std::string(counters::tma_area_name(cw.entry.expected_bottleneck))
                    .c_str());

    util::TextTable table({"Mean est.", "Abbr.", "Metric", "Closest TMA area"});
    table.set_align(0, util::Align::kRight);
    for (std::size_t i = 0; i < 10 && i < analysis.ranking.size(); ++i) {
      const auto& r = analysis.ranking[i];
      table.add_row({util::format_fixed(r.p_bar, 2),
                     std::string(r.abbrev.empty() ? "-" : r.abbrev),
                     std::string(r.name),
                     std::string(counters::tma_area_name(r.area))});
    }
    std::printf("%s", table.render().c_str());

    const auto agreement = bench::tma_agreement(analysis, tma_result);
    std::string areas;
    for (const auto area : agreement.major_losses) {
      if (!areas.empty()) areas += ", ";
      areas += std::string(counters::tma_area_name(area));
    }
    std::printf("SPIRE dominant area: %s; %d/10 top metrics fall in TMA's "
                "major loss areas (%s) -> %s\n\n",
                std::string(counters::tma_area_name(spire_area)).c_str(),
                agreement.overlap, areas.c_str(),
                agreement.agrees() ? "AGREES" : "disagrees");
    ++total;
    if (agreement.agrees()) ++agreements;
  }
  std::printf("summary: SPIRE identifies TMA's bottleneck categories on %d/%d test workloads\n",
              agreements, total);
  return agreements == total ? 0 : 1;
}
