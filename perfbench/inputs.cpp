#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "counters/events.h"
#include "trace.h"

namespace perfbench {

using spire::counters::Event;
using spire::sampling::Dataset;

namespace {

double pick_intensity(spire::util::Rng& rng, double inf_chance, double lo,
                      double hi) {
  return rng.chance(inf_chance) ? std::numeric_limits<double>::infinity()
                                : std::pow(10.0, rng.uniform(lo, hi));
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

std::uint64_t bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

}  // namespace

spire::model::Ensemble fleet_model(std::uint64_t seed) {
  spire::util::Rng rng(seed);
  Dataset train;
  for (const Event metric : spire::counters::metric_events()) {
    for (int i = 0; i < 60; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = pick_intensity(rng, 0.1, -1.0, 3.0);
      train.add(metric,
                {1.0, p, std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return spire::model::Ensemble::train(train);
}

Dataset fleet_profile(std::uint64_t seed, int windows) {
  spire::util::Rng rng(seed);
  Dataset d;
  for (const Event metric : spire::counters::metric_events()) {
    for (int i = 0; i < windows; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = pick_intensity(rng, 0.15, -2.0, 4.0);
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                         std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return d;
}

std::string to_csv(const Dataset& data) {
  std::ostringstream out;
  trace::Span span("sampling.save_csv");
  data.save_csv(out);
  return out.str();
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(spire::util::Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

spire::server::WorkloadResult wire_result(const spire::model::Estimate& e,
                                          std::size_t samples) {
  spire::server::WorkloadResult out;
  out.samples = samples;
  out.throughput = e.throughput;
  const std::size_t top =
      std::min(e.ranking.size(), spire::server::Limits{}.max_ranking);
  for (std::size_t j = 0; j < top; ++j) {
    const auto& r = e.ranking[j];
    out.ranking.push_back({std::string(spire::counters::event_name(r.metric)),
                           r.p_bar, static_cast<std::uint64_t>(r.samples)});
  }
  return out;
}

std::uint64_t digest(const spire::server::WorkloadResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::uint64_t>(result.status));
  h = mix(h, result.samples);
  h = mix(h, bits(result.throughput));
  h = mix(h, result.ranking.size());
  for (const auto& r : result.ranking) {
    h = mix(h, std::hash<std::string>{}(r.metric));
    h = mix(h, bits(r.p_bar));
    h = mix(h, r.samples);
  }
  return h;
}

bool same_estimate(const spire::model::Estimate& a,
                   const spire::model::Estimate& b) {
  if (bits(a.throughput) != bits(b.throughput) ||
      a.ranking.size() != b.ranking.size() ||
      a.skipped.size() != b.skipped.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    const auto& x = a.ranking[i];
    const auto& y = b.ranking[i];
    if (x.metric != y.metric || bits(x.p_bar) != bits(y.p_bar) ||
        x.samples != y.samples) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    if (a.skipped[i].metric != b.skipped[i].metric ||
        a.skipped[i].reason != b.skipped[i].reason) {
      return false;
    }
  }
  return true;
}

spire::model::Estimate oracle_estimate(const spire::model::Ensemble& model,
                                       const Dataset& data, bool perturb) {
  trace::Span span("spire.oracle");
  spire::model::Estimate e = model.estimate(spire::sampling::DatasetView(data));
  if (perturb) {
    e.throughput = std::nextafter(e.throughput,
                                  std::numeric_limits<double>::infinity());
  }
  return e;
}

}  // namespace perfbench
