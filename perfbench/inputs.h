// Seeded inputs and the one oracle.
//
// The serving fleet comes from perf_server's synthetic distribution,
// extended to every metric of the counter catalog: models are fitted by
// Ensemble::train (milliseconds each, where the simulator would need tens
// of seconds), profiles are `windows` samples per metric. Everything here
// is a pure function of its seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sampling/dataset.h"
#include "server/protocol.h"
#include "spire/ensemble.h"
#include "util/rng.h"

namespace perfbench {

spire::model::Ensemble fleet_model(std::uint64_t seed);
spire::sampling::Dataset fleet_profile(std::uint64_t seed, int windows);

std::string to_csv(const spire::sampling::Dataset& data);

/// Draws ranks 0..n-1 with probability proportional to 1 / (rank + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(spire::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The serving form of an estimate: what the server puts in a reply for
/// it (throughput, samples and the top `max_ranking` ranking entries).
spire::server::WorkloadResult wire_result(const spire::model::Estimate& e,
                                          std::size_t samples);

/// 64-bit digest of every field of a reply result, doubles by bit pattern:
/// two results with equal digests are bit-identical (up to hash collision).
std::uint64_t digest(const spire::server::WorkloadResult& result);

/// Bit-for-bit equality of two estimates: throughput, the whole ranking
/// and the skipped list.
bool same_estimate(const spire::model::Estimate& a,
                   const spire::model::Estimate& b);

/// The oracle value a check compares against. With `perturb` (the harness
/// self-test) the throughput moves by one ulp, so every check must fail.
spire::model::Estimate oracle_estimate(const spire::model::Ensemble& model,
                                       const spire::sampling::Dataset& data,
                                       bool perturb);

}  // namespace perfbench
