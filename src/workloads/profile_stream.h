// Turns a WorkloadProfile into a deterministic macro-op stream.
//
// The synthetic program is a loop over a code body of
// code_footprint_bytes / 4 instruction sites. Each site's operation class
// is a pure function of (seed, site), so every loop iteration re-executes
// the same instruction at the same pc — which is what lets the branch
// predictor, DSB, and I-cache behave as they would on real code. Dynamic
// values (addresses, branch outcomes) vary per iteration through a seeded
// RNG, so the stream is reproducible end to end.
#pragma once

#include <vector>

#include "sim/types.h"
#include "util/rng.h"
#include "workloads/profile.h"

namespace spire::workloads {

class ProfileStream final : public sim::InstructionStream {
 public:
  explicit ProfileStream(const WorkloadProfile& profile);

  bool next(sim::MacroOp& op) override;
  void reset() override;

  const WorkloadProfile& profile() const { return profile_; }

 private:
  /// What every iteration repeats at one site, computed once per stream.
  struct Site {
    sim::OpClass cls = sim::OpClass::kAluInt;
    bool random_branch = false;  // a coin-flip (not biased) branch site
  };

  sim::OpClass class_at(std::uint64_t site) const;
  std::uint64_t next_address();

  WorkloadProfile profile_;
  std::vector<Site> sites_;  // the loop body, indexed by site
  util::Rng rng_;
  std::uint64_t emitted_ = 0;
  std::uint64_t site_ = 0;       // current instruction site within the body
  std::uint64_t body_sites_ = 0; // sites in the loop body
  std::uint64_t seq_pos_ = 0;    // sequential/strided cursor
  std::uint64_t chase_ = 0;      // pointer-chase cursor
  std::int64_t last_load_ago_ = -1;  // macro-ops since the last load
};

}  // namespace spire::workloads
