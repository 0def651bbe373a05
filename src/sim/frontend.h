// The fetch/decode front-end: DSB (uop cache), legacy decode (MITE),
// microcode sequencer (MS), loop stream detector (LSD), I-cache/ITLB, and
// branch prediction. Delivers uops into the IDQ and maintains the front-end
// counter events.
//
// Wrong-path modeling: when a branch that will mispredict is fetched, the
// true instruction stream pauses and the front-end emits phantom uops (a
// plausible ALU/nop mix) until the core resolves the branch and calls
// redirect(). Phantoms consume issue slots and back-end resources and are
// squashed at the flush, which is what makes the TMA bad-speculation slot
// accounting (issued - retired) come out right.
#pragma once

#include <cstdint>
#include <deque>

#include "counters/counter_set.h"
#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/memory_hierarchy.h"
#include "sim/ring.h"
#include "sim/types.h"
#include "sim/uop.h"

namespace spire::sim {

class Frontend {
 public:
  Frontend(const CoreConfig& config, InstructionStream& stream,
           MemoryHierarchy& memory, BranchPredictor& predictor,
           std::uint64_t phantom_seed);

  /// Advances one cycle: delivers up to the active path's width of uops into
  /// `idq` (bounded by idq_capacity) and updates front-end counters.
  /// Returns the number of uops delivered. `Queue` is the core's Ring<Uop>
  /// or a std::deque<Uop> (both are instantiated in frontend.cpp).
  template <class Queue>
  int cycle(std::uint64_t now, Queue& idq, counters::CounterSet& counters);

  /// True when the true stream is exhausted and no decoded uops remain.
  bool stream_done() const { return stream_done_ && pending_.empty(); }

  /// True while emitting wrong-path phantoms.
  bool wrong_path() const { return wrong_path_; }

  /// Resolves the in-flight misprediction: stops phantom emission and stalls
  /// fetch for the redirect penalty. The core clears the IDQ itself.
  void redirect(std::uint64_t now);

 private:
  /// Supply path that produced the current decode group.
  enum class Path : std::uint8_t { kDsb, kMite, kMs, kLsd };

  /// Pulls the next macro-op (true stream or phantom) and expands it into
  /// pending_ uops, updating fetch-path state. Returns false when the true
  /// stream is exhausted and no wrong path is active.
  bool refill(std::uint64_t now, counters::CounterSet& counters);

  void expand_macro(const MacroOp& op, bool phantom, bool mispredicted);
  MacroOp make_phantom();

  CoreConfig cfg_;  // by value: the construction-time reference may be a
                    // temporary (Core passes its own copy, but be safe)
  InstructionStream& stream_;
  MemoryHierarchy& memory_;
  BranchPredictor& predictor_;

  int window_shift_;  // log2(dsb_window_bytes); the DSB's line size
  Ring<Uop> pending_;             // decoded, not yet delivered to the IDQ
  Path path_ = Path::kMite;       // path of the uops in pending_
  Path last_path_ = Path::kMite;  // previous decode group's path
  Path resume_path_ = Path::kMite;  // path to return to after an MS episode

  std::uint64_t next_macro_id_ = 0;
  std::uint64_t fetch_stall_until_ = 0;
  bool stream_done_ = false;

  // Wrong-path state.
  bool wrong_path_ = false;
  std::uint64_t phantom_hash_;  // cheap deterministic phantom mix state

  // Staged macro-op: fetched from the stream but not yet decoded (waiting
  // out an I-cache / ITLB stall).
  MacroOp staged_{};
  bool staged_valid_ = false;
  bool staged_phantom_ = false;

  // DSB (uop cache), ITLB and LSD tracking.
  Cache dsb_;
  Cache itlb_;
  std::uint64_t last_window_ = ~0ULL;
  std::uint64_t prev_window_ = ~0ULL;
  int same_window_streak_ = 0;

  // Fetch-bubble episode tracking for frontend_retired.* tagging.
  std::uint64_t bubble_started_ = 0;
  bool in_bubble_ = false;
  int recent_bubbles_ = 0;
  std::uint64_t last_bubble_decay_ = 0;
};

}  // namespace spire::sim
