// The out-of-order core model: allocation, scheduling onto typed execution
// ports, memory access, retirement, misprediction recovery, and the full
// counter model.
//
// Scheduling is event-driven: every uop gets a concrete operand-ready cycle
// (computed at allocation, or when its producer dispatches), lives in a
// calendar bucket until then, and then queues per port class in age order.
// This keeps per-cycle work O(dispatch width) rather than O(RS size).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "counters/counter_set.h"
#include "sim/branch_predictor.h"
#include "sim/config.h"
#include "sim/frontend.h"
#include "sim/memory_hierarchy.h"
#include "sim/ring.h"
#include "sim/types.h"
#include "sim/uop.h"

namespace spire::sim {

class Core {
 public:
  /// Binds the core to a workload stream. The stream must outlive the core.
  Core(const CoreConfig& config, InstructionStream& stream,
       std::uint64_t seed = 1);

  /// Runs up to `max_cycles` more cycles; stops early when the workload is
  /// complete. Returns the number of cycles simulated.
  std::uint64_t run(std::uint64_t max_cycles);

  /// True when the stream is exhausted and the pipeline has drained.
  bool done() const;

  std::uint64_t cycle() const { return now_; }
  std::uint64_t instructions_retired() const { return instructions_; }

  const counters::CounterSet& counters() const { return counters_; }

  /// Mutable access for the sampling layer (overhead injection).
  counters::CounterSet& mutable_counters() { return counters_; }

  /// Human-readable snapshot of pipeline state (ROB head, RS occupancy,
  /// queues); used by the forward-progress watchdog and tests.
  std::string debug_state() const;

  /// Models an external interrupt (e.g. the sampling driver reprogramming
  /// counters): the core's allocation is blocked for `busy_cycles` while
  /// the handler runs, and the handler's footprint evicts `polluted_lines`
  /// cache lines. Unlike misprediction recovery this does not touch the
  /// speculation counters, so TMA attribution stays clean.
  void interrupt(int busy_cycles, int polluted_lines);

  // --- scheduling structures (public for the port map in core.cpp) -----

  /// Port-class of a uop; indexes eligibility and ready queues.
  enum class PClass : std::uint8_t {
    kLoad, kSta, kStd, kDiv, kVec512, kVec256, kMul, kFp, kBranch, kAlu,
    kCount,
  };
  static constexpr int kNumPClasses = static_cast<int>(PClass::kCount);
  static constexpr int kNumPorts = 8;

 private:
  // Calendar span (cycles). Wake-ups and load completions land in bucket
  // `at % kHorizon`, so one due kHorizon or more cycles ahead is released
  // one span early. That does happen: a DRAM load queued behind a full set
  // of fill buffers can be ~6.3k cycles out. The collected samples depend
  // on it, so the span and the wrap are part of the model (DESIGN.md §17).
  static constexpr std::uint64_t kHorizon = 4096;
  static constexpr std::uint64_t kMacroRing = 1024;  // producer lookback

  struct RobEntry {
    Uop uop;
    bool dispatched = false;
    std::uint64_t complete_at = 0;
    MemLevel mem_level = MemLevel::kL1;
    bool fb_hit = false;
  };

  struct RsSlot {
    bool valid = false;
    std::uint64_t uop_seq = 0;
    PClass cls = PClass::kAlu;
    bool vw_penalty = false;
  };

  struct MacroState {
    std::uint64_t macro_id = ~0ULL;
    int uops_left = 0;            // allocated uops not yet dispatched
    std::uint64_t result_at = 0;  // completion of the latest dispatched uop
    bool all_allocated = false;   // the last_of_macro uop has been allocated
    bool final_ = false;          // all uops dispatched: result_at is final
  };

  struct SlotRef {
    std::uint32_t slot = 0;
    std::uint64_t uop_seq = 0;  // validity check against the slot
  };

  // --- per-cycle stages --------------------------------------------------

  void step();
  void process_flush();
  int retire_stage();
  void drain_stores();
  void collect_ready();
  int dispatch_stage();
  int allocate_stage();
  void cycle_counters(int dispatched, int retired, int allocated,
                      int ports_used);

  // --- helpers -----------------------------------------------------------

  static PClass pclass_of(const Uop& u);
  RobEntry* rob_lookup(std::uint64_t seq);
  void schedule_ready(std::uint32_t slot, std::uint64_t at);
  void dispatch_uop(std::uint32_t slot, int port);
  void finalize_macro(MacroState& ms);
  int execute_latency(const Uop& u, bool vw_penalty) const;

  // --- members -----------------------------------------------------------

  CoreConfig cfg_;
  BranchPredictor predictor_;
  MemoryHierarchy memory_;
  Frontend frontend_;
  counters::CounterSet counters_;

  std::uint64_t now_ = 0;
  std::uint64_t instructions_ = 0;

  Ring<Uop> idq_;
  Ring<RobEntry> rob_;
  std::uint64_t rob_base_seq_ = 0;  // uop_seq of rob_.front()
  std::uint64_t next_uop_seq_ = 0;

  std::vector<RsSlot> rs_;
  std::vector<std::uint32_t> rs_free_;
  int rs_occupancy_ = 0;

  std::vector<std::vector<SlotRef>> calendar_;  // [cycle % kHorizon]
  std::array<Ring<SlotRef>, kNumPClasses> ready_;
  std::uint16_t ready_mask_ = 0;  // bit c set <=> ready_[c] is non-empty
  std::vector<std::uint16_t> load_completes_;   // [cycle % kHorizon]

  std::array<MacroState, kMacroRing> macro_ring_;
  std::array<std::vector<SlotRef>, kMacroRing> macro_waiters_;

  int lb_occupancy_ = 0;
  int sb_occupancy_ = 0;
  Ring<std::uint64_t> store_drain_;  // addresses awaiting L1 write
  std::uint64_t drain_ready_at_ = 0;

  int inflight_loads_ = 0;
  std::uint64_t divider_free_ = 0;

  // Vector-width transition tracking (256 vs 512 bit).
  int last_vec_width_ = 0;

  // Allocation-time macro tracking (persists across cycle boundaries so
  // multi-cycle macro-ops register exactly once).
  std::uint64_t alloc_last_macro_ = ~0ULL;
  int alloc_chain_depth_ = 0;

  // Misprediction / recovery state.
  bool flush_pending_ = false;
  std::uint64_t flush_at_ = 0;
  std::uint64_t flush_seq_ = 0;  // entries younger than this are squashed
  std::uint64_t recovery_until_ = 0;
  std::uint64_t interrupt_until_ = 0;  // external interrupt busy window

  // Cache-statistic counters mirrored into the CounterSet incrementally.
  std::uint64_t seen_l1d_repl_ = 0;
  std::uint64_t seen_l3_ref_ = 0;
  std::uint64_t seen_l3_miss_ = 0;

  // Forward-progress watchdog.
  std::uint64_t last_progress_ = 0;
};

}  // namespace spire::sim
