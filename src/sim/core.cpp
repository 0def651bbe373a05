#include "sim/core.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace spire::sim {

using counters::CounterSet;
using counters::Event;

Core::Core(const CoreConfig& config, InstructionStream& stream,
           std::uint64_t seed)
    : cfg_(config),
      predictor_(cfg_),
      memory_(cfg_),
      frontend_(cfg_, stream, memory_, predictor_, seed),
      idq_(static_cast<std::size_t>(cfg_.idq_capacity)),
      rob_(static_cast<std::size_t>(cfg_.rob_capacity)),
      rs_(static_cast<std::size_t>(cfg_.rs_capacity)),
      calendar_(kHorizon),
      load_completes_(kHorizon, 0),
      store_drain_(static_cast<std::size_t>(cfg_.store_buffer_capacity)) {
  for (auto& queue : ready_) queue = Ring<SlotRef>(rs_.size());
  rs_free_.reserve(rs_.size());
  for (std::uint32_t i = 0; i < rs_.size(); ++i) {
    rs_free_.push_back(static_cast<std::uint32_t>(rs_.size() - 1 - i));
  }
}

bool Core::done() const {
  return frontend_.stream_done() && idq_.empty() && rob_.empty() &&
         store_drain_.empty();
}

std::uint64_t Core::run(std::uint64_t max_cycles) {
  std::uint64_t simulated = 0;
  while (simulated < max_cycles && !done()) {
    step();
    ++simulated;
    if (now_ - last_progress_ > 200000) {
      throw std::logic_error("core: no forward progress for 200k cycles\n" +
                             debug_state());
    }
  }
  return simulated;
}

Core::PClass Core::pclass_of(const Uop& u) {
  if (u.is_store_addr) return PClass::kSta;
  if (u.is_store_data) return PClass::kStd;
  switch (u.cls) {
    case OpClass::kLoad:
    case OpClass::kLockedLoad: return PClass::kLoad;
    case OpClass::kDiv: return PClass::kDiv;
    case OpClass::kVec512: return PClass::kVec512;
    case OpClass::kVec256: return PClass::kVec256;
    case OpClass::kMul: return PClass::kMul;
    case OpClass::kAluFp: return PClass::kFp;
    case OpClass::kBranch: return PClass::kBranch;
    default: return PClass::kAlu;
  }
}

namespace {

// Port eligibility per class; loosely Skylake-SP's port map.
constexpr std::uint8_t kPortMask[Core::kNumPClasses] = {
    /*kLoad*/ 0b00001100,    // ports 2,3
    /*kSta*/ 0b10001100,     // ports 2,3,7
    /*kStd*/ 0b00010000,     // port 4
    /*kDiv*/ 0b00000001,     // port 0
    /*kVec512*/ 0b00100001,  // ports 0,5
    /*kVec256*/ 0b00100011,  // ports 0,1,5
    /*kMul*/ 0b00000010,     // port 1
    /*kFp*/ 0b00000011,      // ports 0,1
    /*kBranch*/ 0b01000001,  // ports 0,6
    /*kAlu*/ 0b01100011,     // ports 0,1,5,6
};

constexpr Event kPortEvents[Core::kNumPorts] = {
    Event::kUopsDispatchedPort0, Event::kUopsDispatchedPort1,
    Event::kUopsDispatchedPort2, Event::kUopsDispatchedPort3,
    Event::kUopsDispatchedPort4, Event::kUopsDispatchedPort5,
    Event::kUopsDispatchedPort6, Event::kUopsDispatchedPort7,
};

}  // namespace

Core::RobEntry* Core::rob_lookup(std::uint64_t seq) {
  if (seq < rob_base_seq_) return nullptr;
  const std::uint64_t idx = seq - rob_base_seq_;
  if (idx >= rob_.size()) return nullptr;
  return &rob_[static_cast<std::size_t>(idx)];
}

int Core::execute_latency(const Uop& u, bool vw_penalty) const {
  int lat;
  switch (u.cls) {
    case OpClass::kAluInt: lat = cfg_.lat_alu; break;
    case OpClass::kAluFp: lat = cfg_.lat_fp; break;
    case OpClass::kVec256: lat = cfg_.lat_vec256; break;
    case OpClass::kVec512: lat = cfg_.lat_vec512; break;
    case OpClass::kMul: lat = cfg_.lat_mul; break;
    case OpClass::kDiv: lat = cfg_.lat_div; break;
    case OpClass::kStore: lat = cfg_.lat_store; break;
    case OpClass::kBranch: lat = cfg_.lat_branch; break;
    default: lat = cfg_.lat_alu; break;
  }
  if (vw_penalty) lat += cfg_.vector_width_mismatch_penalty;
  return lat;
}

void Core::schedule_ready(std::uint32_t slot, std::uint64_t at) {
  // `at` may lie kHorizon or more cycles ahead (see kHorizon): the entry
  // then wakes one span early, which the collected samples depend on.
  calendar_[at % kHorizon].push_back({slot, rs_[slot].uop_seq});
}

void Core::finalize_macro(MacroState& ms) {
  ms.final_ = true;
  auto& waiters = macro_waiters_[ms.macro_id % kMacroRing];
  for (const SlotRef& ref : waiters) {
    if (ref.slot < rs_.size() && rs_[ref.slot].valid &&
        rs_[ref.slot].uop_seq == ref.uop_seq) {
      schedule_ready(ref.slot, std::max(ms.result_at, now_ + 1));
    }
  }
  waiters.clear();
}

void Core::dispatch_uop(std::uint32_t slot, int port) {
  RsSlot& rs = rs_[slot];
  RobEntry* entry = rob_lookup(rs.uop_seq);
  // The dispatcher validates entries before calling; a miss here is a bug.
  if (entry == nullptr) throw std::logic_error("core: dispatch of squashed uop");
  const Uop& u = entry->uop;

  int latency = execute_latency(u, rs.vw_penalty);

  if (rs.cls == PClass::kLoad) {
    const MemAccess access = memory_.load(u.addr, now_);
    latency = access.latency + (rs.vw_penalty ? cfg_.vector_width_mismatch_penalty : 0);
    entry->mem_level = access.level;
    entry->fb_hit = access.level == MemLevel::kFillBuffer;
    if (access.tlb_walk) {
      counters_.add(Event::kDtlbLoadMissesWalkPending,
                    static_cast<std::uint64_t>(access.tlb_walk_cycles));
    }
    // Demand-miss traffic counters are occurrence-based (dispatch time).
    if (access.level == MemLevel::kL3 || access.level == MemLevel::kDram) {
      counters_.add(Event::kL2RqstsAllDemandMiss, 1);
      counters_.add(Event::kOffcoreRequestsDemandDataRd, 1);
    }
    if (u.locked) {
      latency += cfg_.lock_latency;
      // Occasional memory-ordering machine clear on contended atomics;
      // deterministic hash keeps runs reproducible.
      if (((u.macro_id * 0x2545F4914F6CDD1DULL) >> 33) % 64 == 0) {
        counters_.add(Event::kMachineClearsCount, 1);
        counters_.add(Event::kMachineClearsMemoryOrdering, 1);
        recovery_until_ = std::max(
            recovery_until_, now_ + static_cast<std::uint64_t>(latency) +
                                 static_cast<std::uint64_t>(cfg_.mispredict_recovery_cycles) / 2);
      }
    }
    ++inflight_loads_;
    const std::uint64_t done_at = now_ + static_cast<std::uint64_t>(latency);
    ++load_completes_[done_at % kHorizon];
  }

  if (rs.cls == PClass::kDiv) {
    divider_free_ = now_ + static_cast<std::uint64_t>(latency);
    counters_.add(Event::kArithDividerActive,
                  static_cast<std::uint64_t>(latency));
  }

  entry->dispatched = true;
  entry->complete_at = now_ + static_cast<std::uint64_t>(latency);

  counters_.add(kPortEvents[port], 1);
  counters_.add(Event::kUopsExecutedThread, 1);

  // Producer bookkeeping: consumers wait on the macro's last completion.
  if (!u.phantom) {
    MacroState& ms = macro_ring_[u.macro_id % kMacroRing];
    if (ms.macro_id == u.macro_id && !ms.final_) {
      ms.result_at = std::max(ms.result_at, entry->complete_at);
      if (--ms.uops_left == 0 && ms.all_allocated) finalize_macro(ms);
    }
  }

  // A mispredicted branch schedules the pipeline flush at resolution.
  if (u.is_branch && u.mispredicted && !flush_pending_) {
    flush_pending_ = true;
    flush_at_ = entry->complete_at;
    flush_seq_ = rs.uop_seq;
  }

  rs.valid = false;
  rs_free_.push_back(slot);
  --rs_occupancy_;
}

void Core::collect_ready() {
  auto& bucket = calendar_[now_ % kHorizon];
  for (const SlotRef& ref : bucket) {
    if (ref.slot < rs_.size() && rs_[ref.slot].valid &&
        rs_[ref.slot].uop_seq == ref.uop_seq) {
      const auto cls = static_cast<std::size_t>(rs_[ref.slot].cls);
      ready_[cls].push_back(ref);
      ready_mask_ |= static_cast<std::uint16_t>(1u << cls);
    }
  }
  bucket.clear();
}

int Core::dispatch_stage() {
  int dispatched = 0;
  unsigned ports_busy = 0;

  // Class priority is the PClass order: memory first (latency critical),
  // then long-latency units, then the short ALU crowd. Only classes with
  // queued uops are visited.
  for (unsigned pending = ready_mask_; pending != 0; pending &= pending - 1) {
    const int c = std::countr_zero(pending);
    const auto cls = static_cast<PClass>(c);
    auto& queue = ready_[static_cast<std::size_t>(c)];
    const unsigned mask = kPortMask[c];
    while (!queue.empty() && dispatched < cfg_.dispatch_width) {
      const SlotRef ref = queue.front();
      if (ref.slot >= rs_.size() || !rs_[ref.slot].valid ||
          rs_[ref.slot].uop_seq != ref.uop_seq) {
        queue.pop_front();  // squashed
        continue;
      }
      // The divider is unpipelined: a div must also wait for it to free up.
      if (cls == PClass::kDiv && now_ < divider_free_) {
        queue.pop_front();
        schedule_ready(ref.slot, divider_free_);
        continue;
      }
      // Lowest-numbered free eligible port.
      const unsigned free_ports = mask & ~ports_busy;
      if (free_ports == 0) break;  // no eligible port left this cycle
      const int port = std::countr_zero(free_ports);
      queue.pop_front();
      ports_busy |= 1u << port;
      dispatch_uop(ref.slot, port);
      ++dispatched;
    }
    if (queue.empty()) ready_mask_ &= static_cast<std::uint16_t>(~(1u << c));
    if (dispatched >= cfg_.dispatch_width) break;
  }
  return dispatched;
}

int Core::allocate_stage() {
  const int slots = cfg_.allocate_width;

  if (now_ < recovery_until_ || now_ < interrupt_until_) {
    if (now_ < recovery_until_) {
      counters_.add(Event::kIntMiscRecoveryCycles, 1);
      counters_.add(Event::kIntMiscRecoveryCyclesAny, 1);
    }
    counters_.add(Event::kIdqUopsNotDeliveredCyclesFeWasOk, 1);
    counters_.add(Event::kUopsIssuedStallCycles, 1);
    return 0;
  }

  int allocated = 0;
  bool backend_blocked = false;

  while (allocated < slots && !idq_.empty()) {
    const Uop& u = idq_.front();

    // Resource checks.
    if (static_cast<int>(rob_.size()) >= cfg_.rob_capacity) {
      backend_blocked = true;
      break;
    }
    const bool needs_rs = u.cls != OpClass::kNop;
    if (needs_rs && rs_free_.empty()) {
      backend_blocked = true;
      break;
    }
    const bool is_load = u.cls == OpClass::kLoad || u.cls == OpClass::kLockedLoad;
    if (is_load && lb_occupancy_ >= cfg_.load_buffer_capacity) {
      backend_blocked = true;
      break;
    }
    if (u.is_store_addr && sb_occupancy_ >= cfg_.store_buffer_capacity) {
      backend_blocked = true;
      counters_.add(Event::kResourceStallsSb, 1);
      counters_.add(Event::kExeActivityBoundOnStores, 1);
      break;
    }

    // Admit the uop.
    Uop uop = u;
    idq_.pop_front();
    const std::uint64_t seq = next_uop_seq_++;
    if (rob_.empty()) rob_base_seq_ = seq;

    if (uop.macro_id != alloc_last_macro_ && !uop.phantom) {
      alloc_last_macro_ = uop.macro_id;
      alloc_chain_depth_ = 0;
      // Register the macro's scheduling state (producer tracking).
      MacroState& ms = macro_ring_[uop.macro_id % kMacroRing];
      auto& waiters = macro_waiters_[uop.macro_id % kMacroRing];
      if (!waiters.empty()) {
        // Safety valve: an unfinalized ring predecessor still has waiters
        // (possible only if the id span exceeded the ring). Wake them
        // conservatively rather than losing them.
        for (const SlotRef& ref : waiters) {
          if (ref.slot < rs_.size() && rs_[ref.slot].valid &&
              rs_[ref.slot].uop_seq == ref.uop_seq) {
            schedule_ready(ref.slot, now_ + 1);
          }
        }
        waiters.clear();
      }
      ms.macro_id = uop.macro_id;
      ms.uops_left = 0;
      ms.result_at = now_;
      ms.all_allocated = false;
      ms.final_ = false;
    }

    // Vector-width transition penalty (SIMD frequency/bypass modeling).
    bool vw_penalty = false;
    const int width = uop.cls == OpClass::kVec256   ? 256
                      : uop.cls == OpClass::kVec512 ? 512
                                                    : 0;
    if (width != 0) {
      if (last_vec_width_ != 0 && last_vec_width_ != width) {
        vw_penalty = true;
        counters_.add(Event::kUopsIssuedVectorWidthMismatch, 1);
      }
      last_vec_width_ = width;
    }

    RobEntry& entry = rob_.emplace_back();
    entry.uop = uop;
    if (uop.cls == OpClass::kNop) {
      entry.dispatched = true;
      entry.complete_at = now_;
      if (!uop.phantom && uop.last_of_macro) {
        MacroState& ms = macro_ring_[uop.macro_id % kMacroRing];
        ms.all_allocated = true;
        if (ms.uops_left == 0 && !ms.final_) finalize_macro(ms);
      }
    } else {
      if (!uop.phantom) {
        MacroState& ms = macro_ring_[uop.macro_id % kMacroRing];
        ++ms.uops_left;
        if (uop.last_of_macro) ms.all_allocated = true;
      }

      const std::uint32_t slot = rs_free_.back();
      rs_free_.pop_back();
      RsSlot& rs = rs_[slot];
      rs.valid = true;
      rs.uop_seq = seq;
      rs.cls = pclass_of(uop);
      rs.vw_penalty = vw_penalty;
      ++rs_occupancy_;

      // Operand readiness: microcode chains serialize inside the macro;
      // cross-macro dependencies wait on the producer's last completion.
      std::uint64_t ready_at =
          now_ + 1 + static_cast<std::uint64_t>(alloc_chain_depth_);
      if (uop.chain_prev) ++alloc_chain_depth_;
      bool waiting = false;
      if (uop.dep_distance > 0 &&
          static_cast<std::uint64_t>(uop.dep_distance) <= uop.macro_id) {
        const std::uint64_t producer = uop.macro_id - static_cast<std::uint64_t>(uop.dep_distance);
        const MacroState& pms = macro_ring_[producer % kMacroRing];
        if (pms.macro_id == producer) {
          if (pms.final_) {
            ready_at = std::max(ready_at, pms.result_at);
          } else {
            macro_waiters_[producer % kMacroRing].push_back({slot, seq});
            waiting = true;
          }
        }
        // Ring mismatch: producer long retired; operands are ready.
      }
      if (!waiting) schedule_ready(slot, std::max(ready_at, now_ + 1));
    }

    if (is_load) ++lb_occupancy_;
    if (uop.is_store_addr) ++sb_occupancy_;

    counters_.add(Event::kUopsIssuedAny, 1);
    ++allocated;
  }

  // TMA slot accounting: front-end shortfall only counts when the back-end
  // was ready to accept more.
  if (backend_blocked) {
    counters_.add(Event::kResourceStallsAny, 1);
    counters_.add(Event::kIdqUopsNotDeliveredCyclesFeWasOk, 1);
  } else {
    const int shortfall = slots - allocated;
    if (shortfall > 0) {
      counters_.add(Event::kIdqUopsNotDeliveredCore,
                    static_cast<std::uint64_t>(shortfall));
      if (allocated <= 1) counters_.add(Event::kIdqUopsNotDeliveredCyclesLe1UopDelivCore, 1);
      if (allocated <= 2) counters_.add(Event::kIdqUopsNotDeliveredCyclesLe2UopDelivCore, 1);
      if (allocated <= 3) counters_.add(Event::kIdqUopsNotDeliveredCyclesLe3UopDelivCore, 1);
    } else {
      counters_.add(Event::kIdqUopsNotDeliveredCyclesFeWasOk, 1);
    }
  }
  if (allocated == 0) counters_.add(Event::kUopsIssuedStallCycles, 1);
  return allocated;
}

int Core::retire_stage() {
  int retired = 0;
  while (retired < cfg_.retire_width && !rob_.empty()) {
    RobEntry& head = rob_.front();
    if (!head.dispatched || head.complete_at > now_) break;
    const Uop& u = head.uop;
    if (u.phantom) {
      // Phantoms are squashed at flush; reaching retirement is a bug.
      throw std::logic_error("core: phantom uop reached retirement");
    }

    counters_.add(Event::kUopsRetiredRetireSlots, 1);

    if (u.first_of_macro) {
      if (u.fe_bubbles >= 1)
        counters_.add(Event::kFrontendRetiredLatencyGe2BubblesGe1, 1);
      if (u.fe_bubbles >= 2)
        counters_.add(Event::kFrontendRetiredLatencyGe2BubblesGe2, 1);
      if (u.fe_bubbles >= 3)
        counters_.add(Event::kFrontendRetiredLatencyGe2BubblesGe3, 1);
      if (u.dsb_miss) counters_.add(Event::kFrontendRetiredDsbMiss, 1);
    }

    if (u.last_of_macro) {
      counters_.add(Event::kInstRetiredAny, 1);
      ++instructions_;

      if (u.cls == OpClass::kLoad || u.cls == OpClass::kLockedLoad) {
        counters_.add(Event::kMemInstRetiredAllLoads, 1);
        if (u.locked) counters_.add(Event::kMemInstRetiredLockLoads, 1);
        switch (head.mem_level) {
          case MemLevel::kL1:
            counters_.add(Event::kMemLoadRetiredL1Hit, 1);
            break;
          case MemLevel::kFillBuffer:
            counters_.add(Event::kMemLoadRetiredFbHit, 1);
            counters_.add(Event::kMemLoadRetiredL1Miss, 1);
            break;
          case MemLevel::kL2:
            counters_.add(Event::kMemLoadRetiredL2Hit, 1);
            counters_.add(Event::kMemLoadRetiredL1Miss, 1);
            break;
          case MemLevel::kL3:
            counters_.add(Event::kMemLoadRetiredL3Hit, 1);
            counters_.add(Event::kMemLoadRetiredL1Miss, 1);
            counters_.add(Event::kMemLoadRetiredL2Miss, 1);
            break;
          case MemLevel::kDram:
            counters_.add(Event::kMemLoadRetiredL1Miss, 1);
            counters_.add(Event::kMemLoadRetiredL2Miss, 1);
            counters_.add(Event::kMemLoadRetiredL3Miss, 1);
            break;
        }
        --lb_occupancy_;
      }
      if (u.is_store_data) {
        counters_.add(Event::kMemInstRetiredAllStores, 1);
        store_drain_.push_back(u.addr);
      }
      if (u.is_branch) {
        counters_.add(Event::kBrInstRetiredAllBranches, 1);
        if (u.taken) counters_.add(Event::kBrInstRetiredNearTaken, 1);
        if (u.mispredicted) {
          counters_.add(Event::kBrMispRetiredAllBranches, 1);
          counters_.add(Event::kBrMispRetiredConditional, 1);
        }
      }
    }

    rob_.pop_front();
    ++rob_base_seq_;
    ++retired;
    last_progress_ = now_;
  }
  if (retired == 0) counters_.add(Event::kUopsRetiredStallCycles, 1);
  return retired;
}

void Core::drain_stores() {
  if (store_drain_.empty() || now_ < drain_ready_at_) return;
  const std::uint64_t addr = store_drain_.front();
  store_drain_.pop_front();
  const MemAccess access = memory_.store(addr, now_);
  // L1 hits drain one per cycle; misses hold the write port for roughly a
  // DRAM service slot (the line fetch itself is pipelined behind others).
  const int pace = std::clamp(access.latency / 16, 1, 64);
  drain_ready_at_ = now_ + static_cast<std::uint64_t>(pace);
  if (sb_occupancy_ > 0) --sb_occupancy_;
}

void Core::process_flush() {
  if (!flush_pending_ || now_ < flush_at_) return;
  flush_pending_ = false;

  // Squash everything younger than the mispredicted branch. By
  // construction those are all wrong-path phantoms.
  const std::uint64_t keep = flush_seq_ - rob_base_seq_ + 1;
  while (rob_.size() > keep) {
    const RobEntry& victim = rob_.back();
    const Uop& u = victim.uop;
    if (u.cls == OpClass::kLoad || u.cls == OpClass::kLockedLoad) {
      if (lb_occupancy_ > 0) --lb_occupancy_;
    }
    if (u.is_store_addr && sb_occupancy_ > 0) --sb_occupancy_;
    rob_.pop_back();
  }
  // Invalidate squashed RS slots.
  for (std::uint32_t i = 0; i < rs_.size(); ++i) {
    if (rs_[i].valid && rs_[i].uop_seq > flush_seq_) {
      rs_[i].valid = false;
      rs_free_.push_back(i);
      --rs_occupancy_;
    }
  }
  next_uop_seq_ = flush_seq_ + 1;

  idq_.clear();
  frontend_.redirect(now_);
  recovery_until_ = std::max(
      recovery_until_,
      now_ + static_cast<std::uint64_t>(cfg_.mispredict_recovery_cycles));
}

void Core::cycle_counters(int dispatched, int retired, int allocated,
                          int ports_used) {
  (void)retired;
  (void)allocated;
  counters_.add(Event::kCpuClkUnhaltedThread, 1);

  const bool rob_busy = !rob_.empty();
  const auto misses = memory_.pending(now_);
  const int pending = misses.count;

  if (inflight_loads_ > 0) counters_.add(Event::kCycleActivityCyclesMemAny, 1);
  if (pending > 0) {
    counters_.add(Event::kCycleActivityCyclesL1dMiss, 1);
    counters_.add(Event::kL1dPendMissPendingCycles, 1);
  }

  if (dispatched == 0) {
    counters_.add(Event::kUopsExecutedStallCycles, 1);
    if (rob_busy) {
      counters_.add(Event::kCycleActivityStallsTotal, 1);
      if (inflight_loads_ > 0)
        counters_.add(Event::kCycleActivityStallsMemAny, 1);
      if (pending > 0) {
        counters_.add(Event::kCycleActivityStallsL1dMiss, 1);
        const MemLevel deepest = misses.deepest;
        if (deepest == MemLevel::kL3 || deepest == MemLevel::kDram)
          counters_.add(Event::kCycleActivityStallsL2Miss, 1);
        if (deepest == MemLevel::kDram)
          counters_.add(Event::kCycleActivityStallsL3Miss, 1);
      }
      if (pending == 0 && rs_occupancy_ > 0)
        counters_.add(Event::kExeActivityExeBound0Ports, 1);
    }
  } else {
    counters_.add(Event::kUopsExecutedCoreCyclesGe1, 1);
    counters_.add(Event::kUopsExecutedCyclesGe1UopExec, 1);
  }

  switch (ports_used) {
    case 0: break;
    case 1: counters_.add(Event::kExeActivity1PortsUtil, 1); break;
    case 2: counters_.add(Event::kExeActivity2PortsUtil, 1); break;
    case 3: counters_.add(Event::kExeActivity3PortsUtil, 1); break;
    default: counters_.add(Event::kExeActivity4PortsUtil, 1); break;
  }

  if (rs_occupancy_ == 0) counters_.add(Event::kRsEventsEmptyCycles, 1);

  // Mirror cache statistics into the counter file incrementally.
  const std::uint64_t repl = memory_.l1d().replacements();
  if (repl != seen_l1d_repl_) {
    counters_.add(Event::kL1dReplacement, repl - seen_l1d_repl_);
    seen_l1d_repl_ = repl;
  }
  const std::uint64_t l3_ref = memory_.l3().hits() + memory_.l3().misses();
  if (l3_ref != seen_l3_ref_) {
    counters_.add(Event::kLongestLatCacheReference, l3_ref - seen_l3_ref_);
    seen_l3_ref_ = l3_ref;
  }
  const std::uint64_t l3_miss = memory_.l3().misses();
  if (l3_miss != seen_l3_miss_) {
    counters_.add(Event::kLongestLatCacheMiss, l3_miss - seen_l3_miss_);
    seen_l3_miss_ = l3_miss;
  }
}

void Core::interrupt(int busy_cycles, int polluted_lines) {
  interrupt_until_ = std::max(interrupt_until_,
                              now_ + static_cast<std::uint64_t>(busy_cycles));
  memory_.pollute(polluted_lines);
}

std::string Core::debug_state() const {
  std::ostringstream os;
  os << "cycle=" << now_ << " inst=" << instructions_
     << " rob=" << rob_.size() << " rs=" << rs_occupancy_
     << " idq=" << idq_.size() << " lb=" << lb_occupancy_
     << " sb=" << sb_occupancy_ << " inflight_loads=" << inflight_loads_
     << " recovery_until=" << recovery_until_
     << " flush_pending=" << flush_pending_
     << " fe_done=" << frontend_.stream_done()
     << " wrong_path=" << frontend_.wrong_path() << "\n";
  if (!rob_.empty()) {
    const RobEntry& h = rob_.front();
    os << "rob head: seq=" << rob_base_seq_
       << " cls=" << static_cast<int>(h.uop.cls)
       << " macro=" << h.uop.macro_id << " dep=" << h.uop.dep_distance
       << " dispatched=" << h.dispatched << " complete_at=" << h.complete_at
       << " phantom=" << h.uop.phantom << " chain=" << h.uop.chain_prev
       << "\n";
  }
  int rs_valid = 0;
  for (const auto& s : rs_) rs_valid += s.valid ? 1 : 0;
  os << "rs valid slots=" << rs_valid << " ready queue sizes:";
  for (const auto& q : ready_) os << ' ' << q.size();
  os << "\n";
  return os.str();
}

void Core::step() {
  process_flush();

  // Expire completed loads (in-flight tracking).
  inflight_loads_ -= load_completes_[now_ % kHorizon];
  load_completes_[now_ % kHorizon] = 0;

  const int retired = retire_stage();
  drain_stores();
  collect_ready();
  const int dispatched = dispatch_stage();

  // Count distinct ports used this cycle: dispatch marks one port per uop.
  const int ports_used = dispatched;  // <=8, one port each

  const int allocated = allocate_stage();
  frontend_.cycle(now_, idq_, counters_);

  cycle_counters(dispatched, retired, allocated, ports_used);
  ++now_;
}

}  // namespace spire::sim
