#include "sim/frontend.h"

#include <algorithm>
#include <bit>

namespace spire::sim {

using counters::CounterSet;
using counters::Event;

namespace {

// DSB capacity approximating Skylake's ~1.5K-uop uop cache at 32-byte
// window granularity: 64 sets x 8 ways of windows.
CacheGeometry dsb_geometry(const CoreConfig& cfg) {
  return {64, 8, cfg.dsb_window_bytes};
}

}  // namespace

Frontend::Frontend(const CoreConfig& config, InstructionStream& stream,
                   MemoryHierarchy& memory, BranchPredictor& predictor,
                   std::uint64_t phantom_seed)
    : cfg_(config),
      stream_(stream),
      memory_(memory),
      predictor_(predictor),
      window_shift_(std::countr_zero(config.dsb_window_bytes)),
      phantom_hash_(phantom_seed | 1),
      dsb_(dsb_geometry(config)),
      itlb_(config.itlb) {}

void Frontend::redirect(std::uint64_t now) {
  wrong_path_ = false;
  pending_.clear();
  staged_valid_ = false;
  // Short refetch delay; the core separately blocks allocation for the full
  // recovery window.
  fetch_stall_until_ = std::max(fetch_stall_until_, now + 2);
  same_window_streak_ = 0;
  last_window_ = ~0ULL;
  prev_window_ = ~0ULL;
}

MacroOp Frontend::make_phantom() {
  // Cheap xorshift mix; phantoms are ALU-heavy with occasional nops, no
  // memory or branch side effects.
  phantom_hash_ ^= phantom_hash_ << 13;
  phantom_hash_ ^= phantom_hash_ >> 7;
  phantom_hash_ ^= phantom_hash_ << 17;
  MacroOp op;
  op.pc = 0x7f0000 + (phantom_hash_ & 0x7) * 4;
  op.cls = (phantom_hash_ % 4 == 0) ? OpClass::kNop : OpClass::kAluInt;
  op.uop_count = 1;
  return op;
}

void Frontend::expand_macro(const MacroOp& op, bool phantom,
                            bool mispredicted) {
  // Phantoms share one sentinel id: they never produce or consume operand
  // dependencies, and keeping the true-path id space dense is what lets the
  // core track producers in a fixed-size ring.
  const std::uint64_t macro_id =
      phantom ? kPhantomMacroId : next_macro_id_++;
  const bool is_store = op.cls == OpClass::kStore;
  const bool is_load =
      op.cls == OpClass::kLoad || op.cls == OpClass::kLockedLoad;
  // Stores are exactly STA+STD; loads are a single uop (the back-end's
  // buffer accounting relies on this); everything else expands as declared.
  const int uops = is_store ? 2
                   : is_load ? 1
                             : std::max<int>(op.uop_count, 1);
  for (int i = 0; i < uops; ++i) {
    Uop& u = pending_.emplace_back();
    u.macro_id = macro_id;
    u.pc = op.pc;
    u.addr = op.addr;
    u.first_of_macro = (i == 0);
    u.last_of_macro = (i == uops - 1);
    u.phantom = phantom;
    u.dsb_miss = (path_ == Path::kMite || path_ == Path::kMs);
    u.fe_bubbles = static_cast<std::uint8_t>(std::min(recent_bubbles_, 3));
    if (is_store) {
      // First uop computes the address, second provides the data; any
      // extra uops (microcoded stores) behave like chained ALU work.
      if (i == 0) {
        u.cls = OpClass::kStore;
        u.is_store_addr = true;
      } else if (i == 1) {
        u.cls = OpClass::kStore;
        u.is_store_data = true;
        u.dep_distance = op.dep_distance;
      } else {
        u.cls = OpClass::kAluInt;
      }
    } else if (op.cls == OpClass::kMicrocoded) {
      // Microcode expansion: a serial chain of simple uops.
      u.cls = OpClass::kAluInt;
      u.dep_distance = (i == 0) ? op.dep_distance : 0;
      u.chain_prev = (i > 0);
    } else {
      u.cls = op.cls;
      u.dep_distance = op.dep_distance;
      if (op.cls == OpClass::kLockedLoad) u.locked = true;
      if (op.cls == OpClass::kBranch && u.last_of_macro) {
        u.is_branch = true;
        u.taken = op.taken;
        u.mispredicted = mispredicted;
      }
    }
  }
}

bool Frontend::refill(std::uint64_t now, CounterSet& counters) {
  if (!staged_valid_) {
    if (wrong_path_) {
      staged_ = make_phantom();
      staged_phantom_ = true;
    } else {
      if (stream_done_) return false;
      if (!stream_.next(staged_)) {
        stream_done_ = true;
        return false;
      }
      staged_phantom_ = false;
    }
    staged_valid_ = true;
  }

  const MacroOp& op = staged_;
  // dsb_ rejects a window size that is not a power of two.
  const std::uint64_t window = op.pc >> window_shift_;
  const bool new_window = window != last_window_;
  const bool microcoded = op.cls == OpClass::kMicrocoded ||
                          op.uop_count > 4;

  Path new_path = path_;
  if (new_window) {
    // LSD: a tight loop bouncing between at most two fetch windows keeps
    // being replayed from the IDQ after a warm-up streak.
    const bool loopy = (window == prev_window_ || window == last_window_);
    if (loopy && same_window_streak_ >= cfg_.lsd_min_streak) {
      new_path = Path::kLsd;
      ++same_window_streak_;
    } else {
      same_window_streak_ = loopy ? same_window_streak_ + 1 : 0;
      if (dsb_.lookup(op.pc)) {
        new_path = Path::kDsb;
      } else {
        new_path = Path::kMite;
        // Legacy decode goes through the I-cache and ITLB.
        if (!itlb_.access(op.pc)) {
          counters.add(Event::kItlbMissesWalkPending,
                       static_cast<std::uint64_t>(cfg_.page_walk_latency));
          fetch_stall_until_ = now + static_cast<std::uint64_t>(cfg_.page_walk_latency);
          return true;  // staged op waits out the walk
        }
        const MemAccess fetch = memory_.ifetch(op.pc, now);
        if (fetch.latency > 0) {
          counters.add(Event::kIcache16bIfdataStall,
                       static_cast<std::uint64_t>(fetch.latency));
          counters.add(Event::kIcache64bIftagStall, 1);
          fetch_stall_until_ = now + static_cast<std::uint64_t>(fetch.latency);
          return true;  // bubble; decode resumes after the fill
        }
        // Deterministic length-changing-prefix hiccup on a small fraction
        // of legacy-decoded windows.
        if ((window * 0x9e3779b97f4a7c15ULL >> 27) % 37 == 0) {
          counters.add(Event::kIldStallLcp, 3);
          fetch_stall_until_ = now + 3;
        }
      }
    }
    prev_window_ = last_window_;
    last_window_ = window;
  } else {
    ++same_window_streak_;
    // A loop living inside a single fetch window never triggers the
    // window-change path selection above, but it still graduates: to the
    // DSB once its uops have been built there, and to the LSD once the
    // streak proves it is a tiny loop.
    if (same_window_streak_ >= cfg_.lsd_min_streak) {
      new_path = Path::kLsd;
    } else if (path_ == Path::kMite && same_window_streak_ >= 8 &&
               dsb_.lookup(op.pc)) {
      new_path = Path::kDsb;
    }
  }

  if (microcoded) {
    if (path_ != Path::kMs) {
      counters.add(Event::kIdqMsSwitches, 1);
      if (new_path == Path::kDsb || path_ == Path::kDsb) {
        counters.add(Event::kIdqMsDsbCycles,
                     static_cast<std::uint64_t>(cfg_.ms_switch_penalty));
      }
      fetch_stall_until_ = std::max(
          fetch_stall_until_, now + static_cast<std::uint64_t>(cfg_.ms_switch_penalty));
      // Remember the regular supply path so the MS episode ends with the
      // next non-microcoded op instead of sticking.
      resume_path_ = new_path;
    }
    new_path = Path::kMs;
  } else if (path_ == Path::kMs && !new_window) {
    new_path = resume_path_;
  }

  // DSB -> MITE transition penalty.
  if (new_path == Path::kMite && path_ == Path::kDsb) {
    counters.add(Event::kDsb2MiteSwitchesPenaltyCycles,
                 static_cast<std::uint64_t>(cfg_.dsb_to_mite_penalty));
    fetch_stall_until_ = std::max(
        fetch_stall_until_, now + static_cast<std::uint64_t>(cfg_.dsb_to_mite_penalty));
  }

  last_path_ = path_;
  path_ = new_path;

  // A window decoded by MITE is built into the DSB for next time.
  if (new_path == Path::kMite) dsb_.fill(op.pc);

  if (fetch_stall_until_ > now) return true;  // penalty starts before decode

  // Branch prediction at decode time.
  bool mispredicted = false;
  if (!staged_phantom_ && op.cls == OpClass::kBranch) {
    const bool predicted = predictor_.predict_taken(op.pc);
    mispredicted = predicted != op.taken;
    if (!mispredicted && op.taken && !predictor_.has_target(op.pc, op.target)) {
      // Right direction, unknown target: front-end re-steer.
      counters.add(Event::kBaclearsAny, 1);
      fetch_stall_until_ = now + static_cast<std::uint64_t>(cfg_.branch_redirect_penalty);
    }
    predictor_.update(op.pc, op.taken, op.target);
    if (mispredicted) wrong_path_ = true;
  }

  expand_macro(op, staged_phantom_, mispredicted);
  staged_valid_ = false;
  return true;
}

template <class Queue>
int Frontend::cycle(std::uint64_t now, Queue& idq, CounterSet& counters) {
  if (now < fetch_stall_until_) {
    if (!in_bubble_) {
      in_bubble_ = true;
      bubble_started_ = now;
    }
    return 0;
  }
  if (in_bubble_) {
    in_bubble_ = false;
    if (now - bubble_started_ >= 2) {
      recent_bubbles_ = std::min(recent_bubbles_ + 1, 3);
      last_bubble_decay_ = now;
    }
  }
  if (now - last_bubble_decay_ >= 32) {
    recent_bubbles_ = std::max(recent_bubbles_ - 1, 0);
    last_bubble_decay_ = now;
  }

  auto width_of = [&](Path p) {
    switch (p) {
      case Path::kDsb: return cfg_.fetch_width_dsb;
      case Path::kLsd: return cfg_.fetch_width_dsb;
      case Path::kMs: return cfg_.fetch_width_ms;
      case Path::kMite: return cfg_.fetch_width_mite;
    }
    return cfg_.fetch_width_mite;
  };

  int delivered = 0;
  int dsb_uops = 0;
  int mite_uops = 0;
  int ms_uops = 0;
  int lsd_uops = 0;
  bool have_path = false;
  Path cycle_path = path_;
  int width = 0;

  while (static_cast<int>(idq.size()) < cfg_.idq_capacity) {
    if (pending_.empty()) {
      if (!refill(now, counters)) break;
      if (now < fetch_stall_until_) break;  // refill began a stall
      if (pending_.empty()) continue;       // staged but not yet decoded
      if (have_path && path_ != cycle_path) break;  // path switch: next cycle
    }
    if (!have_path) {
      cycle_path = path_;
      width = width_of(cycle_path);
      have_path = true;
    }
    if (delivered >= width) break;

    idq.push_back(pending_.front());
    pending_.pop_front();
    ++delivered;
    switch (cycle_path) {
      case Path::kDsb: ++dsb_uops; break;
      case Path::kMite: ++mite_uops; break;
      case Path::kMs: ++ms_uops; break;
      case Path::kLsd: ++lsd_uops; break;
    }
  }

  if (dsb_uops > 0) {
    counters.add(Event::kIdqDsbCycles, 1);
    counters.add(Event::kIdqAllDsbCyclesAnyUops, 1);
    counters.add(Event::kIdqDsbUops, static_cast<std::uint64_t>(dsb_uops));
  }
  if (mite_uops > 0) {
    counters.add(Event::kIdqMiteCycles, 1);
    counters.add(Event::kIdqMiteUops, static_cast<std::uint64_t>(mite_uops));
  }
  if (ms_uops > 0) {
    counters.add(Event::kIdqMsCycles, 1);
    counters.add(Event::kIdqMsUops, static_cast<std::uint64_t>(ms_uops));
  }
  if (lsd_uops > 0) {
    counters.add(Event::kLsdCyclesActive, 1);
    counters.add(Event::kLsdUops, static_cast<std::uint64_t>(lsd_uops));
  }
  return delivered;
}

template int Frontend::cycle(std::uint64_t, Ring<Uop>&, CounterSet&);
template int Frontend::cycle(std::uint64_t, std::deque<Uop>&, CounterSet&);

}  // namespace spire::sim
