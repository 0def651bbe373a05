// The data-side memory hierarchy: L1D -> L2 -> L3 -> DRAM, with fill-buffer
// (MSHR) tracking, a DRAM bandwidth queue, and a load DTLB.
//
// Access returns the latency and the level that serviced the request; the
// core turns those into cycle_activity / mem_load_retired counter updates.
// Determinism: latency depends only on cache state and the access sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"

namespace spire::sim {

/// Which level serviced a memory access.
enum class MemLevel : std::uint8_t { kL1, kFillBuffer, kL2, kL3, kDram };

/// Outcome of one data access.
struct MemAccess {
  int latency = 0;       // cycles from dispatch to data return
  MemLevel level = MemLevel::kL1;
  bool tlb_walk = false; // a DTLB page walk was required
  int tlb_walk_cycles = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const CoreConfig& config);

  /// Data load at `addr` issued at cycle `now`.
  MemAccess load(std::uint64_t addr, std::uint64_t now);

  /// Data store at `addr` (post-retirement drain) at cycle `now`. Stores
  /// allocate lines (write-allocate) but complete into the store buffer, so
  /// only bandwidth effects matter; latency is returned for drain pacing.
  MemAccess store(std::uint64_t addr, std::uint64_t now);

  /// Instruction fetch at `addr` (L1I -> L2 -> L3 -> DRAM; no DTLB).
  MemAccess ifetch(std::uint64_t addr, std::uint64_t now);

  /// Fill buffers busy at one cycle (pending L1D misses).
  struct PendingMisses {
    int count = 0;
    MemLevel deepest = MemLevel::kL1;  // kL1 if none
  };

  /// The misses pending at cycle `now`. The core asks every cycle; the
  /// answer is cached until the next miss completes or a load changes the
  /// fill buffers, so a stalled cycle does not rescan them.
  PendingMisses pending(std::uint64_t now) const;

  int pending_misses(std::uint64_t now) const { return pending(now).count; }
  MemLevel deepest_pending(std::uint64_t now) const {
    return pending(now).deepest;
  }

  /// Evicts roughly `lines` recently used L1I/L1D lines (an interrupt
  /// handler's cache footprint). TLBs are untouched.
  void pollute(int lines);

  /// Cold restart between workloads.
  void flush();

  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }

 private:
  struct PendingMiss {
    std::uint64_t line = 0;
    std::uint64_t done = 0;  // completion cycle
    MemLevel level = MemLevel::kL2;
  };

  /// Looks up L2/L3/DRAM for a line miss and returns (latency, level),
  /// applying the DRAM service queue when it goes all the way out.
  std::pair<int, MemLevel> beyond_l1(std::uint64_t addr, std::uint64_t now);

  int dtlb_check(std::uint64_t addr, MemAccess& out);

  /// Stride-stream prefetcher: trains on demand-load addresses and runs a
  /// configurable distance ahead, filling lines through the same DRAM
  /// bandwidth queue so streaming workloads become bandwidth- rather than
  /// latency-bound (the roofline behaviour real streamers produce).
  void train_prefetcher(std::uint64_t addr, std::uint64_t now);
  void issue_prefetch(std::uint64_t addr, std::uint64_t now);

  CoreConfig cfg_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  Cache l3_;
  Cache dtlb_;
  std::vector<PendingMiss> mshrs_;
  // pending() for every cycle in [pending_from_, pending_until_); loads
  // that touch mshrs_ empty the range.
  mutable PendingMisses pending_;
  mutable std::uint64_t pending_from_ = 0;
  mutable std::uint64_t pending_until_ = 0;
  std::vector<PendingMiss> prefetches_;  // in-flight prefetched lines
  std::uint64_t dram_next_free_ = 0;
  std::uint64_t pollute_cursor_ = 0;

  // Prefetcher training state (single active stream).
  std::uint64_t pf_last_addr_ = 0;
  std::int64_t pf_delta_ = 0;
  int pf_confidence_ = 0;
  std::uint64_t pf_next_ = 0;  // next address the stream will fetch
};

}  // namespace spire::sim
