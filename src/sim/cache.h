// A generic set-associative cache with LRU replacement.
//
// Used for L1I, L1D, L2, L3, the DSB (uop cache, where a "line" is a fetch
// window), and the TLBs (where a "line" is a page). Only presence is
// modeled — the data path is irrelevant to counter behaviour — so an access
// is a lookup + optional fill, and the replacement counter is exposed for
// events like l1d.replacement.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace spire::sim {

class Cache {
 public:
  explicit Cache(const CacheGeometry& geometry);

  /// True when `addr`'s line is present; updates LRU on hit.
  bool lookup(std::uint64_t addr);

  /// Inserts `addr`'s line, evicting LRU if needed. Returns true when an
  /// existing valid line was evicted.
  bool fill(std::uint64_t addr);

  /// lookup + fill-on-miss; returns true on hit.
  bool access(std::uint64_t addr);

  /// Invalidates everything (cold restart between workloads).
  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t replacements() const { return replacements_; }
  std::uint32_t line_bytes() const { return line_bytes_; }

 private:
  std::uint64_t set_of(std::uint64_t line) const {
    return set_shift_ >= 0 ? line & (sets_ - 1) : line % sets_;
  }
  std::uint64_t tag_of(std::uint64_t line) const {
    return set_shift_ >= 0 ? line >> set_shift_ : line / sets_;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_bytes_;
  int line_shift_;
  int set_shift_;  // log2(sets_) when sets_ is a power of two, else -1
  // Way w of set s is slot s * ways_ + w. A stamp of 0 marks an invalid
  // way; valid ways carry their last-use time (stamps start at 1).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t replacements_ = 0;
};

}  // namespace spire::sim
