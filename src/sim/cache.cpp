#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace spire::sim {

Cache::Cache(const CacheGeometry& geometry)
    : sets_(geometry.sets),
      ways_(geometry.ways),
      line_bytes_(geometry.line_bytes),
      tags_(static_cast<std::size_t>(geometry.sets) * geometry.ways),
      stamps_(tags_.size(), 0) {
  if (sets_ == 0 || ways_ == 0 || line_bytes_ == 0 ||
      !std::has_single_bit(line_bytes_)) {
    throw std::invalid_argument("cache: bad geometry");
  }
  line_shift_ = std::countr_zero(line_bytes_);
  set_shift_ = std::has_single_bit(sets_) ? std::countr_zero(sets_) : -1;
}

bool Cache::lookup(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::size_t base = set_of(line) * ways_;
  const std::uint64_t tag = tag_of(line);
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == tag && stamps_[i] != 0) {
      stamps_[i] = ++stamp_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

bool Cache::fill(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::size_t base = set_of(line) * ways_;
  const std::uint64_t tag = tag_of(line);
  // Victim: the first invalid way, else the least recently used one.
  std::size_t victim = base;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (stamps_[i] == 0) {
      if (stamps_[victim] != 0) victim = i;
    } else if (tags_[i] == tag) {
      stamps_[i] = ++stamp_;  // already present
      return false;
    } else if (stamps_[victim] != 0 && stamps_[i] < stamps_[victim]) {
      victim = i;
    }
  }
  const bool evicted = stamps_[victim] != 0;
  if (evicted) ++replacements_;
  tags_[victim] = tag;
  stamps_[victim] = ++stamp_;
  return evicted;
}

bool Cache::access(std::uint64_t addr) {
  if (lookup(addr)) return true;
  fill(addr);
  return false;
}

void Cache::flush() { std::fill(stamps_.begin(), stamps_.end(), 0); }

}  // namespace spire::sim
