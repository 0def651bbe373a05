#include "sim/memory_hierarchy.h"

#include <algorithm>
#include <cstdlib>

namespace spire::sim {

MemoryHierarchy::MemoryHierarchy(const CoreConfig& config)
    : cfg_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      l3_(config.l3),
      dtlb_(config.dtlb) {
  mshrs_.reserve(static_cast<std::size_t>(cfg_.mshr_capacity));
}

std::pair<int, MemLevel> MemoryHierarchy::beyond_l1(std::uint64_t addr,
                                                    std::uint64_t now) {
  if (l2_.access(addr)) return {cfg_.lat_l2, MemLevel::kL2};
  if (l3_.access(addr)) return {cfg_.lat_l3, MemLevel::kL3};
  // DRAM: a line transfer occupies the channel for dram_service_interval
  // cycles, so back-to-back misses queue behind each other (the bandwidth
  // wall of the roofline model).
  const std::uint64_t start = std::max(now, dram_next_free_);
  dram_next_free_ = start + static_cast<std::uint64_t>(cfg_.dram_service_interval);
  const int queue_delay = static_cast<int>(start - now);
  return {cfg_.lat_dram + queue_delay, MemLevel::kDram};
}

int MemoryHierarchy::dtlb_check(std::uint64_t addr, MemAccess& out) {
  if (dtlb_.access(addr)) return 0;
  out.tlb_walk = true;
  out.tlb_walk_cycles = cfg_.page_walk_latency;
  return cfg_.page_walk_latency;
}

void MemoryHierarchy::issue_prefetch(std::uint64_t addr, std::uint64_t now) {
  if (l1d_.lookup(addr)) return;
  const std::uint64_t line = addr / l1d_.line_bytes();
  for (const auto& p : prefetches_) {
    if (p.line == line) return;  // already in flight
  }
  auto [latency, level] = beyond_l1(addr, now);
  prefetches_.push_back(
      {line, now + static_cast<std::uint64_t>(latency), level});
  l1d_.fill(addr);
}

void MemoryHierarchy::train_prefetcher(std::uint64_t addr, std::uint64_t now) {
  const auto delta =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(pf_last_addr_);
  if (delta != 0 && delta == pf_delta_ && std::abs(delta) <= 4096) {
    pf_confidence_ = std::min(pf_confidence_ + 1, 4);
  } else if (delta != 0) {
    pf_delta_ = delta;
    if (--pf_confidence_ <= 0) {
      pf_confidence_ = 0;
      pf_next_ = addr;
    }
  }
  pf_last_addr_ = addr;
  if (pf_confidence_ < 2) return;

  // Keep the stream at most 16 strides ahead of demand, issuing a few
  // lines per training access.
  const auto ahead_of = [&](std::uint64_t next) {
    const auto lead =
        static_cast<std::int64_t>(next) - static_cast<std::int64_t>(addr);
    return pf_delta_ > 0 ? lead > 0 : lead < 0;
  };
  if (pf_next_ == 0 || !ahead_of(pf_next_)) {
    pf_next_ = addr + static_cast<std::uint64_t>(pf_delta_);
  }
  std::erase_if(prefetches_,
                [now](const PendingMiss& m) { return m.done <= now; });
  for (int i = 0; i < 8 && prefetches_.size() < 48; ++i) {
    const auto lead =
        static_cast<std::int64_t>(pf_next_) - static_cast<std::int64_t>(addr);
    if (std::abs(lead) > 64 * std::abs(pf_delta_)) break;
    issue_prefetch(pf_next_, now);
    pf_next_ += static_cast<std::uint64_t>(pf_delta_);
  }
}

MemAccess MemoryHierarchy::load(std::uint64_t addr, std::uint64_t now) {
  MemAccess out;
  const int walk = dtlb_check(addr, out);

  const std::uint64_t line = addr / l1d_.line_bytes();
  train_prefetcher(addr, now);
  if (l1d_.lookup(addr)) {
    // The line's tag is present but its data may still be in flight (the
    // fill happens at miss time for bookkeeping): a pending prefetch or
    // demand miss to the same line is a fill-buffer hit with the remaining
    // latency. A settled line is a plain L1 hit.
    for (const auto& p : prefetches_) {
      if (p.line == line && p.done > now) {
        out.latency = static_cast<int>(p.done - now) + cfg_.lat_l1 + walk;
        out.level = MemLevel::kFillBuffer;
        return out;
      }
    }
    for (const auto& m : mshrs_) {
      if (m.line == line && m.done > now) {
        out.latency = static_cast<int>(m.done - now) + cfg_.lat_l1 + walk;
        out.level = MemLevel::kFillBuffer;
        return out;
      }
    }
    out.latency = cfg_.lat_l1 + walk;
    out.level = MemLevel::kL1;
    return out;
  }

  // Retire completed fill buffers, then check for a secondary miss to the
  // same line (a fill-buffer hit: waits for the earlier miss).
  std::erase_if(mshrs_, [now](const PendingMiss& m) { return m.done <= now; });
  for (const auto& m : mshrs_) {
    if (m.line == line) {
      out.latency = static_cast<int>(m.done - now) + cfg_.lat_l1 + walk;
      out.level = MemLevel::kFillBuffer;
      return out;
    }
  }

  auto [miss_latency, level] = beyond_l1(addr, now);
  int latency = miss_latency + walk;

  // All fill buffers busy: the load waits until the earliest one frees.
  if (static_cast<int>(mshrs_.size()) >= cfg_.mshr_capacity) {
    std::uint64_t earliest = mshrs_.front().done;
    for (const auto& m : mshrs_) earliest = std::min(earliest, m.done);
    latency += static_cast<int>(earliest - now);
    std::erase_if(mshrs_, [earliest](const PendingMiss& m) {
      return m.done <= earliest;
    });
  }

  mshrs_.push_back({line, now + static_cast<std::uint64_t>(latency), level});
  pending_until_ = 0;
  l1d_.fill(addr);
  out.latency = latency;
  out.level = level;
  return out;
}

MemAccess MemoryHierarchy::store(std::uint64_t addr, std::uint64_t now) {
  MemAccess out;
  const int walk = dtlb_check(addr, out);
  // Streaming stores train the prefetcher too (RFO prefetch).
  train_prefetcher(addr, now);
  if (l1d_.lookup(addr)) {
    out.latency = cfg_.lat_l1 + walk;
    out.level = MemLevel::kL1;
    return out;
  }
  // Write-allocate: the line is brought in but the store completes into the
  // store buffer, so the returned latency only paces the drain.
  auto [miss_latency, level] = beyond_l1(addr, now);
  l1d_.fill(addr);
  out.latency = miss_latency + walk;
  out.level = level;
  return out;
}

MemAccess MemoryHierarchy::ifetch(std::uint64_t addr, std::uint64_t now) {
  MemAccess out;
  if (l1i_.access(addr)) {
    out.latency = 0;  // hit: fetch proceeds without a bubble
    out.level = MemLevel::kL1;
    return out;
  }
  auto [miss_latency, level] = beyond_l1(addr, now);
  out.latency = miss_latency;
  out.level = level;
  return out;
}

MemoryHierarchy::PendingMisses MemoryHierarchy::pending(
    std::uint64_t now) const {
  if (now < pending_from_ || now >= pending_until_) {
    pending_ = {};
    pending_from_ = now;
    pending_until_ = ~std::uint64_t{0};
    for (const auto& m : mshrs_) {
      if (m.done <= now) continue;
      ++pending_.count;
      pending_.deepest = std::max(pending_.deepest, m.level);
      pending_until_ = std::min(pending_until_, m.done);
    }
  }
  return pending_;
}

void MemoryHierarchy::pollute(int lines) {
  // The handler's code and data walk sequential kernel addresses, evicting
  // whatever they conflict with. Advancing the base each call spreads the
  // evictions across sets like a real handler's varying stack/data would.
  static constexpr std::uint64_t kKernelBase = 0xffff800000000000ULL;
  for (int i = 0; i < lines; ++i) {
    const std::uint64_t addr =
        kKernelBase + (pollute_cursor_ + static_cast<std::uint64_t>(i)) * 64;
    l1i_.fill(addr);
    l1d_.fill(addr);
  }
  pollute_cursor_ += static_cast<std::uint64_t>(lines);
}

void MemoryHierarchy::flush() {
  l1i_.flush();
  l1d_.flush();
  l2_.flush();
  l3_.flush();
  dtlb_.flush();
  mshrs_.clear();
  pending_until_ = 0;
  prefetches_.clear();
  dram_next_free_ = 0;
  pf_last_addr_ = 0;
  pf_delta_ = 0;
  pf_confidence_ = 0;
  pf_next_ = 0;
}

}  // namespace spire::sim
