#include "workloads/profile_stream.h"

#include <algorithm>

namespace spire::workloads {

using sim::MacroOp;
using sim::OpClass;

namespace {

constexpr std::uint64_t kCodeBase = 0x400000;
constexpr std::uint64_t kDataBase = 0x10000000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

ProfileStream::ProfileStream(const WorkloadProfile& profile)
    : profile_(profile), rng_(profile.seed) {
  body_sites_ = std::max<std::uint64_t>(profile_.code_footprint_bytes / 4, 8);
  // Per-site behaviour: a branch_entropy fraction of branch sites flip
  // coins; the rest are strongly biased.
  const auto random_cutoff =
      static_cast<std::uint64_t>(profile_.branch_entropy * 1024.0);
  sites_.resize(body_sites_);
  for (std::uint64_t site = 0; site < body_sites_; ++site) {
    sites_[site].cls = class_at(site);
    sites_[site].random_branch =
        (mix(profile_.seed ^ 0xb7, site) % 1024) < random_cutoff;
  }
}

void ProfileStream::reset() {
  rng_ = util::Rng(profile_.seed);
  emitted_ = 0;
  site_ = 0;
  seq_pos_ = 0;
  chase_ = 0;
  last_load_ago_ = -1;
}

OpClass ProfileStream::class_at(std::uint64_t site) const {
  // The final site of the body is the loop's backward branch.
  if (site == body_sites_ - 1) return OpClass::kBranch;
  const double u = static_cast<double>(mix(profile_.seed, site) >> 11) * 0x1.0p-53;
  double acc = 0.0;
  const auto in = [&](double f) {
    acc += f;
    return u < acc;
  };
  if (in(profile_.load_fraction)) return OpClass::kLoad;
  if (in(profile_.store_fraction)) return OpClass::kStore;
  if (in(profile_.branch_fraction)) return OpClass::kBranch;
  if (in(profile_.vec512_fraction)) return OpClass::kVec512;
  if (in(profile_.vec256_fraction)) return OpClass::kVec256;
  if (in(profile_.fp_fraction)) return OpClass::kAluFp;
  if (in(profile_.mul_fraction)) return OpClass::kMul;
  if (in(profile_.div_fraction)) return OpClass::kDiv;
  if (in(profile_.microcoded_fraction)) return OpClass::kMicrocoded;
  if (in(profile_.locked_fraction)) return OpClass::kLockedLoad;
  if (in(profile_.nop_fraction)) return OpClass::kNop;
  return OpClass::kAluInt;
}

std::uint64_t ProfileStream::next_address() {
  const std::uint64_t ws = std::max<std::uint64_t>(profile_.data_working_set_bytes, 64);
  switch (profile_.mem_pattern) {
    case MemPattern::kSequential:
    case MemPattern::kStrided: {
      const std::uint64_t offset =
          (seq_pos_ * profile_.mem_stride_bytes) % ws;
      ++seq_pos_;
      return kDataBase + offset;
    }
    case MemPattern::kRandom:
      return kDataBase + (rng_.below(ws) & ~std::uint64_t{7});
    case MemPattern::kPointerChase: {
      chase_ = mix(chase_ + 1, profile_.seed) % ws;
      return kDataBase + (chase_ & ~std::uint64_t{7});
    }
  }
  return kDataBase;
}

bool ProfileStream::next(MacroOp& op) {
  if (emitted_ >= profile_.instruction_count) return false;
  ++emitted_;

  const std::uint64_t site = site_;
  if (++site_ == body_sites_) site_ = 0;
  if (last_load_ago_ >= 0) ++last_load_ago_;

  op = MacroOp{};
  op.pc = kCodeBase + site * 4;
  op.cls = sites_[site].cls;
  op.uop_count = 1;

  switch (op.cls) {
    case OpClass::kLoad:
    case OpClass::kLockedLoad: {
      op.addr = next_address();
      if (profile_.mem_pattern == MemPattern::kPointerChase &&
          last_load_ago_ > 0) {
        // Address depends on the previous load's value.
        op.dep_distance = static_cast<std::int32_t>(
            std::min<std::int64_t>(last_load_ago_, 255));
      }
      last_load_ago_ = 0;
      break;
    }
    case OpClass::kStore: {
      op.addr = next_address();
      op.uop_count = 2;
      break;
    }
    case OpClass::kBranch: {
      const bool loop_end = site == body_sites_ - 1;
      if (loop_end) {
        op.taken = emitted_ < profile_.instruction_count;
        op.target = kCodeBase;
      } else {
        op.taken = sites_[site].random_branch ? rng_.chance(0.5)
                                              : rng_.chance(0.97);
        op.target = op.pc + 16;
      }
      break;
    }
    case OpClass::kMicrocoded:
      op.uop_count = 8;
      break;
    default:
      break;
  }

  // Cross-op dependencies for the compute classes (the ILP knob).
  if (op.dep_distance == 0 && op.cls != OpClass::kNop &&
      op.cls != OpClass::kStore && profile_.dep_fraction > 0.0 &&
      rng_.chance(profile_.dep_fraction)) {
    op.dep_distance = static_cast<std::int32_t>(
        std::clamp(profile_.dep_chain, 1, 255));
  }
  // Stores carry their data dependency through dep_distance as well.
  if (op.cls == OpClass::kStore && rng_.chance(profile_.dep_fraction)) {
    op.dep_distance = static_cast<std::int32_t>(
        std::clamp(profile_.dep_chain, 1, 255));
  }

  return true;
}

}  // namespace spire::workloads
