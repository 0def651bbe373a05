// The micro-op record that flows from the front-end through the back-end.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace spire::sim {

/// Macro-id shared by all wrong-path phantom uops (they carry no
/// dependencies, so they need no producer tracking).
inline constexpr std::uint64_t kPhantomMacroId = ~std::uint64_t{0};

/// One scheduled micro-op. Fields tagged at fetch time ride along to retire,
/// where they drive the *_retired counters.
struct Uop {
  // Flags are bitfields packed beside the byte fields (32 bytes in all): the
  // front-end buffer, the IDQ and the ROB each copy every uop.
  OpClass cls = OpClass::kAluInt;
  std::uint8_t fe_bubbles = 0; // recent >=2-cycle fetch-bubble episodes (0-3)
  bool first_of_macro : 1 = true;
  bool last_of_macro : 1 = true;
  bool is_branch : 1 = false;
  bool taken : 1 = false;
  bool mispredicted : 1 = false;   // resolved at execute; set at fetch from trace
  bool phantom : 1 = false;        // wrong-path filler; never retires
  bool locked : 1 = false;         // locked load (atomic RMW)
  bool is_store_addr : 1 = false;
  bool is_store_data : 1 = false;
  bool chain_prev : 1 = false;     // depends on the previous uop of its macro-op
  bool dsb_miss : 1 = false;       // macro-op was fetched via the legacy decoder
  std::int32_t dep_distance = 0;  // macro-op distance to the producer, 0=none
  std::uint64_t macro_id = 0;  // global macro-op sequence number
  std::uint64_t pc = 0;
  std::uint64_t addr = 0;
};

}  // namespace spire::sim
