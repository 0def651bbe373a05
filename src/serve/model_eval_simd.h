// Internal interface of the vectorized segment-select kernel
// (model_eval_simd.cpp, compiled with -mavx2 on every x86-64 build whose
// compiler accepts the flag; the definition SPIRE_EVAL_AVX2 gates every
// reference). Runtime-dispatched: callers must check
// avx2_select_supported() first, so the rest of the serve library stays
// runnable on any x86-64 CPU.
//
// The kernel is bit-identical to the portable select chain in
// model_eval.cpp (select_piece): IEEE-exact vdivpd/vmulpd/vaddpd on the
// same endpoint-form expression, with the edge cases as vector blends in
// the same priority order. No FMA is used or enabled, so no contraction
// can change the bits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spire::serve::detail {

/// One metric's select constants plus the lane block to process. `useg`
/// holds UNIFIED lower_bound indices (see EvalPlan::Metric::ux1); the
/// kernel maps them to scalar piece indices with left_begin/right_off.
struct Avx2SelectArgs {
  const double* xs = nullptr;          // lane intensities
  const std::uint32_t* useg = nullptr; // unified lower_bound per lane
  double* ps = nullptr;                // evaluated throughput out
  std::size_t count = 0;
  const double* rows = nullptr;        // EvalPlan::rows(): x0,y0,x1,y1 per piece
  bool has_left = false;
  double left_max = 0.0;
  std::size_t left_begin = 0;
  std::size_t left_end = 0;
  std::size_t right_end = 0;
  std::size_t right_off = 0;
  // Region edge-case constants: first-piece clamp and at-end values.
  double bx0l = 0.0, by0l = 0.0, ey1l = 0.0;
  double bx0r = 0.0, by0r = 0.0, ey1r = 0.0;
};

/// True when the running CPU executes AVX2 (cached cpuid probe).
bool avx2_select_supported();

/// Evaluates the leading floor-of-4 lanes of `args`; returns how many it
/// processed (a multiple of 4 — the caller finishes the remainder with
/// the portable chain). Must only be called when avx2_select_supported().
std::size_t avx2_select(const Avx2SelectArgs& args);

}  // namespace spire::serve::detail
