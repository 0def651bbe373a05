// The flattened-table evaluator behind every serving surface.
//
// A v3 image (serve::CompiledModel, owned or mmap'd) holds the model as one
// structure-of-arrays shape: per-metric piece-index ranges over shared
// x0/y0/x1/y1 endpoint columns. EvalTables is that shape as non-owning
// spans, and the functions here are THE single implementation of the
// bit-identity contract — estimate results identical to
// Ensemble::estimate down to the last ulp, same ranking order, same skip
// reasons, same error text.
//
// Two evaluation paths share that contract:
//
//  * the SCALAR REFERENCE (eval_roofline / estimate_tables): one sample at
//    a time, per-sample std::lower_bound over the x1 column. This is the
//    pre-batch-kernel hot path, kept verbatim as the semantic ground truth
//    every other path is checked against;
//  * the BATCH KERNEL (EvalBatch): a two-phase plan/execute restructuring
//    of the same lookup. The PLAN is per-model, immutable, and built once
//    (EvalPlan, built lazily by CompiledModel on first use):
//    each metric's two region slices of the x1 column merge into ONE
//    ascending UNIFIED column (left entries <= left_max, then right
//    entries above it — a lower_bound there maps back to the scalar index
//    by adding a region-constant offset, so the hot loop never selects a
//    region), covered by a BITS-DOMAIN ROUTING GRID: for the non-negative
//    finite doubles intensities live in, the IEEE bit pattern is
//    order-isomorphic to the value, so bucket edges taken at exact
//    bit-lattice points make `(bits(x) - lo_bits) >> shift` an EXACT
//    lower_bound window router — no floating-point rounding, no guard
//    needed. The EXECUTE phase streams the staged lanes in blocks through
//    a short software pipeline (route -> window fetch -> window search ->
//    segment select), each sub-pass prefetching the next one's random
//    loads a full block ahead, which is what keeps throughput flat when
//    the model's tables dwarf the cache while the scalar reference pays
//    log2(pieces) dependent uncached probes per sample. A batch that
//    arrives sorted skips the grid for a forward MERGE SWEEP (galloped
//    lower_bound that only moves right); batches below kMinPlanLanes run
//    the scalar reference outright (and are counted as such). The segment
//    select + endpoint interpolation runs branchless — integer-mask
//    blends in the portable build, a 4-wide AVX2 block (runtime-dispatched
//    behind __builtin_cpu_supports) when the build sets -DSPIRE_SIMD=ON.
//    Bit-identity holds by construction: the arithmetic per lane is
//    LinearPiece::at's exact endpoint-form expression and only the ORDER
//    and MECHANISM of segment lookup move. Debug/SPIRE_CHECKED builds
//    re-verify every lane against the scalar reference bit-for-bit.
//
// Everything is read-only over the tables: one table set can serve
// concurrent calls from any number of threads without locks (each thread
// needs its own EvalBatch scratch — see thread_eval_batch()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset_view.h"
#include "spire/ensemble.h"
#include "spire/model_bin_v3.h"
#include "util/thread_pool.h"

namespace spire::serve {

struct EvalPlan;

/// Non-owning view of flattened model tables. `metrics` and `ranges` are
/// parallel (ascending Event order); piece i of the shared columns is the
/// segment (x0[i], y0[i]) -> (x1[i], y1[i]). Endpoint form, not
/// slope/intercept: LinearPiece::at's exact expression is what the
/// bit-identity contract replicates. `plan` optionally points at the
/// model-owned evaluation plan (same lifetime as the columns); the batch
/// kernel builds a per-call scratch plan when it is absent, so hand-built
/// tables (tests, tools) stay valid inputs.
struct EvalTables {
  std::span<const counters::Event> metrics;
  std::span<const model::v3::MetricRange> ranges;
  std::span<const double> x0, y0, x1, y1;
  const EvalPlan* plan = nullptr;

  std::size_t metric_count() const { return ranges.size(); }
  std::size_t piece_count() const { return x0.size(); }
};

/// Immutable per-model derived data for the batch kernel's plan phase —
/// everything about segment lookup that depends only on the tables, hoisted
/// out of the per-batch hot path and built ONCE per model (~40 bytes per
/// piece). Move-only: the interleaved row base is an alignment-adjusted
/// offset into rows_storage, which moves with the buffer but would not
/// survive a copy's reallocation.
struct EvalPlan {
  struct Metric {
    /// The two region slices of the x1 column merged into one ascending
    /// array: left entries with x1 <= left_max (always a prefix of the
    /// left slice), then right entries above left_max. Entries outside
    /// those windows are unreachable by their region's lower_bound, so
    /// dropping them changes no lane's result; a lower_bound index u here
    /// maps to the scalar piece index as `(in_left ? left_begin :
    /// right_off) + u`. Never empty (an unreachable +inf sentinel keeps
    /// the window search total).
    std::vector<double> ux1;
    /// Bits-domain routing grid over ux1: bucket b spans the exact
    /// bit-lattice interval [lo_bits + (b << shift), lo_bits + ((b + 1)
    /// << shift)), and start[b] is lower_bound(ux1, edge(b)) — so
    /// start[b] <= lower_bound(ux1, x) <= start[b + 1] for every lane
    /// routed to b. start.size() == buckets + 1.
    std::vector<std::uint32_t> start;
    std::uint64_t lo_bits = 0;
    unsigned shift = 63;
    std::uint32_t buckets = 1;
    /// Left entries kept in ux1 (0 when the metric has no left region).
    std::uint32_t left_len = 0;
    /// right_begin + (right entries dropped) - left_len: the piece-index
    /// offset that maps a unified u back to the scalar lower_bound for
    /// lanes routed right.
    std::uint32_t right_off = 0;
  };

  /// Parallel to EvalTables::ranges.
  std::vector<Metric> metrics;

  /// Builds the plan for `tables` (whose `plan` member is ignored).
  static EvalPlan build(const EvalTables& tables);

  /// 32-byte-aligned interleaved piece rows: rows()[4 * i + {0, 1, 2, 3}]
  /// = {x0, y0, x1, y1}[i]. One row = one cache-friendly 32-byte load for
  /// the vectorized select, never straddling a 64-byte line.
  const double* rows() const { return rows_storage.data() + rows_offset; }

  EvalPlan() = default;
  EvalPlan(EvalPlan&&) = default;
  EvalPlan& operator=(EvalPlan&&) = default;
  EvalPlan(const EvalPlan&) = delete;
  EvalPlan& operator=(const EvalPlan&) = delete;

  std::vector<double> rows_storage;
  std::size_t rows_offset = 0;
};

/// Roofline lookup replicating MetricRoofline::estimate over one metric's
/// [begin, end) slices of the tables. SCALAR REFERENCE — the batch kernel
/// must reproduce this bit-for-bit for every lane.
double eval_roofline(const EvalTables& tables,
                     const model::v3::MetricRange& range, double intensity);

/// Ensemble-wide estimate, bit-identical to Ensemble::estimate on the
/// source ensemble: same throughput/ranking/skipped values and the same
/// std::invalid_argument when the workload shares no metric. SCALAR
/// REFERENCE path (per-sample binary search); serving code should prefer
/// EvalBatch, which is bit-identical and batch-vectorized.
model::Estimate estimate_tables(const EvalTables& tables,
                                sampling::DatasetView workload,
                                model::Merge merge);

/// One estimate per workload, in input order, fanned out across a pool per
/// `exec` (serial when threads <= 1). Each task evaluates through the
/// batch kernel (thread-local scratch); results are bit-identical to a
/// serial scalar loop, and a workload that would make estimate_tables
/// throw makes the batch throw the same exception (lowest index wins).
std::vector<model::Estimate> estimate_batch_tables(
    const EvalTables& tables, std::span<const sampling::DatasetView> workloads,
    util::ExecOptions exec, model::Merge merge);

/// Process-wide batch-kernel counters, published lock-free so the server's
/// stats snapshot (and the upcoming mmap'd stats segment) can export the
/// eval layer's signals without touching serving threads. Monotonic,
/// relaxed: readers see a consistent-enough view for rates and ratios.
struct EvalCounters {
  std::atomic<std::uint64_t> planned_batches{0};  // metric batches planned
  std::atomic<std::uint64_t> planned_lanes{0};    // samples through the kernel
  std::atomic<std::uint64_t> scalar_batches{0};   // fallback-scalar batches
  std::atomic<std::uint64_t> scalar_lanes{0};     // samples evaluated scalar
};

EvalCounters& eval_counters();

/// A plain-value copy for JSON/stats rendering.
struct EvalCountersSnapshot {
  std::uint64_t planned_batches = 0;
  std::uint64_t planned_lanes = 0;
  std::uint64_t scalar_batches = 0;
  std::uint64_t scalar_lanes = 0;
};

EvalCountersSnapshot eval_counters_snapshot();

/// True when the AVX2 select kernel is compiled into this binary
/// (SPIRE_SIMD=ON on an x86-64 toolchain) AND the running CPU executes
/// AVX2 — i.e. planned batches take the vectorized select. The portable
/// build/CPU answer is false; results are bit-identical either way, so
/// this only informs perf reporting (bench, serverctl stats), never
/// correctness.
bool eval_kernel_vectorized();

/// One workload's outcome from EvalBatch::estimate_many. Exactly one of
/// estimate/error is set; `error` carries the same text the scalar path
/// would have thrown (per-item isolation instead of batch abort).
struct EvalOutcome {
  std::optional<model::Estimate> estimate;
  std::string error;

  bool ok() const { return estimate.has_value(); }
};

/// The plan/execute batch kernel plus its reusable scratch. NOT thread
/// safe: one EvalBatch per thread (thread_eval_batch() hands out a
/// thread-local instance); the tables it evaluates are immutable and may
/// be shared freely.
///
/// Determinism contract: estimate() is bit-identical to estimate_tables()
/// (same ulps, ranking order, skip reasons, same exceptions), and
/// estimate_many() is bit-identical to calling estimate_tables() per
/// workload with per-item error capture — at SPIRE_SIMD ON and OFF, at
/// any batch composition. Enforced by a per-lane scalar cross-check in
/// Debug/SPIRE_CHECKED builds and the EvalBatch property suite.
class EvalBatch {
 public:
  /// Batches below this many lanes skip the plan (sorting a handful of
  /// samples costs more than it saves) and run the scalar reference per
  /// lane; counted as scalar fallback in the stats.
  static constexpr std::size_t kMinPlanLanes = 16;

  EvalBatch() = default;
  EvalBatch(const EvalBatch&) = delete;
  EvalBatch& operator=(const EvalBatch&) = delete;

  /// Ensemble-wide estimate of one workload through the batch kernel.
  /// Bit-identical to estimate_tables, including the thrown
  /// std::invalid_argument when the workload shares no metric.
  model::Estimate estimate(const EvalTables& tables,
                           sampling::DatasetView workload, model::Merge merge);

  /// The true coalesced entry point: stages EVERY workload's samples for a
  /// metric into one planned batch (one sort, one merge sweep, one execute
  /// pass per metric for the whole set), then scatters per-workload
  /// accumulations. Results are bit-identical to a scalar loop with
  /// per-item error capture: a workload that shares no metric (or whose
  /// samples violate the intensity contract) gets its EvalOutcome error
  /// set to exactly the text the scalar path would have thrown, and every
  /// other workload is unaffected.
  std::vector<EvalOutcome> estimate_many(
      const EvalTables& tables,
      std::span<const sampling::DatasetView> workloads,
      std::span<const model::Merge> merges);

  /// Convenience: one merge mode for the whole batch.
  std::vector<EvalOutcome> estimate_many(
      const EvalTables& tables,
      std::span<const sampling::DatasetView> workloads, model::Merge merge);

  /// This instance's counters (the process-wide eval_counters() aggregate
  /// the same increments).
  EvalCountersSnapshot stats() const { return stats_; }

 private:
  struct Slice {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool no_samples = false;  // the workload has no samples for the metric
  };

  /// Appends one workload's structurally usable samples for a metric to
  /// the staged columns (intensity + merge weight, input order). Throws
  /// the scalar path's exact contract violation on a bad intensity.
  Slice stage(std::span<const sampling::Sample> samples, model::Merge merge);

  /// Evaluates the staged lanes [0, xs_.size()) against metric `m`'s
  /// ranges: plan (merge sweep for sorted batches, routed unified search
  /// otherwise) then execute (branchless select + interpolation), or the
  /// scalar fallback below kMinPlanLanes. Fills ps_ in staged order.
  void eval_lanes(const EvalTables& tables, std::size_t m);

  /// Sorted-batch plan: merge-sweep segment resolution + execute for the
  /// ascending lanes [lo, hi) over the piece range [begin, end).
  void sweep_eval(const EvalTables& tables, std::size_t begin,
                  std::size_t end, std::size_t lo, std::size_t hi);

  /// Unsorted-batch path: blocked route -> window fetch -> window search
  /// -> select pipeline over the metric's plan (`rows` is the plan's
  /// interleaved row base, or nullptr for a scratch plan, which keeps the
  /// portable column select).
  void search_eval(const EvalTables& tables,
                   const model::v3::MetricRange& range,
                   const EvalPlan::Metric& plan, const double* rows);

  /// Eq. (1) accumulation of one staged slice into `out`, replicating the
  /// scalar path's skip conditions and accumulation order exactly.
  void accumulate(const Slice& slice, counters::Event metric,
                  model::Estimate& out) const;

  /// Adds this call's counter deltas to the process-wide aggregate — once
  /// per public entry point, so the per-metric hot loop never touches an
  /// atomic.
  void flush_counters();

  // Staged columns, input order (parallel): intensity, merge weight,
  // evaluated throughput.
  std::vector<double> xs_, ws_, ps_;
  // Resolved segment per lane (sweep: scalar piece index; search: unified
  // lower_bound index).
  std::vector<std::uint32_t> seg_;
  // Search-pipeline per-block scratch: routed bucket, fetched window.
  std::vector<std::uint32_t> bucket_;
  std::vector<std::uint64_t> window_;
  // Per-call plan scratch for tables without a model-owned EvalPlan.
  EvalPlan::Metric scratch_plan_;
  // estimate_many bookkeeping.
  std::vector<Slice> slices_;

  EvalCountersSnapshot stats_;
  // Counter deltas accumulated since the last flush_counters().
  EvalCountersSnapshot delta_;
};

/// This thread's kernel scratch. Grows to the largest batch the thread has
/// evaluated and is reused across calls; safe because an EvalBatch is only
/// ever touched by its owning thread.
EvalBatch& thread_eval_batch();

}  // namespace spire::serve
