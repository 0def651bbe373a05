// The deployment-side shape of a trained SPIRE model: one binary v3 image,
// read in place.
//
// Training produces an Ensemble: a map of MetricRoofline objects, each
// owning two PiecewiseLinear vectors — a pointer-chasing object graph that
// is the right shape for fitting and inspection but the wrong one for the
// ROADMAP's "heavy traffic" serving target. A binary v3 artifact
// (spire/model_bin_v3.h) already lays the model out the way serving wants
// it: shared structure-of-arrays segment tables (one x0/y0/x1/y1 column
// set for all metrics, per-metric index ranges + cached left-domain
// scalars), evaluated by binary search over the x1 column. CompiledModel
// is that image plus typed span views into it, whoever owns the bytes:
//
//  * compile(ensemble) serializes through the deterministic v3 writer
//    (model::model_bin_bytes, spire/model_io.h) into a buffer the model
//    owns;
//  * map_file(path) maps a v3 file read-only and validates the bytes
//    BEFORE any span is formed. The default open runs the structure tier
//    — footer/header/section geometry against the fstat'd size, range
//    tiling, name-index cover; everything a span could be formed or
//    indexed from, in O(sections + metrics) — because published artifacts
//    are content-addressed and fully CRC-verified when they enter the
//    registry. Pass Verify::kFull to re-verify every byte of an artifact
//    of unknown provenance. Open cost never scales with table bytes, and
//    concurrent processes serving the same artifact share one page-cache
//    copy.
//
// Both forms then run the same code: the same FlatView, the same resolved
// metric list, the same lazily built plan. So an owned model and a mapped
// model of one ensemble hold the same bytes (bytes() is what compile_v3
// writes and the registry stores) and cannot answer differently.
//
// Determinism contract (enforced by tests and bench/perf_serving): for any
// workload, merge mode, and thread count, `estimate` and `estimate_batch`
// return Estimates BIT-IDENTICAL to Ensemble::estimate — same per-metric
// averages down to the last ulp, same ranking order, same skip reasons,
// same error text. The evaluator itself lives in serve/model_eval.h.
//
// The batch kernel's EvalPlan (unified per-metric lookup columns,
// bits-domain routing grids, interleaved piece rows) is built on the first
// tables() call and cached for the model's lifetime, so opening or
// compiling a model never pays for it and serving never pays it twice.
//
// Immutable after construction; safe for concurrent estimate calls without
// locks. Move-only. The image bytes and the plan are heap-boxed, so every
// span and the plan pointer survive moves.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset_view.h"
#include "serve/model_eval.h"
#include "spire/ensemble.h"
#include "spire/model_bin_v3.h"
#include "util/mmap_file.h"
#include "util/thread_pool.h"

namespace spire::serve {

class CompiledModel {
 public:
  /// Serializes a trained ensemble into an owned v3 image. The ensemble can
  /// be discarded afterwards; the model owns everything it needs.
  static CompiledModel compile(const model::Ensemble& ensemble);

  /// Maps and validates a binary v3 artifact. Throws std::runtime_error —
  /// "mmap: ..." for filesystem failures, "model-v3: ..." (naming section
  /// and byte offset) for any defect the chosen tier covers: structural
  /// damage (truncation, resized or reshaped sections) at either tier,
  /// plus every CRC and value-policy violation at Verify::kFull. Never
  /// SIGBUSes on a file that passed validation and is not modified
  /// afterwards (registry objects are immutable-once-published).
  static CompiledModel map_file(
      const std::string& path,
      model::v3::Verify verify = model::v3::Verify::kStructure);

  /// Ensemble-wide estimate, bit-identical to Ensemble::estimate on the
  /// source ensemble: same throughput/ranking/skipped values and the same
  /// std::invalid_argument when the workload shares no metric. Evaluates
  /// through the batch kernel (this thread's EvalBatch scratch).
  model::Estimate estimate(sampling::DatasetView workload,
                           model::Merge merge = model::Merge::kTimeWeighted) const;

  /// One estimate per workload, in input order, fanned out across a pool
  /// per `exec` (serial when threads <= 1). Results are bit-identical to
  /// calling estimate() in a loop; a workload that would make estimate()
  /// throw makes the batch throw the same exception (lowest index wins),
  /// matching the serial loop. For per-item error isolation use
  /// EstimationService (serve/service.h).
  std::vector<model::Estimate> estimate_batch(
      std::span<const sampling::DatasetView> workloads,
      util::ExecOptions exec = {},
      model::Merge merge = model::Merge::kTimeWeighted) const;

  /// Coalesced single-pass evaluation with per-item error isolation: every
  /// workload's samples for a metric join ONE planned kernel batch (one
  /// sort + merge sweep + execute per metric for the whole set). Results
  /// are bit-identical to estimate() per workload; a workload the scalar
  /// path would throw on gets its outcome's error text instead. `merges`
  /// must be workloads.size() entries (shard coalescing may mix modes).
  std::vector<EvalOutcome> estimate_many(
      std::span<const sampling::DatasetView> workloads,
      std::span<const model::Merge> merges) const;

  /// Metrics in table order, ascending by event id (validated at open).
  const std::vector<counters::Event>& metrics() const { return metrics_; }

  std::size_t metric_count() const { return metrics_.size(); }

  /// Total linear pieces across all metrics and both regions — the size of
  /// each segment-table column.
  std::size_t piece_count() const { return view_.x0.size(); }

  /// The whole v3 image: the owned buffer or the mapping.
  std::string_view bytes() const { return image_->bytes; }

  /// The tables in the evaluator shape. All spans except `metrics` point
  /// into the image. The plan is built on first call, race-free across
  /// serving threads, and cached; spans and plan stay valid for the
  /// model's lifetime.
  EvalTables tables() const {
    EvalTables t{metrics_, view_.ranges, view_.x0, view_.y0, view_.x1,
                 view_.y1};
    std::call_once(image_->plan_once,
                   [&] { image_->plan = EvalPlan::build(t); });
    t.plan = &image_->plan;
    return t;
  }

  /// The validated raw view (layout, derived slope/intercept columns,
  /// name strings) for diagnostics and tooling.
  const model::v3::FlatView& view() const { return view_; }

 private:
  // Everything the views point into, boxed so its address survives moves
  // (a std::string's inline buffer and a std::once_flag would not).
  struct Image {
    std::string owned;     // compile(): the serialized image
    util::MmapFile file;   // map_file(): the mapping
    std::string_view bytes;  // whichever of the two holds the image
    std::once_flag plan_once;
    EvalPlan plan;
  };

  CompiledModel() = default;

  /// Validates image->bytes at `verify` and forms the view and metric
  /// list; `source` names the image in diagnostics.
  static CompiledModel open(std::unique_ptr<Image> image,
                            model::v3::Verify verify,
                            const std::string& source);

  std::unique_ptr<Image> image_;
  model::v3::FlatView view_;              // spans into image_->bytes
  std::vector<counters::Event> metrics_;  // resolved from the strings section
};

/// The class's former name for its mapped form, kept only so perfbench/
/// builds unchanged. In-tree code uses CompiledModel.
using MappedModel = CompiledModel;

}  // namespace spire::serve
