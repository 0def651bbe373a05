// Batch estimation over workload files — the "many CSVs in, one verdict
// per CSV out" serving front end used by `spire_cli estimate` and the
// pipeline engine's estimate_batch stage.
//
// The raw kernels (CompiledModel::estimate_batch) are bit-identical but
// one bad workload throws for the whole span. A service run must instead
// keep going when one file is unreadable or shares no metric with the
// model, so EstimationService isolates failures per item: every input path
// gets a BatchResult in input order carrying either the Estimate or the
// error string, never both.
//
// The service shares one immutable CompiledModel — compiled in memory or
// mapped from a file or the registry, which serve identically.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sampling/dataset_view.h"
#include "serve/compiled_model.h"
#include "spire/ensemble.h"
#include "util/thread_pool.h"

namespace spire::serve {

/// One workload file's outcome. Exactly one of estimate/error is set.
struct BatchResult {
  std::string source;     // the input path
  std::size_t samples = 0;  // samples loaded (0 when loading failed)
  std::optional<model::Estimate> estimate;
  std::string error;      // why estimation failed, "" on success
  /// True when the item's deadline expired before it was evaluated
  /// (estimate_csvs only); distinguishes "out of time" from "bad input"
  /// so callers can report the two with different status codes.
  bool deadline_expired = false;

  bool ok() const { return estimate.has_value(); }
};

/// One in-memory workload for estimate_csvs. `csv` points at caller-owned
/// bytes that must stay alive for the call; `deadline` (when has_deadline)
/// is checked immediately before the item is evaluated, so a batch that
/// runs out of budget reports its tail as expired instead of silently
/// evaluating past the deadline.
struct CsvJob {
  const std::string* csv = nullptr;
  model::Merge merge = model::Merge::kTimeWeighted;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};

/// One pre-parsed workload for estimate_views. `view` points at a
/// caller-owned DatasetView (a zero-copy profile_bin::ProfileView or a
/// ProfileCache hit) that must stay alive for the call — no parse happens,
/// the view's spans feed the batch kernel directly.
struct ViewJob {
  const sampling::DatasetView* view = nullptr;
  model::Merge merge = model::Merge::kTimeWeighted;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};

struct BatchOptions {
  util::ExecOptions exec{};
  model::Merge merge = model::Merge::kTimeWeighted;
};

class EstimationService {
 public:
  explicit EstimationService(CompiledModel model);
  /// Shares `model` (a registry mapping, or a model the caller keeps for
  /// other work). Throws std::invalid_argument when it is null.
  explicit EstimationService(std::shared_ptr<const CompiledModel> model);

  std::size_t metric_count() const { return model_->metric_count(); }
  std::size_t piece_count() const { return model_->piece_count(); }

  /// Estimates every workload CSV, one pool task per file (load + estimate
  /// both inside the task; serial when exec.threads <= 1). Results come
  /// back in input order and are bit-identical at any thread count; a file
  /// that cannot be loaded or estimated yields a BatchResult with `error`
  /// set instead of aborting the batch.
  std::vector<BatchResult> estimate_files(std::span<const std::string> paths,
                                          const BatchOptions& options = {}) const;

  /// Estimates in-memory CSV blobs in the caller's thread — this is the
  /// coalesced inner loop of a serve::Shard pump, which already owns a
  /// pool worker. Items are parsed one by one (deadline checked before
  /// each parse) and every survivor then joins ONE planned batch-kernel
  /// pass (EvalBatch::estimate_many), so a coalesced shard wakeup is a
  /// single sort/sweep/execute per metric rather than a loop of per-item
  /// evaluations. Results come back in input order with per-item error
  /// isolation; an item whose deadline already expired gets
  /// `deadline_expired` set and is never parsed or evaluated.
  std::vector<BatchResult> estimate_csvs(std::span<const CsvJob> jobs) const;

  /// The parse-free twin of estimate_csvs: every job arrives pre-parsed
  /// (a zero-copy binary-profile view or a parsed-profile cache hit), so
  /// the whole call is ONE planned batch-kernel pass with no Dataset
  /// materialization and no string copies. Deadline and error semantics
  /// match estimate_csvs (one implementation serves both); results are
  /// bit-identical to parsing the same samples from CSV (the kernel sees
  /// the same doubles either way).
  std::vector<BatchResult> estimate_views(std::span<const ViewJob> jobs) const;

 private:
  std::shared_ptr<const CompiledModel> model_;
};

}  // namespace spire::serve
