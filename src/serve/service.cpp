#include "serve/service.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"

namespace spire::serve {

namespace {

/// The one implementation behind estimate_csvs and estimate_views. Stage
/// pass: each job's deadline is checked immediately BEFORE `stage` turns it
/// into the view the kernel reads (for CSVs that is the parse, which
/// dominates per-item cost), not once per batch: once the budget is gone
/// every remaining item reports expiry (the clock is monotonic, so an
/// expired batch never un-expires). A `stage` that throws fails only its
/// own item. Evaluate pass: every survivor joins ONE planned kernel batch
/// (a shard pump's coalesced wakeup becomes a single sort/sweep/execute
/// per metric), with per-item error isolation inside estimate_many.
/// Results come back in input order.
template <typename Job, typename Stage>
std::vector<BatchResult> estimate_jobs(const EvalTables& tables,
                                       std::span<const Job> jobs,
                                       Stage&& stage) {
  std::vector<BatchResult> results(jobs.size());
  std::vector<sampling::DatasetView> views;
  std::vector<model::Merge> merges;
  std::vector<std::size_t> slots;
  views.reserve(jobs.size());
  merges.reserve(jobs.size());
  slots.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    BatchResult& result = results[i];
    if (job.has_deadline &&
        std::chrono::steady_clock::now() >= job.deadline) {
      result.deadline_expired = true;
      result.error = "deadline expired";
      continue;
    }
    try {
      views.push_back(stage(job));
    } catch (const std::exception& e) {
      result.error = e.what();
      continue;
    }
    result.samples = views.back().size();
    merges.push_back(job.merge);
    slots.push_back(i);
  }

  const auto outcomes = thread_eval_batch().estimate_many(
      tables, std::span<const sampling::DatasetView>(views),
      std::span<const model::Merge>(merges));
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    BatchResult& result = results[slots[k]];
    if (outcomes[k].ok()) {
      result.estimate = outcomes[k].estimate;
    } else {
      result.error = outcomes[k].error;
    }
  }
  return results;
}

}  // namespace

EstimationService::EstimationService(CompiledModel model)
    : model_(std::make_shared<const CompiledModel>(std::move(model))) {}

EstimationService::EstimationService(std::shared_ptr<const CompiledModel> model)
    : model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("EstimationService: null model");
}

std::vector<BatchResult> EstimationService::estimate_files(
    std::span<const std::string> paths, const BatchOptions& options) const {
  // Each task owns its Dataset (the view it estimates through points into
  // task-local storage) and only reads the shared immutable tables, so the
  // fan-out has no shared mutable state.
  const EvalTables tables = model_->tables();
  return util::parallel_for_index(
      options.exec, paths.size(), [&](std::size_t i) {
        BatchResult result;
        result.source = paths[i];
        try {
          std::ifstream in(paths[i]);
          if (!in) throw std::runtime_error("cannot open " + paths[i]);
          const sampling::Dataset data = sampling::Dataset::load_csv(in);
          const sampling::DatasetView view(data);
          result.samples = view.size();
          result.estimate =
              thread_eval_batch().estimate(tables, view, options.merge);
        } catch (const std::exception& e) {
          result.error = e.what();
        }
        return result;
      });
}

std::vector<BatchResult> EstimationService::estimate_csvs(
    std::span<const CsvJob> jobs) const {
  std::vector<sampling::Dataset> datasets;
  datasets.reserve(jobs.size());  // no reallocation: views point into these
  return estimate_jobs(model_->tables(), jobs, [&](const CsvJob& job) {
    // In-place parse: fields are read straight out of the request's CSV
    // buffer, no istringstream copy of the payload.
    datasets.push_back(sampling::Dataset::load_csv(std::string_view(*job.csv)));
    return sampling::DatasetView(datasets.back());
  });
}

std::vector<BatchResult> EstimationService::estimate_views(
    std::span<const ViewJob> jobs) const {
  // Cheap: a view is spans, not samples.
  return estimate_jobs(model_->tables(), jobs,
                       [](const ViewJob& job) { return *job.view; });
}

}  // namespace spire::serve
