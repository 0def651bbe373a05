#include "serve/compiled_model.h"

#include <stdexcept>
#include <utility>

#include "spire/model_io.h"

namespace spire::serve {

using model::Estimate;
using model::Merge;
using sampling::DatasetView;

CompiledModel CompiledModel::compile(const model::Ensemble& ensemble) {
  auto image = std::make_unique<Image>();
  image->owned = model::model_bin_bytes(ensemble);
  // Heap storage from operator new is at least 16-aligned, which is the
  // 8-alignment map_flat requires (and re-checks).
  image->bytes = image->owned;
  // The writer's own output: the structure tier is all the views need.
  return open(std::move(image), model::v3::Verify::kStructure,
              "compiled model");
}

CompiledModel CompiledModel::map_file(const std::string& path,
                                      model::v3::Verify verify) {
  auto image = std::make_unique<Image>();
  image->file = util::MmapFile::open_readonly(path);
  const std::span<const std::byte> mapped = image->file.bytes();
  image->bytes = {reinterpret_cast<const char*>(mapped.data()), mapped.size()};
  return open(std::move(image), verify, path);
}

CompiledModel CompiledModel::open(std::unique_ptr<Image> image,
                                  model::v3::Verify verify,
                                  const std::string& source) {
  CompiledModel out;
  out.view_ = model::v3::map_flat(
      std::as_bytes(std::span(image->bytes.data(), image->bytes.size())),
      verify);
  out.image_ = std::move(image);

  // Resolve the name-index records to Events. Table order must be strictly
  // ascending by event id — the order the writer emits (std::map iteration)
  // and the order the bit-identity contract's ranking accumulation assumes.
  out.metrics_.reserve(out.view_.names.size());
  for (const model::v3::NameRef& ref : out.view_.names) {
    const std::string_view name = out.view_.name(ref);
    const auto metric = counters::event_by_name(name);
    if (!metric) {
      throw std::runtime_error("model-v3: " + source + ": unknown metric '" +
                               std::string(name) + "'");
    }
    if (!out.metrics_.empty() && *metric <= out.metrics_.back()) {
      throw std::runtime_error(
          "model-v3: " + source + ": metric '" + std::string(name) +
          "' out of order (tables must ascend by event id)");
    }
    out.metrics_.push_back(*metric);
  }
  return out;
}

Estimate CompiledModel::estimate(DatasetView workload, Merge merge) const {
  return thread_eval_batch().estimate(tables(), workload, merge);
}

std::vector<Estimate> CompiledModel::estimate_batch(
    std::span<const DatasetView> workloads, util::ExecOptions exec,
    Merge merge) const {
  return estimate_batch_tables(tables(), workloads, exec, merge);
}

std::vector<EvalOutcome> CompiledModel::estimate_many(
    std::span<const DatasetView> workloads,
    std::span<const Merge> merges) const {
  return thread_eval_batch().estimate_many(tables(), workloads, merges);
}

}  // namespace spire::serve
