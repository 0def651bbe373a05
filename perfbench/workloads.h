// The three workloads and the phases they are built from.
//
// Every run reports every end-to-end metric, so each workload is one large
// phase plus a small companion of the other kind, both over the run's own
// seeded inputs:
//   reproduce  = the full offline job (collect + fit) + a short serving pass
//                of the model it fitted over the suite profiles, with the
//                server's caches off;
//   serve-text = the full text-CSV serving load + a 4-workload collect and
//                the fit job over a 27-workload synthetic suite;
//   serve-bin  = the full pipelined binary serving load + the same
//                companion.
// Every timed operation is scaled to the nominal host speed (speed.h). The
// timed phases alternate in kRounds slices (see common.h). The traced run adds the layer ladder over the same
// inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "load.h"
#include "sampling/collector.h"
#include "sampling/dataset.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "server/server.h"
#include "spire/ensemble.h"
#include "spire/validation.h"
#include "workloads/suite.h"

namespace perfbench {

// --- reproduction: Engine::collect over suite workloads, then the fit job --

struct Reproduction {
  std::vector<spire::model::LabelledDataset> workloads;  // suite order
  std::vector<bool> testing;
  std::vector<std::string> csvs;   // each workload's samples as CSV text
  std::vector<std::string> paths;  // ... and as files, for estimate_batch
  spire::sampling::Dataset training;
  spire::sampling::CollectionStats stats;  // summed over workloads
  std::vector<std::vector<double>> collect_s;  // per workload, per collect
  bool deterministic = true;  // every repeated collect gave the same samples
  std::vector<double> fit_s;                       // per fit job
  std::map<std::string, std::vector<double>> stage_s;  // per pipeline stage
  std::optional<spire::model::Ensemble> model;     // from the last fit job
  std::string model_id;
  std::vector<spire::serve::BatchResult> batch;    // from the last fit job
  std::size_t pieces = 0;
};

/// The whole suite when `n` covers it; otherwise n-1 training workloads
/// and the first test workload.
std::vector<spire::workloads::SuiteEntry> suite_subset(std::size_t n);

/// Collects every entry once, one after another, `cycles` each, and times
/// each. The first collect of an entry keeps its samples; every later one
/// must give the same samples. collect_s sums the per-entry minima: the
/// time of one collect of every entry.
void collect_suite(const std::vector<spire::workloads::SuiteEntry>& entries,
                   std::uint64_t cycles, std::uint64_t seed, Reproduction& r);

/// Runs the fit job at ExecOptions{4}, each against a fresh registry under
/// `dir`, until `seconds` have passed (at least one job).
void fit_jobs(Reproduction& r, double seconds, const std::string& dir,
              Report& report);

/// Checks the last fit job against a serial train and Ensemble::estimate.
void check_fit(Reproduction& r, const std::string& dir, bool break_oracle,
               Report& report);

/// Writes each workload of `r` as CSV under `dir` (csvs, paths) and merges
/// the training workloads into `r.training`.
void write_profiles(Reproduction& r, const std::string& dir);

/// Reports collect_s and the sim/sampling layer counts of `r`.
void report_collect(const Reproduction& r, Report& report);

/// Reports fit_s and the pipeline/spire layer figures of `r`.
void report_fit(const Reproduction& r, Report& report);

// --- serving: an in-process EstimationServer over a fresh registry --------

/// Publishes `models`, starts a server with default options on `socket`,
/// and warms every shard (and the default class) with `warm_payload`.
class ServingFixture {
 public:
  ServingFixture(const std::string& root, const std::string& socket,
                 const std::vector<const spire::model::Ensemble*>& models,
                 const std::string& warm_payload, bool binary,
                 spire::server::ServerOptions options = {});
  ~ServingFixture();

  ServingFixture(const ServingFixture&) = delete;
  ServingFixture& operator=(const ServingFixture&) = delete;

  spire::serve::ModelRegistry& registry() { return *registry_; }
  spire::server::EstimationServer& server() { return *server_; }
  const std::vector<std::string>& ids() const { return ids_; }
  bool warm_ok() const { return warm_ok_; }

 private:
  std::unique_ptr<spire::serve::ModelRegistry> registry_;
  std::unique_ptr<spire::server::EstimationServer> server_;
  std::vector<std::string> ids_;
  bool warm_ok_ = true;
};

/// Checks every reply of the load against Ensemble::estimate of the model
/// the reply named, over the profile it was sent.
void check_replies(const LoadResult& load,
                   const std::vector<const spire::model::Ensemble*>& models,
                   const std::vector<spire::sampling::Dataset>& profiles,
                   bool break_oracle, Report& report);

/// Reports req_per_s, p50_ms and p90_ms of `load`, and the serve/server
/// layer counters the server saw between the `before` and `after`
/// snapshots.
void report_load(const LoadResult& load,
                 const spire::server::StatsReply& before,
                 const spire::server::StatsReply& after,
                 const spire::server::ShardsReply& shards, Report& report);

// --- the layer ladder (traced run only) ------------------------------------

struct LadderInputs {
  const std::vector<const spire::model::Ensemble*>* models = nullptr;
  const std::vector<spire::sampling::Dataset>* profiles = nullptr;
  bool binary = false;  // which wire form the round-trip row sends
  const spire::sampling::Dataset* training = nullptr;
  std::size_t count = 32;  // profiles fed through every row
  std::uint64_t seed = 1;  // of the models the swap row publishes
  std::string dir;
  std::string socket;
};

void run_ladder(const LadderInputs& in, Report& report);

// --- workloads -------------------------------------------------------------

void run_reproduce(const Args& args, Report& report, bool ladder);
void run_serving(const Args& args, bool binary, Report& report, bool ladder);

}  // namespace perfbench
