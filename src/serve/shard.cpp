#include "serve/shard.h"

#include <algorithm>
#include <exception>
#include <string_view>
#include <utility>

namespace spire::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Shard::Shard(std::string model_id, std::shared_ptr<const CompiledModel> model,
             util::ThreadPool& pool, std::size_t queue_bound,
             std::size_t max_batch, ProfileCache* profile_cache)
    : model_id_(std::move(model_id)),
      service_(std::move(model)),
      pool_(pool),
      queue_bound_(std::max<std::size_t>(queue_bound, 1)),
      max_batch_(std::max<std::size_t>(max_batch, 1)),
      profile_cache_(profile_cache) {}

Shard::Enqueue Shard::enqueue(Request request) {
  bool schedule = false;
  {
    util::MutexLock lock(mutex_);
    if (retired_flag_) {
      shed_retired_.fetch_add(1, std::memory_order_relaxed);
      return Enqueue::kRetired;
    }
    if (queue_.size() >= queue_bound_) {
      shed_full_.fetch_add(1, std::memory_order_relaxed);
      return Enqueue::kFull;
    }
    queue_.push_back(std::move(request));
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    // Exactly one pump per shard: schedule only on the idle->busy edge.
    // The flag flips back under this same mutex when the pump finds the
    // queue empty, so no enqueue can be stranded without a pump.
    if (!pump_active_) {
      pump_active_ = true;
      schedule = true;
    }
  }
  // The task owns a strong self-reference: a router may drop its last
  // shared_ptr to a draining shard and destruction waits for the pump.
  if (schedule) (void)pool_.submit([self = shared_from_this()] { self->pump(); });
  return Enqueue::kAccepted;
}

void Shard::retire() {
  util::MutexLock lock(mutex_);
  retired_flag_ = true;
}

bool Shard::retired() const {
  util::MutexLock lock(mutex_);
  return retired_flag_;
}

std::size_t Shard::queue_depth() const {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

Shard::Stats Shard::stats() const {
  Stats stats;
  stats.enqueued = enqueued_.load(std::memory_order_relaxed);
  stats.shed_full = shed_full_.load(std::memory_order_relaxed);
  stats.shed_retired = shed_retired_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  stats.max_batch_requests =
      max_batch_requests_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(mutex_);
    stats.queue_depth = queue_.size();
    stats.retired = retired_flag_;
  }
  return stats;
}

void Shard::pump() {
  for (;;) {
    std::vector<Request> batch;
    {
      util::MutexLock lock(mutex_);
      const std::size_t take = std::min(queue_.size(), max_batch_);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (batch.empty()) {
        pump_active_ = false;
        return;
      }
    }
    run_batch(batch);
  }
}

void Shard::run_batch(std::vector<Request>& batch) {
  // Every popped request leaves the queue NOW for accounting purposes,
  // whether it will be evaluated or reported expired.
  for (Request& request : batch) {
    if (request.begin) request.begin();
  }
  const Clock::time_point now = Clock::now();
  // Resolve the evaluable requests' workloads to DatasetViews, then run
  // ONE planned batch-kernel pass over all of them (per metric: one sort,
  // one merge sweep, one execute over every request's samples) — so
  // coalescing buys a genuinely batched evaluation, not just a loop.
  // Pre-parsed (binary-path) workloads resolve for free; text workloads go
  // through the fleet-wide ProfileCache when one is attached, so only a
  // profile the fleet has never seen pays a parse. Requests that waited
  // out their deadline in the queue are completed immediately and
  // contribute nothing.
  struct Slot {
    BatchResult early;           // parse failure or expiry at resolve time
    bool has_early = false;
    const sampling::DatasetView* view = nullptr;
  };
  std::vector<Slot> slots;
  // Pins ProfileCache hits and fresh parses until the kernel is done with
  // their spans (an eviction mid-batch must not free evaluated storage).
  std::vector<std::shared_ptr<const ParsedProfile>> pinned;
  std::vector<Request*> evaluable;
  for (Request& request : batch) {
    if (request.has_deadline && now >= request.deadline) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (request.complete) request.complete({}, /*expired_in_queue=*/true);
      continue;
    }
    evaluable.push_back(&request);
    for (const Workload& workload : request.workloads) {
      Slot slot;
      if (workload.view != nullptr) {
        slot.view = workload.view;
        slot.early.samples = workload.view->size();
      } else if (request.has_deadline && Clock::now() >= request.deadline) {
        // Same per-item semantics as estimate_csvs: the deadline is checked
        // before each parse, because parsing dominates per-item cost.
        slot.has_early = true;
        slot.early.deadline_expired = true;
        slot.early.error = "deadline expired";
      } else {
        std::shared_ptr<const ParsedProfile> parsed;
        if (profile_cache_ != nullptr && workload.hash != 0) {
          parsed = profile_cache_->lookup(workload.hash);
        }
        if (parsed == nullptr) {
          try {
            parsed = ParsedProfile::make(
                sampling::Dataset::load_csv(std::string_view(workload.csv)));
            if (profile_cache_ != nullptr && workload.hash != 0) {
              profile_cache_->insert(workload.hash, parsed);
            }
          } catch (const std::exception& e) {
            slot.has_early = true;
            slot.early.error = e.what();
          }
        }
        if (parsed != nullptr) {
          slot.view = &parsed->view;
          slot.early.samples = parsed->view.size();
          pinned.push_back(std::move(parsed));
        }
      }
      slots.push_back(std::move(slot));
    }
  }
  if (evaluable.empty()) return;

  std::vector<ViewJob> jobs;
  std::vector<std::size_t> job_slot;
  jobs.reserve(slots.size());
  job_slot.reserve(slots.size());
  {
    std::size_t flat = 0;
    for (Request* request : evaluable) {
      for (std::size_t i = 0; i < request->workloads.size(); ++i, ++flat) {
        if (slots[flat].has_early) continue;
        ViewJob job;
        job.view = slots[flat].view;
        job.merge = request->merge;
        job.deadline = request->deadline;
        job.has_deadline = request->has_deadline;
        jobs.push_back(job);
        job_slot.push_back(flat);
      }
    }
  }
  std::vector<BatchResult> evaluated = service_.estimate_views(jobs);
  for (std::size_t k = 0; k < evaluated.size(); ++k) {
    Slot& slot = slots[job_slot[k]];
    slot.early = std::move(evaluated[k]);
    slot.has_early = true;
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(evaluable.size(), std::memory_order_relaxed);
  std::uint64_t seen = max_batch_requests_.load(std::memory_order_relaxed);
  while (seen < evaluable.size() &&
         !max_batch_requests_.compare_exchange_weak(
             seen, evaluable.size(), std::memory_order_relaxed)) {
  }
  // Scatter the flat slot vector back into per-request slices.
  std::size_t offset = 0;
  for (Request* request : evaluable) {
    const std::size_t count = request->workloads.size();
    std::vector<BatchResult> slice;
    slice.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      slice.push_back(std::move(slots[offset + i].early));
    }
    offset += count;
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (request->complete) {
      request->complete(std::move(slice), /*expired_in_queue=*/false);
    }
  }
}

}  // namespace spire::serve
