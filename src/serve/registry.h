// Content-addressed model registry: the deployment store for v3 artifacts.
//
// An artifact's id IS the fnv1a64 hex of its bytes (util/hash.h). The v3
// writer (model::model_bin_bytes) is deterministic, so publishing the same
// model — from an Ensemble, a text v1 file, or an existing v3 file — always
// converges on the same id and the same stored bytes; publish is
// idempotent and safe to race from any number of threads or processes.
//
// On-disk layout under the registry root (default ".spire-registry"):
//   objects/<id>    the v3 artifact, immutable once published
//   pins/<id>       empty marker: gc() must keep this object
//
// Publish writes to a unique temp file in objects/ and renames into place:
// on POSIX, rename is atomic, so a reader (or a concurrent publisher of
// the same content) never observes a partial object. Objects are never
// modified in place, which is what lets a mapped CompiledModel
// (CompiledModel::map_file) hold long-lived mappings of them without
// SIGBUS risk.
//
// open() returns a mapped shared_ptr<const CompiledModel> through an
// in-process LRU cache of open mappings (capacity configurable) plus a
// weak-pointer tracking map, so repeated opens of a hot model share one
// mapping and gc() can refuse to delete an object any live consumer still maps.
// All registry state is mutex-protected; the returned models themselves
// are immutable and lock-free to use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/compiled_model.h"
#include "spire/ensemble.h"
#include "util/thread_annotations.h"

namespace spire::serve {

class ModelRegistry {
 public:
  static constexpr std::string_view kDefaultRoot = ".spire-registry";
  static constexpr std::size_t kDefaultCacheCapacity = 8;

  /// Opens (creating directories as needed) the registry at `root`.
  /// `cache_capacity` bounds the LRU of open mappings kept alive by the
  /// registry itself; 0 disables caching (every open still deduplicates
  /// against currently-live mappings via the tracking map).
  explicit ModelRegistry(std::string root = std::string(kDefaultRoot),
                         std::size_t cache_capacity = kDefaultCacheCapacity);

  /// Publishes the canonical v3 serialization of `ensemble`; returns its id.
  std::string publish(const model::Ensemble& ensemble) SPIRE_EXCLUDES(mutex_);

  /// Loads any model format (text v1, binary v3) from `path` and publishes
  /// its canonical v3 form. Returns the id. A retired binary v2 file is
  /// rejected with the loader's "model-bin: ..." message.
  std::string publish_file(const std::string& path);

  /// Publishes pre-serialized v3 artifact bytes (for example a
  /// CompiledModel's bytes()) after validating them. Throws "model-v3: ..."
  /// if the bytes are not a structurally valid v3 artifact. Returns the id
  /// (the hash of exactly these bytes).
  std::string publish_bytes(std::string_view bytes) SPIRE_EXCLUDES(mutex_);

  /// Maps the object with `id`, through the LRU cache: repeated opens of
  /// the same id share one mapping. Throws std::runtime_error when the id
  /// is malformed or not present.
  std::shared_ptr<const CompiledModel> open(const std::string& id)
      SPIRE_EXCLUDES(mutex_);

  bool contains(const std::string& id) const;

  /// Absolute-ish path of the object file (existing or not).
  std::string object_path(const std::string& id) const;

  /// All published ids, sorted.
  std::vector<std::string> list() const;

  /// The most recently published id (newest object mtime; ties broken by
  /// the lexicographically larger id so the answer is deterministic).
  /// Empty when the registry holds no objects. This is what "resolve the
  /// latest model" means to the estimation server's hot-swap path.
  std::string latest() const;

  /// Marks `id` as not collectable by gc(). Throws if the object does not
  /// exist.
  void pin(const std::string& id);
  void unpin(const std::string& id);
  std::vector<std::string> pinned() const;

  /// Removes every object that is neither pinned nor currently mapped by a
  /// live model handed out by open(). The registry's own LRU cache
  /// is dropped first, so caching alone never keeps an object alive.
  /// Returns the ids removed.
  std::vector<std::string> gc() SPIRE_EXCLUDES(mutex_);

  const std::string& root() const { return root_; }

  std::size_t cache_capacity() const { return cache_capacity_; }

  /// Mapping-cache effectiveness counters, exposed through the server's
  /// `serverctl stats` so an operator can see whether the configured
  /// capacity (--registry-cache) is sized for the working set. A hit is
  /// any open() that reused an existing mapping (LRU or still-live); a
  /// miss mapped the object fresh; an eviction dropped the LRU tail.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  CacheStats cache_stats() const {
    CacheStats stats;
    stats.hits = cache_hits_.load(std::memory_order_relaxed);
    stats.misses = cache_misses_.load(std::memory_order_relaxed);
    stats.evictions = cache_evictions_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  std::string pin_path(const std::string& id) const;
  std::string store_bytes_locked(std::string_view bytes)
      SPIRE_REQUIRES(mutex_);

  const std::string root_;
  // Immutable after construction; the annotation pass surfaced it as the
  // one registry field read concurrently without a guard.
  const std::size_t cache_capacity_;

  mutable util::Mutex mutex_{util::lock_rank::Rank::kRegistry, "registry"};
  // LRU of registry-owned strong references, most recent first.
  std::list<std::pair<std::string, std::shared_ptr<const CompiledModel>>> lru_
      SPIRE_GUARDED_BY(mutex_);
  // Every mapping ever handed out and possibly still alive; lets open()
  // deduplicate beyond the LRU and gc() detect in-use objects.
  std::map<std::string, std::weak_ptr<const CompiledModel>> live_
      SPIRE_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_evictions_{0};
};

}  // namespace spire::serve
