#include "serve/registry.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#endif

#include "spire/model_bin_v3.h"
#include "spire/model_io.h"
#include "util/hash.h"
#include "util/posix_io.h"

namespace spire::serve {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("registry: " + what);
}

bool valid_id(const std::string& id) {
  if (id.size() != 16) return false;
  for (const char c : id) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

void require_id(const std::string& id) {
  // Ids double as file names; rejecting anything but the 16-hex form also
  // forecloses path traversal through a crafted "id".
  if (!valid_id(id)) fail("malformed id '" + id + "' (want 16 hex chars)");
}

/// Writes `bytes` to a fresh file at `path` through the EINTR-hardened
/// descriptor wrappers: a signal landing mid-publish must surface as a
/// clean failure, never as a silently short object.
bool write_file_bytes(const std::string& path, std::string_view bytes) {
#if defined(_WIN32)
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
#else
  const int fd = util::open_retry(path.c_str(),
                                  O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                                  0644);
  if (fd < 0) return false;
  const bool ok = util::write_all(fd, bytes.data(), bytes.size());
  util::close_quietly(fd);
  return ok;
#endif
}

}  // namespace

ModelRegistry::ModelRegistry(std::string root, std::size_t cache_capacity)
    : root_(std::move(root)), cache_capacity_(cache_capacity) {
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(root_) / "pins", ec);
  if (ec) fail("cannot create registry root " + root_ + ": " + ec.message());
}

std::string ModelRegistry::object_path(const std::string& id) const {
  return (fs::path(root_) / "objects" / id).string();
}

std::string ModelRegistry::pin_path(const std::string& id) const {
  return (fs::path(root_) / "pins" / id).string();
}

std::string ModelRegistry::store_bytes_locked(std::string_view bytes) {
  const std::string id = util::fnv1a64_hex(bytes);
  const fs::path final_path = object_path(id);
  std::error_code ec;
  if (fs::exists(final_path, ec)) return id;  // already published: converge

  // Unique temp name per process and call; rename is atomic, so concurrent
  // publishers of the same content race benignly to an identical object.
  static std::atomic<std::uint64_t> counter{0};
  const auto self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const fs::path tmp =
      fs::path(root_) / "objects" /
      (".tmp-" + id + "-" + std::to_string(self) + "-" +
       std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
  if (!write_file_bytes(tmp.string(), bytes)) {
    fs::remove(tmp, ec);
    fail("cannot write " + tmp.string());
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    fail("cannot publish " + final_path.string() + ": " + ec.message());
  }
  return id;
}

std::string ModelRegistry::publish(const model::Ensemble& ensemble) {
  const std::string bytes = model::model_bin_bytes(ensemble);
  util::MutexLock lock(mutex_);
  return store_bytes_locked(bytes);
}

std::string ModelRegistry::publish_file(const std::string& path) {
  // Any source format normalizes through the deterministic v3 writer, so
  // the same model always lands on the same id.
  return publish(model::load_model_any_file(path));
}

std::string ModelRegistry::publish_bytes(std::string_view bytes) {
  if (!bytes.starts_with(model::kModelBinMagicV3)) {
    throw std::runtime_error(
        "model-v3: publish_bytes requires a v3 artifact (bad magic)");
  }
  // Full structural validation (CRCs, layout, semantics) before storing;
  // alignment-safe, so the heap buffer is fine here.
  model::v3::check_flat_region(
      std::as_bytes(std::span(bytes.data(), bytes.size())), 0,
      util::crc32_init());
  util::MutexLock lock(mutex_);
  return store_bytes_locked(bytes);
}

std::shared_ptr<const CompiledModel> ModelRegistry::open(const std::string& id) {
  require_id(id);
  util::MutexLock lock(mutex_);
  // LRU hit: move to front.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->first == id) {
      lru_.splice(lru_.begin(), lru_, it);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return lru_.front().second;
    }
  }
  // A mapping may be alive in a consumer even after LRU eviction.
  std::shared_ptr<const CompiledModel> model;
  if (const auto it = live_.find(id); it != live_.end()) {
    model = it->second.lock();
  }
  if (model) {
    // Reusing a still-live mapping counts as a hit: no mmap happened.
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    const std::string path = object_path(id);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      fail("no object with id " + id + " under " + root_);
    }
    model = std::make_shared<const CompiledModel>(CompiledModel::map_file(path));
    live_[id] = model;
  }
  if (cache_capacity_ > 0) {
    lru_.emplace_front(id, model);
    while (lru_.size() > cache_capacity_) {
      lru_.pop_back();
      cache_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Opportunistic cleanup of long-dead tracking entries.
  for (auto it = live_.begin(); it != live_.end();) {
    it = it->second.expired() ? live_.erase(it) : std::next(it);
  }
  return model;
}

bool ModelRegistry::contains(const std::string& id) const {
  if (!valid_id(id)) return false;
  std::error_code ec;
  return fs::exists(object_path(id), ec);
}

std::vector<std::string> ModelRegistry::list() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "objects", ec)) {
    const std::string name = entry.path().filename().string();
    if (valid_id(name)) ids.push_back(name);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ModelRegistry::latest() const {
  std::string best_id;
  fs::file_time_type best_time{};
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "objects", ec)) {
    const std::string name = entry.path().filename().string();
    if (!valid_id(name)) continue;
    const auto t = fs::last_write_time(entry.path(), ec);
    if (ec) {
      // Raced with a concurrent gc(): the object vanished between the
      // directory scan and the stat. Skip it, don't fail the resolution.
      ec.clear();
      continue;
    }
    if (best_id.empty() || t > best_time ||
        (t == best_time && name > best_id)) {
      best_id = name;
      best_time = t;
    }
  }
  return best_id;
}

void ModelRegistry::pin(const std::string& id) {
  require_id(id);
  if (!contains(id)) fail("cannot pin: no object with id " + id);
  // An existing marker is fine (pin is idempotent), so no O_EXCL here.
  if (!write_file_bytes(pin_path(id), "") &&
      !fs::exists(pin_path(id))) {
    fail("cannot write pin for " + id);
  }
}

void ModelRegistry::unpin(const std::string& id) {
  require_id(id);
  std::error_code ec;
  fs::remove(pin_path(id), ec);
}

std::vector<std::string> ModelRegistry::pinned() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "pins", ec)) {
    const std::string name = entry.path().filename().string();
    if (valid_id(name)) ids.push_back(name);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::string> ModelRegistry::gc() {
  util::MutexLock lock(mutex_);
  // Drop the registry's own cache first: a model no external consumer maps
  // is collectable even if it was recently opened. Consumers' live
  // mappings keep their objects via the tracking map below.
  lru_.clear();
  std::vector<std::string> removed;
  std::error_code ec;
  for (const std::string& id : list()) {
    if (fs::exists(pin_path(id), ec)) continue;
    bool in_use = false;
    // The LRU holds strong references, so its entries are always also live
    // in the tracking map — checking `live_` covers both.
    if (const auto it = live_.find(id); it != live_.end()) {
      in_use = !it->second.expired();
    }
    if (in_use) continue;
    if (fs::remove(object_path(id), ec) && !ec) {
      live_.erase(id);
      removed.push_back(id);
    }
  }
  return removed;
}

}  // namespace spire::serve
