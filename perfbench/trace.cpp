#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench::trace {
namespace {

struct Record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct ThreadLog {
  std::uint32_t thread = 0;
  std::vector<Record> records;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

// Logs outlive their threads: spans are only read once the run is over.
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->thread = static_cast<std::uint32_t>(g_logs.size());
    return g_logs.back().get();
  }();
  return *log;
}

thread_local std::uint64_t t_current = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  t_current = id_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  thread_log().records.push_back(
      {id_, parent_, request_, name_, start_ns_, end});
}

std::map<std::string, double> self_seconds() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      const std::string name(r.name);
      const std::string layer = name.substr(0, name.find('.'));
      const auto it = child_ns.find(r.id);
      const std::int64_t self =
          (r.end_ns - r.start_ns) - (it == child_ns.end() ? 0 : it->second);
      out[layer] += static_cast<double>(self) * 1e-9;
    }
  }
  return out;
}

std::uint64_t span_count() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::uint64_t n = 0;
  for (const auto& log : g_logs) n += log->records.size();
  return n;
}

void write_tsv(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns\n";
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      out << r.id << '\t' << r.parent << '\t' << r.request << '\t'
          << log->thread << '\t' << r.name << '\t' << r.start_ns << '\t'
          << r.end_ns << '\n';
    }
  }
}

}  // namespace perfbench::trace
