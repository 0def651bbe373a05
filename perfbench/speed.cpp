#include "speed.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr int kProbeRounds = 3;
constexpr int kIterations = 50'000;
constexpr std::size_t kTableWords = std::size_t{1} << 20;  // 4 MiB

std::vector<double> speeds;
std::atomic<std::uint64_t> sink{0};  // keeps the probe loop from being dropped

/// A read-only table twice the size of a core's L2, shared by the probe
/// threads: the probe's reads go to the shared cache.
const std::vector<std::uint32_t>& table() {
  static const std::vector<std::uint32_t> words = [] {
    std::vector<std::uint32_t> w(kTableWords);
    std::uint64_t x = 88172645463325252ULL;
    for (auto& v : w) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return w;
  }();
  return words;
}

/// Runs the probe loop and returns how long it took: four independent
/// multiply-add chains, each step of each chain waiting on one random read
/// of the table. So the probe slows when a busy SMT sibling takes the core
/// or other tenants' traffic takes the shared cache.
double probe_loop(int thread) {
  const std::uint32_t* words = table().data();
  const auto start = Clock::now();
  std::uint64_t x[4] = {1ULL + thread, 2, 3, 4};
  for (int i = 0; i < kIterations; ++i) {
    for (std::uint64_t& v : x) {
      v = v * 6364136223846793005ULL + 1442695040888963407ULL +
          words[(v >> 40) & (kTableWords - 1)];
    }
  }
  sink.fetch_xor(x[0] ^ x[1] ^ x[2] ^ x[3], std::memory_order_relaxed);
  return seconds_since(start);
}

/// Reads the whole table once, untimed, so that a probe does not time
/// bringing it back into the cache after the operation before it.
void warm_table() {
  std::uint64_t sum = 0;
  for (const std::uint32_t w : table()) sum += w;
  sink.fetch_xor(sum, std::memory_order_relaxed);
}

}  // namespace

double host_speed(int threads) {
  threads = std::clamp(threads, 1, kAllThreads);
  warm_table();
  std::vector<double> rounds;
  for (int r = 0; r < kProbeRounds; ++r) {
    if (threads == 1) {  // on the calling thread, so on its vCPU
      rounds.push_back(probe_loop(0));
      continue;
    }
    std::vector<double> took(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&took, t] { took[t] = probe_loop(t); });
    }
    for (std::thread& th : pool) th.join();
    double sum = 0.0;
    for (const double s : took) sum += s;
    rounds.push_back(sum / threads);
  }
  const double speed = kProbeNominalS / median(rounds);
  speeds.push_back(speed);
  return speed;
}

std::string speeds_summary() {
  if (speeds.empty()) return "host speed: no probes";
  char line[128];
  std::snprintf(line, sizeof line,
                "host speed: median %.3f, range %.3f-%.3f, over %zu probes",
                median(speeds), *std::min_element(speeds.begin(), speeds.end()),
                *std::max_element(speeds.begin(), speeds.end()), speeds.size());
  return line;
}

}  // namespace perfbench
