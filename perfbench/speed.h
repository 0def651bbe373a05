// Host-speed normalization of every timed operation.
//
// The benchmark runs in a small VM on a shared host. How fast the VM runs
// changes from second to second with the load other tenants put on the
// host, by up to 2x, and for whole minutes at a time; no statistic over the
// program's own timings tells that apart from the program's cost. So each
// timed operation runs between two probes: a fixed loop of the benchmark's
// own (multiply-add chains waiting on random reads of a 4 MiB table; no
// SPIRE code, so no change to the program can speed it up or slow it down),
// on as many threads as the operation keeps busy. The operation's wall time
// is multiplied by the host speed the two probes saw, on average, where
// speed is kProbeNominalS over the probe's time: about 1 on an idle host,
// 0.5 when the host gives the VM half its speed.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

/// One probe's time on an idle 4-vCPU Xeon VM, on 1 to 4 threads.
inline constexpr double kProbeNominalS = 0.0020;

/// Threads a probe runs on for an operation that keeps every vCPU busy.
inline constexpr int kAllThreads = 4;

/// Host speed now, measured on `threads` (1 to kAllThreads) threads at once:
/// the median of three rounds of the probe loop, each timed as the mean of
/// its threads' times (the mean, not the slowest: the program's thread pool
/// and shards balance work across vCPUs, so what slows them is the mean
/// slowdown of the vCPUs). Call it from one thread at a time.
double host_speed(int threads);

/// The speeds measured so far in this process: their count, median and
/// range, printed with every run so that a reader sees how busy the host was.
std::string speeds_summary();

/// Runs `body` between two probes on `threads` threads and returns its wall
/// time scaled to the nominal host speed. `speed`, when given, receives the
/// speed it was scaled by.
template <typename Body>
double normalized_seconds(int threads, Body&& body, double* speed = nullptr) {
  const double before = host_speed(threads);
  const auto start = Clock::now();
  body();
  const double wall = seconds_since(start);
  const double s = 0.5 * (before + host_speed(threads));
  if (speed != nullptr) *speed = s;
  return wall * s;
}

}  // namespace perfbench
