// Shared infrastructure for the table-reproduction benches.
//
// Every bench prints measured values side by side with the paper's
// published numbers. Scale control: by default traces are shortened and
// the largest DP instances reduced so the full bench suite completes in
// minutes; setting SAN_BENCH_FULL=1 switches to the paper's exact sizes
// (n and 10^6 requests). EXPERIMENTS.md records both conventions.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "workload/generators.hpp"

namespace san::bench {

/// Command-line scale control shared by every bench binary. `--smoke`
/// shrinks traces/instances to seconds-scale sizes (via trace_length() /
/// node_count() / scaled()) so CI can run the perf binaries on every push
/// without timing anything meaningful; `--json <path>` asks benches that
/// support it (dp_scaling, serve_hot_path, shard_scaling) to also emit a
/// machine-readable result file (uploaded as a CI artifact); `--threads N`
/// caps the Executor width of every parallel phase (sweeps, DP diagonals,
/// sharded drains; 0 = all hardware threads) and is recorded in the JSON
/// so a result file states the parallelism it was measured at.
struct BenchCli {
  bool smoke = false;
  std::string json_path;
  int threads = 0;
};

BenchCli& bench_cli();

/// Parses `--smoke`, `--json <path>` and `--threads N`; prints usage and
/// exits(2) on anything else. Every bench main calls this first.
void init_bench_cli(int argc, char** argv);

/// Thread count benches pass to parallel_for / sharded drains
/// (the raw --threads value; 0 = auto).
int bench_threads();

/// The width bench_threads() actually resolves to on this host — what the
/// JSON records (core/executor.hpp: resolve_threads).
int bench_threads_resolved();

/// Writes `body` to the `--json` path when one was given; exits(1) on an
/// unwritable path. No-op when --json was not passed.
void write_json_result(const std::string& body);

/// Wall seconds elapsed since `t0` on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline bool full_scale() {
  const char* env = std::getenv("SAN_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Three-point scale for benches with bespoke instance sizes:
/// --smoke -> `smoke`, SAN_BENCH_FULL=1 -> `full`, otherwise `dflt`.
template <typename T>
T scaled(T smoke, T dflt, T full) {
  if (bench_cli().smoke) return smoke;
  return full_scale() ? full : dflt;
}

/// Requests per trace: paper uses 10^6 for every workload.
inline std::size_t trace_length() {
  return scaled<std::size_t>(5000, 200000, 1000000);
}

/// Node count per workload; the default mode shrinks only the instances
/// whose O(n^3 k) optimal-tree computation would dominate the suite.
inline int node_count(WorkloadKind kind) {
  const int paper = paper_node_count(kind);
  if (bench_cli().smoke) return paper < 64 ? paper : 64;
  if (full_scale()) return paper;
  switch (kind) {
    case WorkloadKind::kTemporal025:
    case WorkloadKind::kTemporal05:
    case WorkloadKind::kTemporal075:
    case WorkloadKind::kTemporal09:
      return 255;  // paper: 1023 (DP row needs O(n^3 k))
    default:
      return paper;
  }
}

inline std::uint64_t bench_seed() { return 20240612; }

/// A row of published numbers from the paper, used for the side-by-side
/// "paper" lines in the printed tables. Empty strings mean "not reported"
/// (e.g. the Facebook optimal-tree row).
struct PaperKaryTable {
  const char* workload;
  long long splaynet_k2_total;            // absolute first cell of row 1
  std::vector<const char*> splay_ratio;   // k = 3..10 relative to 2-ary
  std::vector<const char*> full_ratio;    // k = 2..10 vs full k-ary tree
  std::vector<const char*> optimal_ratio; // k = 2..10 vs optimal tree ("" = -)
};

/// Runs the Tables 1-7 experiment for one workload: k-ary SplayNet for
/// k = 2..10 against the static full k-ary tree and (when feasible) the
/// optimal static routing-based k-ary tree, printing measured vs paper.
void run_kary_table(WorkloadKind kind, const PaperKaryTable& paper,
                    bool optimal_feasible);

}  // namespace san::bench
