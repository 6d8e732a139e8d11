// Theorem 2 / Theorem 4 complexity check: wall-clock scaling of the
// general demand-aware DP (serial vs threaded diagonals, flat engine) and
// the O(n^2 k) uniform DP. The serial-vs-threaded grid replays the PR 1
// baseline cells (BENCH_dp_scaling.json) for the before/after comparison;
// the large-instance section exercises the scales the flat engine opened
// up (n = 512..2048 with reconstruction, n = 4096 cost-only).
//
// The lazy DemandMatrix prefix build is hoisted out of every timed region
// (D.prewarm()); in the PR 1 baseline the first serial cell absorbed that
// one-time O(n^2) build, which made serial-vs-threaded cells at small n
// incomparable.
#include <chrono>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "static_trees/optimal_dp.hpp"
#include "static_trees/uniform_dp.hpp"
#include "stats/table.hpp"
#include "workload/demand_matrix.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace san;
  bench::init_bench_cli(argc, argv);
  std::cout << "== DP scaling (Theorems 2 and 4) ==\n";
  std::cout << "threads: " << bench::bench_threads_resolved() << " of "
            << resolve_threads(0) << " hardware\n\n";

  std::ostringstream json_rows;
  const bool smoke = bench::bench_cli().smoke;
  const std::size_t requests =
      bench::scaled<std::size_t>(5000, 100000, 100000);
  const int top = bench::scaled(64, 256, 512);
  Table general({"n", "k", "serial s", "threaded s", "cost"});
  for (int n = top / 4; n <= top; n *= 2) {
    Trace t = gen_temporal(n, requests, 0.5, 3);
    DemandMatrix d = DemandMatrix::from_trace(t);
    d.prewarm();  // keep the one-time prefix build out of the timed cells
    for (int k : {2, 5, 10}) {
      auto t0 = std::chrono::steady_clock::now();
      const Cost serial_cost = optimal_routing_based_tree(k, d, 1).total_distance;
      const double serial = bench::seconds_since(t0);
      t0 = std::chrono::steady_clock::now();
      const Cost thr_cost =
          optimal_routing_based_tree(k, d, bench::bench_threads())
              .total_distance;
      const double threaded = bench::seconds_since(t0);
      if (serial_cost != thr_cost) {
        std::cerr << "BUG: serial and threaded DP disagree\n";
        return 1;
      }
      general.add_row({std::to_string(n), std::to_string(k),
                       fixed_cell(serial, 3), fixed_cell(threaded, 3),
                       std::to_string(serial_cost)});
      json_rows << (json_rows.tellp() > 0 ? ",\n" : "") << "    {\"n\": " << n
                << ", \"k\": " << k << ", \"serial\": " << fixed_cell(serial, 3)
                << ", \"threaded\": " << fixed_cell(threaded, 3)
                << ", \"cost\": " << serial_cost << "}";
    }
  }
  std::cout << "General demand-aware DP (flat engine):\n";
  general.print();

  // Large instances: hopeless under the O(n^3 k)-with-choice-tables
  // reference (0.32 s at n = 256, k = 10 was the old ceiling's shadow);
  // the flat engine reconstructs trees at n = 2048 and answers cost-only
  // queries at n = 4096 in the default container. Skipped in --smoke.
  std::ostringstream json_large;
  if (!smoke) {
    struct LargeCell {
      int n, k;
      bool cost_only;
    };
    const std::vector<LargeCell> cells = {
        {512, 2, false},  {512, 5, false},  {512, 10, false},
        {1024, 2, false}, {1024, 10, false}, {2048, 2, false},
        {2048, 2, true},  {4096, 2, true},
    };
    Table large({"n", "k", "mode", "time s", "cost"});
    int prev_n = 0;
    Trace t;
    std::vector<Cost> tree_cost_at_2048;
    DemandMatrix d(1);
    for (const LargeCell& c : cells) {
      if (c.n != prev_n) {
        t = gen_temporal(c.n, requests, 0.5, 3);
        d = DemandMatrix::from_trace(t);
        d.prewarm();
        prev_n = c.n;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const Cost cost =
          c.cost_only
              ? optimal_routing_based_cost(c.k, d, bench::bench_threads())
              : optimal_routing_based_tree(c.k, d, bench::bench_threads())
                    .total_distance;
      const double secs = bench::seconds_since(t0);
      if (c.n == 2048 && c.k == 2) {
        tree_cost_at_2048.push_back(cost);
        if (tree_cost_at_2048.size() == 2 &&
            tree_cost_at_2048[0] != tree_cost_at_2048[1]) {
          std::cerr << "BUG: cost-only and tree entry disagree at n=2048\n";
          return 1;
        }
      }
      const char* mode = c.cost_only ? "cost-only" : "tree";
      large.add_row({std::to_string(c.n), std::to_string(c.k), mode,
                     fixed_cell(secs, 3), std::to_string(cost)});
      json_large << (json_large.tellp() > 0 ? ",\n" : "")
                 << "    {\"n\": " << c.n << ", \"k\": " << c.k
                 << ", \"mode\": \"" << mode
                 << "\", \"seconds\": " << fixed_cell(secs, 3)
                 << ", \"cost\": " << cost << "}";
    }
    std::cout << "\nLarge instances (flat engine only):\n";
    large.print();
  }

  std::ostringstream json_uniform;
  Table uniform({"n", "k", "time s", "cost"});
  const std::vector<int> uniform_sizes =
      smoke ? std::vector<int>{200, 500, 1000}
            : std::vector<int>{1000, 4000, bench::full_scale() ? 16000 : 8000};
  for (int n : uniform_sizes) {
    for (int k : {2, 10}) {
      const auto t0 = std::chrono::steady_clock::now();
      const Cost c = optimal_uniform_cost(k, n);
      const double secs = bench::seconds_since(t0);
      uniform.add_row({std::to_string(n), std::to_string(k),
                       fixed_cell(secs, 3), std::to_string(c)});
      json_uniform << (json_uniform.tellp() > 0 ? ",\n" : "")
                   << "    {\"n\": " << n << ", \"k\": " << k
                   << ", \"seconds\": " << fixed_cell(secs, 3)
                   << ", \"cost\": " << c << "}";
    }
  }
  std::cout << "\nUniform-workload DP, O(n^2 k):\n";
  uniform.print();

  bench::write_json_result(
      "{\n  \"bench\": \"dp_scaling\",\n  \"threads\": " +
      std::to_string(bench::bench_threads_resolved()) +
      ",\n  \"general_dp\": [\n" + json_rows.str() + "\n  ],\n" +
      "  \"large_dp\": [\n" + json_large.str() + "\n  ],\n" +
      "  \"uniform_dp\": [\n" + json_uniform.str() + "\n  ]\n}\n");
  return 0;
}
