// perfbench: runs one benchmark workload and prints one JSON report line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Exit codes: 0 = every output check passed, 1 = a check failed or the
// library threw, 2 = bad arguments. perfbench/run.py builds this binary
// and turns the report into the benchmark's result line.
#include <iostream>
#include <map>
#include <stdexcept>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n";
    return 2;
  }
  const std::map<std::string, void (*)(const Args&, Report&)> workloads = {
      {"paper_temporal", run_paper_temporal},
      {"seqscan_deep", run_seqscan_deep},
      {"sharded_drift", run_sharded_drift},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) {
    std::cerr << "perfbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  Report report;
  try {
    if (args.trace && args.workload == "sharded_drift") {
      // The live frontend's latencies follow the load other tenants put on
      // a shared host too closely to be gated as a workload of their own
      // (see perfbench/README.md), so its layer is traced here, next to the
      // batch pipeline, in a third of the time.
      Args batch = args, live = args;
      live.seconds = args.seconds / 3.0;
      batch.seconds = args.seconds - live.seconds;
      it->second(batch, report);
      Report frontend;
      run_frontend_hotpair(live, frontend);
      report.absorb(frontend, "frontend.");
    } else {
      it->second(args, report);
    }
  } catch (const std::exception& e) {
    report.check("no_exception", false, e.what());
  }
  if (!args.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("workload", json_string(args.workload));
  report.info("seed", std::to_string(args.seed));
  report.info("trace", args.trace ? "1" : "0");
  std::cout << report.to_json() << std::endl;
  return report.correct() ? 0 : 1;
}
