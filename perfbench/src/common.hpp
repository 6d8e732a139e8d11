// Shared harness of the repository benchmark: argument parsing, the sample
// protocol, span timing, quantiles, and the JSON report the runner reads.
//
// The benchmark drives the library only through its public headers. A
// workload generates its inputs from the seed, rebuilds every network from
// scratch for each sample, runs one discarded warm-up sample, and then
// measures samples until the time budget is spent. End-to-end metrics come
// from untraced samples; a traced run (--trace 1) alternates untraced and
// traced samples and reports per-layer self times plus the tracing
// overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/splaynet.hpp"
#include "stats/latency_histogram.hpp"
#include "workload/streaming.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// CPU time this process has used, in seconds. The phases the end-to-end
/// metrics time run on one thread, so their CPU time is their service
/// demand. Unlike wall time it leaves out the time the host ran other
/// tenants on this machine's CPUs (steal time, which went from under 1% to
/// about 20% within minutes on a shared 4-vCPU host).
double cpu_seconds();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses --workload NAME --seed N --seconds S --trace 0|1; throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

double median(std::vector<double> v);

/// Quantile of a LatencyHistogram with linear interpolation inside the
/// bucket that holds the rank, in nanoseconds. The histogram's own
/// quantile() returns bucket midpoints, which would quantize a run's
/// figure to one of a few values.
double interpolated_quantile(const san::LatencyHistogram& h, double q);

/// Order-sensitive digest of a sequence of serve results, used to check
/// that two ways of serving one trace produced identical results.
inline void mix_result(std::uint64_t& h, const san::ServeResult& r) {
  for (std::int64_t x : {r.routing_cost, std::int64_t{r.rotations},
                         std::int64_t{r.parent_changes},
                         std::int64_t{r.edge_changes}}) {
    h ^= static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
}

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Wraps a RequestStream and times every fill() call: the generator's
/// cost, and the instants the consumer asked for more input.
class TimedStream final : public san::RequestStream {
 public:
  explicit TimedStream(san::RequestStream& inner) : inner_(inner) {}

  int n() const override { return inner_.n(); }
  std::size_t size() const override { return inner_.size(); }
  std::size_t fill(std::span<san::Request> out) override;

  double gen_seconds() const { return gen_s_; }
  /// Start instants of every fill() call that returned requests.
  const std::vector<Clock::time_point>& fill_starts() const {
    return starts_;
  }
  /// The same instants as cpu_seconds() readings.
  const std::vector<double>& fill_cpu_starts() const { return cpu_starts_; }
  /// Generator seconds spent since the last call of this function.
  double take_gen_seconds();

 private:
  san::RequestStream& inner_;
  double gen_s_ = 0.0;
  double untaken_s_ = 0.0;
  std::vector<Clock::time_point> starts_;
  std::vector<double> cpu_starts_;
};

/// Pulls a whole stream into a Trace, timing only the generator.
san::Trace materialize_timed(san::RequestStream& stream, double* gen_seconds);

/// Everything one process reports: checks, counts and metrics by name.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);
  void info(const std::string& key, const std::string& json_value);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  bool correct() const;
  /// Adds `other`'s checks (names prefixed with `prefix`), counts, and the
  /// metrics whose names start with `prefix`.
  void absorb(const Report& other, const std::string& prefix);
  /// One JSON object on one line.
  std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
};

std::string json_string(const std::string& s);
std::string json_number(double v);
std::string json_array(const std::vector<double>& v);

/// The sample protocol. Calls `sample(false, false)` once as the discarded
/// warm-up, then keeps calling `sample(true, traced)` until `seconds` of
/// measuring time are spent and at least `min_samples` measured samples
/// (per kind, in a traced run) were taken. In a traced run the samples
/// alternate untraced / traced. Returns the number of measured samples.
int run_samples(const Args& args, int min_samples,
                const std::function<void(bool measured, bool traced)>& sample);

/// Constructs a `T` (a sample's inputs and network, which times its own
/// network build in cpu_seconds() into a `build_s` member) `n` times and
/// keeps the last, appending every construction's CPU time to `setup_s` and
/// its build time to `build_s`. A set-up of a few milliseconds varies too
/// much from one call to the next for a single timing per sample to compare
/// across runs.
template <typename T, typename... A>
std::unique_ptr<T> set_up(int n, std::vector<double>& setup_s,
                          std::vector<double>& build_s, const A&... args) {
  std::unique_ptr<T> kept;
  for (int i = 0; i < n; ++i) {
    const double t0 = cpu_seconds();
    auto next = std::make_unique<T>(args...);
    setup_s.push_back(cpu_seconds() - t0);
    build_s.push_back(next->build_s);
    kept = std::move(next);
  }
  return kept;
}

/// Workload entry points (one per file).
void run_paper_temporal(const Args& args, Report& report);
void run_seqscan_deep(const Args& args, Report& report);
void run_sharded_drift(const Args& args, Report& report);
void run_frontend_hotpair(const Args& args, Report& report);

}  // namespace perfbench
