#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double interpolated_quantile(const san::LatencyHistogram& h, double q) {
  using H = san::LatencyHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  // The histogram answers "which bucket holds rank r" through quantile();
  // a probe just inside rank r's slot of [0, 1] selects exactly that rank.
  const auto bucket_of_rank = [&](std::uint64_t r) {
    return H::bucket_index(
        h.quantile((static_cast<double>(r) - 0.5) / static_cast<double>(n)));
  };
  const std::size_t b = bucket_of_rank(rank);
  std::uint64_t lo = 1, hi = rank;  // first rank in bucket b
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of_rank(mid) >= b) hi = mid; else lo = mid + 1;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank in bucket b
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of_rank(mid) <= b) lo = mid; else hi = mid - 1;
  }
  const std::uint64_t last = lo;
  const double low = static_cast<double>(H::bucket_low(b));
  const double width =
      b < H::kSubBuckets ? 1.0
                         : static_cast<double>(H::bucket_low(b + 1)) - low;
  const double pos = (static_cast<double>(rank - first) + 0.5) /
                     static_cast<double>(last - first + 1);
  return std::clamp(low + width * pos, static_cast<double>(h.min()),
                    static_cast<double>(h.max()));
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t TimedStream::fill(std::span<san::Request> out) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const std::size_t got = inner_.fill(out);
  const double s = seconds_between(t0, Clock::now());
  gen_s_ += s;
  untaken_s_ += s;
  if (got > 0) {
    starts_.push_back(t0);
    cpu_starts_.push_back(cpu0);
  }
  return got;
}

double TimedStream::take_gen_seconds() {
  const double s = untaken_s_;
  untaken_s_ = 0.0;
  return s;
}

san::Trace materialize_timed(san::RequestStream& stream, double* gen_seconds) {
  san::Trace trace;
  trace.n = stream.n();
  trace.requests.resize(stream.size());
  TimedStream timed(stream);
  std::size_t have = 0;
  while (have < trace.requests.size()) {
    const std::size_t got = timed.fill(
        std::span<san::Request>(trace.requests).subspan(have));
    if (got == 0) break;
    have += got;
  }
  trace.requests.resize(have);
  if (gen_seconds != nullptr) *gen_seconds = timed.gen_seconds();
  return trace;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_number(v[i]);
  return out + "]";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

bool Report::correct() const {
  if (checks_.empty()) return false;
  for (const Check& c : checks_)
    if (!c.ok) return false;
  return true;
}

void Report::absorb(const Report& other, const std::string& prefix) {
  for (const Check& c : other.checks_)
    checks_.push_back(Check{prefix + c.name, c.ok, c.detail});
  for (const auto& [name, m] : other.metrics_)
    if (name.starts_with(prefix)) metrics_[name] = m;
  attempted += other.attempted;
  failed += other.failed;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const Check& c : checks_) {
    os << (first ? "" : ", ") << "{\"name\": " << json_string(c.name)
       << ", \"ok\": " << (c.ok ? "true" : "false")
       << ", \"detail\": " << json_string(c.detail) << "}";
    first = false;
  }
  os << "]";
  for (const auto& [key, value] : info_)
    os << ", " << json_string(key) << ": " << value;
  os << "}";
  return os.str();
}

int run_samples(const Args& args, int min_samples,
                const std::function<void(bool, bool)>& sample) {
  sample(false, false);  // warm-up: caches, allocator, thread pool
  const auto start = Clock::now();
  int plain = 0, traced = 0;
  while (true) {
    const bool do_trace = args.trace && traced < plain;
    const auto t0 = Clock::now();
    sample(true, do_trace);
    const double last = seconds_between(t0, Clock::now());
    (do_trace ? traced : plain) += 1;
    const bool enough =
        plain >= min_samples && (!args.trace || traced >= min_samples);
    // Stop before a sample that would overrun the budget.
    if (enough && seconds_between(start, Clock::now()) + last > args.seconds)
      break;
  }
  return plain + traced;
}

}  // namespace perfbench
