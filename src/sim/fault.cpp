#include "sim/fault.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "core/types.hpp"

namespace san {
namespace {

/// splitmix64: the chaos generator's PRNG. Chosen for being tiny, seedable
/// and stable across platforms — the plan must be a pure function of the
/// seed, not of the standard library's distribution implementations.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// A non-negative number spelled only in decimal digits that fill the
/// whole field: no sign, no blanks, no trailing characters, no overflow.
template <typename T>
T parse_digits(std::string_view field, const std::string& item) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  T value{};
  if (!std::all_of(field.begin(), field.end(), digit) ||
      std::from_chars(field.data(), field.data() + field.size(), value).ec !=
          std::errc{})
    throw TreeError("parse_fault_plan: malformed number in '" + item + "'");
  return value;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShardKill:
      return "shard-kill";
    case FaultKind::kWorkerKill:
      return "worker-kill";
    case FaultKind::kQueuePressure:
      return "queue-pressure";
  }
  return "?";
}

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < kills.size(); ++i) {
    if (kills[i].shard < 0)
      throw TreeError("FaultPlan: event " + std::to_string(i) +
                      " has a negative shard id");
    if (i > 0 && kills[i].at_request < kills[i - 1].at_request)
      throw TreeError(
          "FaultPlan: events must be sorted by at_request (event " +
          std::to_string(i) + " fires before its predecessor)");
  }
}

FaultPlan parse_fault_plan(const std::string& spec) {
  if (spec.empty())
    throw TreeError("parse_fault_plan: empty fault script");
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    FaultKind kind = FaultKind::kShardKill;
    if (item.size() >= 2 && item[1] == ':') {
      switch (item[0]) {
        case 'k':
          kind = FaultKind::kShardKill;
          break;
        case 'w':
          kind = FaultKind::kWorkerKill;
          break;
        case 'q':
          kind = FaultKind::kQueuePressure;
          break;
        default:
          throw TreeError("parse_fault_plan: unknown fault kind '" +
                          item.substr(0, 1) + "' in '" + item + "'");
      }
      item.erase(0, 2);
    }
    const std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= item.size())
      throw TreeError("parse_fault_plan: expected [KIND:]IDX@SHARD, got '" +
                      item + "'");
    const std::string_view fields(item);
    plan.kills.push_back(
        {parse_digits<std::size_t>(fields.substr(0, at), item),
         parse_digits<int>(fields.substr(at + 1), item), kind});
    pos = end + 1;
  }
  plan.validate();
  return plan;
}

FaultPlan gen_chaos_plan(std::uint64_t seed, int shards, std::size_t m) {
  if (shards < 1)
    throw TreeError("gen_chaos_plan: need at least one shard");
  if (m < 2)
    throw TreeError("gen_chaos_plan: need at least two requests");
  // Fold every input into the stream so plans differ across (shards, m)
  // even under a shared seed.
  std::uint64_t state = (seed + 1) * 0x9E3779B97F4A7C15ull ^
                        (static_cast<std::uint64_t>(shards) << 32) ^
                        static_cast<std::uint64_t>(m);
  const std::size_t events =
      2 + static_cast<std::size_t>(splitmix64(state) % 5);  // 2..6
  std::vector<std::size_t> at(events);
  for (std::size_t& a : at)
    a = 1 + static_cast<std::size_t>(splitmix64(state) %
                                     static_cast<std::uint64_t>(m - 1));
  std::sort(at.begin(), at.end());
  FaultPlan plan;
  plan.kills.reserve(events);
  for (const std::size_t a : at) {
    // Shard kills dominate (they exercise snapshot restore / promotion,
    // the deepest recovery path); worker kills and queue pressure each
    // take a quarter of the rolls.
    const std::uint64_t roll = splitmix64(state) % 4;
    const FaultKind kind = roll < 2   ? FaultKind::kShardKill
                           : roll == 2 ? FaultKind::kWorkerKill
                                       : FaultKind::kQueuePressure;
    const int shard = static_cast<int>(
        splitmix64(state) % static_cast<std::uint64_t>(shards));
    plan.kills.push_back({a, shard, kind});
  }
  plan.validate();
  return plan;
}

}  // namespace san
