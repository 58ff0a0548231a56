#include "fault/fault_plan.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace simmr::fault {
namespace {

constexpr const char* kMagic = kFaultPlanMagic;

constexpr const char* kKindNames[] = {
    "node_crash", "node_restore", "heartbeat_loss", "node_slowdown",
    "kill_attempt",
};
constexpr int kNumKinds = 5;

/// Reads "key value..." asserting the key; returns the value part.
std::string ReadField(std::istream& in, const char* key) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error(std::string("fault plan: missing field ") + key);
  const auto space = line.find(' ');
  const std::string seen = line.substr(0, space);
  if (seen != key)
    throw std::runtime_error(std::string("fault plan: expected field ") + key +
                             ", got '" + line + "'");
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

/// Reads header field `key` whose value must be one whole number: no sign
/// on an unsigned T, no trailing characters, in T's range.
template <typename T>
T ReadNumberField(std::istream& in, const char* key) {
  const std::string value = ReadField(in, key);
  T number{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, number);
  if (ec != std::errc() || ptr != end)
    throw std::runtime_error(std::string("fault plan: bad ") + key + " '" +
                             value + "'");
  return number;
}

/// Asserts that the next token of `in` equals `word` (action-line syntax
/// markers like "node", "until", "factor").
void ExpectWord(std::istringstream& in, const char* word,
                const std::string& line) {
  std::string seen;
  if (!(in >> seen) || seen != word)
    throw std::runtime_error(std::string("fault plan: expected '") + word +
                             "' in action line '" + line + "'");
}

}  // namespace

const char* FaultActionKindName(FaultActionKind kind) {
  const auto index = static_cast<std::uint8_t>(kind);
  if (index >= kNumKinds) return "?";
  return kKindNames[index];
}

std::optional<FaultActionKind> ParseFaultActionKind(std::string_view name) {
  for (int i = 0; i < kNumKinds; ++i) {
    if (name == kKindNames[i]) return static_cast<FaultActionKind>(i);
  }
  return std::nullopt;
}

std::string ValidateFaultPlan(const FaultPlan& plan) {
  std::ostringstream err;
  if (plan.num_nodes < 0) return "fault plan: negative num_nodes";
  if (plan.map_slots_per_node < 0 || plan.reduce_slots_per_node < 0)
    return "fault plan: negative slots per node";
  // Track crash/restore alternation per node over time-sorted actions so
  // double-crash and restore-without-crash are rejected regardless of the
  // order actions were written in.
  std::vector<char> down(
      plan.num_nodes > 0 ? static_cast<std::size_t>(plan.num_nodes) : 0, 0);
  for (const FaultAction& a : SortedActions(plan)) {
    const char* name = FaultActionKindName(a.kind);
    if (!(a.time >= 0.0)) {  // catches NaN too
      err << "fault plan: " << name << " at negative or NaN time " << a.time;
      return err.str();
    }
    const bool node_scoped = a.kind != FaultActionKind::kKillAttempt;
    if (node_scoped) {
      if (plan.num_nodes == 0) {
        // Every simulator refuses node faults without geometry; reject the
        // plan up front so the mistake surfaces at authoring time.
        err << "fault plan: " << name
            << " requires geometry (num_nodes == 0 allows only kill_attempt)";
        return err.str();
      }
      if (a.node < 0 ||
          (plan.num_nodes > 0 && a.node >= plan.num_nodes)) {
        err << "fault plan: " << name << " targets out-of-range node "
            << a.node;
        return err.str();
      }
    }
    switch (a.kind) {
      case FaultActionKind::kNodeCrash:
        if (plan.num_nodes > 0 && down[a.node]) {
          err << "fault plan: node " << a.node
              << " crashed twice without a restore";
          return err.str();
        }
        if (plan.num_nodes > 0) down[a.node] = 1;
        break;
      case FaultActionKind::kNodeRestore:
        if (plan.num_nodes > 0 && !down[a.node]) {
          err << "fault plan: node " << a.node
              << " restored without a prior crash";
          return err.str();
        }
        if (plan.num_nodes > 0) down[a.node] = 0;
        break;
      case FaultActionKind::kHeartbeatLoss:
        if (!(a.end_time > a.time)) {
          err << "fault plan: heartbeat_loss window [" << a.time << ", "
              << a.end_time << ") is empty or inverted";
          return err.str();
        }
        break;
      case FaultActionKind::kNodeSlowdown:
        if (!(a.factor > 0.0)) {
          err << "fault plan: node_slowdown factor " << a.factor
              << " must be positive";
          return err.str();
        }
        break;
      case FaultActionKind::kKillAttempt:
        if (a.job < 0 || a.index < 0) {
          err << "fault plan: kill_attempt with negative job or index";
          return err.str();
        }
        break;
    }
  }
  return std::string();
}

std::vector<FaultAction> SortedActions(const FaultPlan& plan) {
  std::vector<FaultAction> sorted = plan.actions;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.time < b.time;
                   });
  return sorted;
}

void WriteFaultPlan(std::ostream& out, const FaultPlan& plan) {
  out << kMagic << '\n';
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "num_nodes " << plan.num_nodes << '\n';
  out << "map_slots_per_node " << plan.map_slots_per_node << '\n';
  out << "reduce_slots_per_node " << plan.reduce_slots_per_node << '\n';
  out << "seed " << plan.seed << '\n';
  out << "actions " << plan.actions.size() << '\n';
  for (const FaultAction& a : plan.actions) {
    out << FaultActionKindName(a.kind) << ' ' << a.time;
    switch (a.kind) {
      case FaultActionKind::kNodeCrash:
      case FaultActionKind::kNodeRestore:
        out << " node " << a.node;
        break;
      case FaultActionKind::kHeartbeatLoss:
        out << " node " << a.node << " until " << a.end_time;
        break;
      case FaultActionKind::kNodeSlowdown:
        out << " node " << a.node << " factor " << a.factor;
        break;
      case FaultActionKind::kKillAttempt:
        out << " job " << a.job << ' ' << obs::TaskKindName(a.task_kind)
            << ' ' << a.index;
        break;
    }
    out << '\n';
  }
}

FaultPlan ReadFaultPlan(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("fault plan: bad or missing version line");
  return ReadFaultPlanBody(in);
}

FaultPlan ReadFaultPlanBody(std::istream& in) {
  std::string line;
  FaultPlan plan;
  plan.num_nodes = ReadNumberField<std::int32_t>(in, "num_nodes");
  plan.map_slots_per_node =
      ReadNumberField<std::int32_t>(in, "map_slots_per_node");
  plan.reduce_slots_per_node =
      ReadNumberField<std::int32_t>(in, "reduce_slots_per_node");
  plan.seed = ReadNumberField<std::uint64_t>(in, "seed");
  // The vector grows with the lines actually read: a declared count asks
  // for no memory up front.
  const auto num_actions = ReadNumberField<std::uint32_t>(in, "actions");
  for (std::uint32_t i = 0; i < num_actions; ++i) {
    if (!std::getline(in, line))
      throw std::runtime_error(
          "fault plan: truncated action list: actions declares " +
          std::to_string(num_actions) + ", found " + std::to_string(i));
    std::istringstream as(line);
    std::string kind_name;
    FaultAction a;
    if (!(as >> kind_name >> a.time))
      throw std::runtime_error("fault plan: malformed action line '" + line +
                               "'");
    const auto kind = ParseFaultActionKind(kind_name);
    if (!kind.has_value())
      throw std::runtime_error("fault plan: unknown action kind '" +
                               kind_name + "'");
    a.kind = *kind;
    switch (a.kind) {
      case FaultActionKind::kNodeCrash:
      case FaultActionKind::kNodeRestore:
        ExpectWord(as, "node", line);
        if (!(as >> a.node))
          throw std::runtime_error("fault plan: bad node in '" + line + "'");
        break;
      case FaultActionKind::kHeartbeatLoss:
        ExpectWord(as, "node", line);
        if (!(as >> a.node))
          throw std::runtime_error("fault plan: bad node in '" + line + "'");
        ExpectWord(as, "until", line);
        if (!(as >> a.end_time))
          throw std::runtime_error("fault plan: bad window end in '" + line +
                                   "'");
        break;
      case FaultActionKind::kNodeSlowdown:
        ExpectWord(as, "node", line);
        if (!(as >> a.node))
          throw std::runtime_error("fault plan: bad node in '" + line + "'");
        ExpectWord(as, "factor", line);
        if (!(as >> a.factor))
          throw std::runtime_error("fault plan: bad factor in '" + line +
                                   "'");
        break;
      case FaultActionKind::kKillAttempt: {
        ExpectWord(as, "job", line);
        std::string kind_word;
        if (!(as >> a.job >> kind_word >> a.index))
          throw std::runtime_error("fault plan: malformed kill_attempt '" +
                                   line + "'");
        if (kind_word == "map") {
          a.task_kind = obs::TaskKind::kMap;
        } else if (kind_word == "reduce") {
          a.task_kind = obs::TaskKind::kReduce;
        } else {
          throw std::runtime_error("fault plan: unknown task kind '" +
                                   kind_word + "'");
        }
        break;
      }
    }
    std::string trailing;
    if (as >> trailing)
      throw std::runtime_error("fault plan: trailing tokens in '" + line +
                               "'");
    plan.actions.push_back(a);
  }
  return plan;
}

void WriteFaultPlanFile(const std::string& path, const FaultPlan& plan) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("fault plan: cannot open " + path);
  WriteFaultPlan(out, plan);
  out.flush();
  if (!out) throw std::runtime_error("fault plan: write failed for " + path);
}

FaultPlan ReadFaultPlanFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("fault plan: cannot open " + path);
  return ReadFaultPlan(in);
}

}  // namespace simmr::fault
