#include "fuzz/repro.h"

#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "simcore/parse.h"

namespace simmr::fuzz {
namespace {

constexpr const char* kMagic = "simmr.repro.v1";

FaultMode ParseFaultMode(const std::string& name) {
  for (const FaultMode mode :
       {FaultMode::kNone, FaultMode::kDropCompletion,
        FaultMode::kDoubleCompletion, FaultMode::kClockSkew,
        FaultMode::kPhantomLaunch}) {
    if (name == FaultModeName(mode)) return mode;
  }
  throw std::runtime_error("reproducer: unknown fault mode '" + name + "'");
}

/// Reads "key value..." asserting the key; returns the value part.
std::string ReadField(std::istream& in, const char* key) {
  std::string line;
  if (!std::getline(in, line))
    throw std::runtime_error(std::string("reproducer: missing field ") + key);
  const auto space = line.find(' ');
  const std::string seen = line.substr(0, space);
  if (seen != key)
    throw std::runtime_error(std::string("reproducer: expected field ") +
                             key + ", got '" + line + "'");
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

/// ParseWhole, as the embedded profiles are read, throwing on a token it
/// rejects.
template <typename T>
T ParseNumber(std::string_view token, const char* key) {
  const std::optional<T> value = ParseWhole<T>(token);
  if (!value)
    throw std::runtime_error(std::string("reproducer: bad ") + key + " '" +
                             std::string(token) + "'");
  return *value;
}

/// ReadField, then ParseNumber of its value.
template <typename T>
T ReadNumber(std::istream& in, const char* key) {
  return ParseNumber<T>(ReadField(in, key), key);
}

}  // namespace

void WriteReproducer(std::ostream& out, const Reproducer& repro) {
  out << kMagic << '\n';
  out.precision(17);
  out << "master_seed " << repro.master_seed << '\n';
  out << "fault " << FaultModeName(repro.fault.mode) << ' '
      << repro.fault.trigger << '\n';
  out << "policy " << repro.spec.policy << '\n';
  out << "map_slots " << repro.spec.map_slots << '\n';
  out << "reduce_slots " << repro.spec.reduce_slots << '\n';
  out << "slowstart " << repro.spec.slowstart << '\n';
  out << "record_tasks " << (repro.spec.record_tasks ? 1 : 0) << '\n';
  out << "num_jobs " << repro.spec.num_jobs << '\n';
  out << "mean_interarrival_s " << repro.spec.mean_interarrival_s << '\n';
  out << "arrival_scale " << repro.spec.arrival_scale << '\n';
  out << "deadline_factor " << repro.spec.deadline_factor << '\n';
  out << "engine_seed " << repro.spec.seed << '\n';
  // The note is single-line by construction; flatten just in case.
  std::string note = repro.note;
  for (char& c : note)
    if (c == '\n' || c == '\r') c = ' ';
  out << "note " << note << '\n';
  out << "jobs " << repro.pool.size() << '\n';
  for (const auto& profile : repro.pool) profile.Write(out);
  if (!repro.fault_plan.Empty())
    fault::WriteFaultPlan(out, repro.fault_plan);
}

Reproducer ReadReproducer(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("reproducer: bad or missing version line");
  Reproducer repro;
  repro.master_seed = ReadNumber<std::uint64_t>(in, "master_seed");
  {
    // Exactly "<mode> <trigger>".
    const std::string fault = ReadField(in, "fault");
    const std::size_t space = fault.find(' ');
    if (space == std::string::npos)
      throw std::runtime_error("reproducer: bad fault '" + fault +
                               "': expected '<mode> <trigger>'");
    repro.fault.mode = ParseFaultMode(fault.substr(0, space));
    repro.fault.trigger = ParseNumber<std::uint64_t>(
        std::string_view(fault).substr(space + 1), "fault trigger");
  }
  repro.spec.policy = ReadField(in, "policy");
  repro.spec.map_slots = ReadNumber<int>(in, "map_slots");
  repro.spec.reduce_slots = ReadNumber<int>(in, "reduce_slots");
  repro.spec.slowstart = ReadNumber<double>(in, "slowstart");
  {
    const std::string record_tasks = ReadField(in, "record_tasks");
    if (record_tasks != "0" && record_tasks != "1")
      throw std::runtime_error("reproducer: bad record_tasks '" +
                               record_tasks + "': expected 0 or 1");
    repro.spec.record_tasks = record_tasks == "1";
  }
  repro.spec.num_jobs = ReadNumber<int>(in, "num_jobs");
  repro.spec.mean_interarrival_s =
      ReadNumber<double>(in, "mean_interarrival_s");
  repro.spec.arrival_scale = ReadNumber<double>(in, "arrival_scale");
  repro.spec.deadline_factor = ReadNumber<double>(in, "deadline_factor");
  repro.spec.seed = ReadNumber<std::uint64_t>(in, "engine_seed");
  repro.note = ReadField(in, "note");
  // The declared count is not trusted with an allocation: the pool grows
  // one parsed profile at a time.
  const std::uint32_t num_jobs = ReadNumber<std::uint32_t>(in, "jobs");
  for (std::uint32_t i = 0; i < num_jobs; ++i) {
    try {
      repro.pool.push_back(trace::JobProfile::Read(in));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("reproducer: profile " + std::to_string(i) +
                               " of " + std::to_string(num_jobs) + ": " +
                               e.what());
    }
  }
  // Optional trailer: an embedded fault plan (fault-archetype cases).
  // Peek non-destructively — containers like the explore-reproducer
  // format append their own trailer fields after this block, and they
  // must find the stream exactly where the pool ended.
  std::streampos pos = in.tellg();
  while (std::getline(in, line)) {
    if (line.empty()) {  // tolerate blank padding between sections
      pos = in.tellg();
      continue;
    }
    if (line == fault::kFaultPlanMagic) {
      repro.fault_plan = fault::ReadFaultPlanBody(in);
    } else {
      in.clear();
      in.seekg(pos);
    }
    break;
  }
  if (in.eof()) in.clear();  // a trailer is optional; EOF here is clean
  return repro;
}

void WriteReproducerFile(const std::string& path, const Reproducer& repro) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("reproducer: cannot open " + path);
  WriteReproducer(out, repro);
  out.flush();
  if (!out) throw std::runtime_error("reproducer: write failed for " + path);
}

Reproducer ReadReproducerFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("reproducer: cannot open " + path);
  return ReadReproducer(in);
}

}  // namespace simmr::fuzz
