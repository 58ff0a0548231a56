#include "trace/trace_database.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace simmr::trace {
namespace fs = std::filesystem;

TraceDatabase::ProfileId TraceDatabase::Put(JobProfile profile) {
  const std::string error = profile.Validate();
  if (!error.empty())
    throw std::invalid_argument("TraceDatabase::Put: invalid profile: " +
                                error);
  const ProfileId id = static_cast<ProfileId>(profiles_.size());
  by_app_[profile.app_name].push_back(id);
  profiles_.push_back(std::move(profile));
  return id;
}

const JobProfile& TraceDatabase::Get(ProfileId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= profiles_.size())
    throw std::out_of_range("TraceDatabase::Get: unknown id " +
                            std::to_string(id));
  return profiles_[id];
}

std::vector<TraceDatabase::ProfileId> TraceDatabase::FindByApp(
    const std::string& app_name) const {
  const auto it = by_app_.find(app_name);
  if (it == by_app_.end()) return {};
  return it->second;
}

std::vector<TraceDatabase::ProfileId> TraceDatabase::AllIds() const {
  std::vector<ProfileId> ids(profiles_.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<ProfileId>(i);
  return ids;
}

void TraceDatabase::Save(const std::string& directory) const {
  fs::create_directories(directory);
  const fs::path dir(directory);
  {
    std::ofstream index(dir / "index.tsv");
    if (!index)
      throw std::runtime_error("TraceDatabase::Save: cannot write index in " +
                               directory);
    index << "id\tapp\tdataset\tfile\n";
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      index << i << '\t' << profiles_[i].app_name << '\t'
            << profiles_[i].dataset << '\t' << "profile_" << i << ".trace\n";
    }
  }
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    const fs::path file = dir / ("profile_" + std::to_string(i) + ".trace");
    std::ofstream out(file);
    if (!out)
      throw std::runtime_error("TraceDatabase::Save: cannot write " +
                               file.string());
    profiles_[i].Write(out);
    if (!out)
      throw std::runtime_error("TraceDatabase::Save: write failed for " +
                               file.string());
  }
}

TraceDatabase TraceDatabase::Load(const std::string& directory) {
  const fs::path dir(directory);
  std::ifstream index(dir / "index.tsv");
  if (!index)
    throw std::runtime_error("TraceDatabase::Load: missing index.tsv in " +
                             directory);
  std::string header;
  std::getline(index, header);  // column names

  TraceDatabase db;
  std::string line;
  while (std::getline(index, line)) {
    if (line.empty()) continue;
    // Fields: id, app, dataset, file — only the file name is needed; the
    // profile file itself is authoritative for the rest.
    const std::size_t last_tab = line.rfind('\t');
    if (last_tab == std::string::npos)
      throw std::runtime_error("TraceDatabase::Load: malformed index line: " +
                               line);
    const std::string file_name = line.substr(last_tab + 1);
    std::ifstream in(dir / file_name);
    if (!in)
      throw std::runtime_error("TraceDatabase::Load: missing profile file " +
                               file_name);
    // Name the file in parse and validation errors, keeping their types.
    try {
      db.Put(JobProfile::Read(in));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("TraceDatabase::Load: " + file_name + ": " +
                               e.what());
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("TraceDatabase::Load: " + file_name + ": " +
                                  e.what());
    }
  }
  return db;
}

}  // namespace simmr::trace
