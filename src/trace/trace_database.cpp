#include "trace/trace_database.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "prof/profiler.h"

namespace simmr::trace {
namespace fs = std::filesystem;

namespace {

constexpr std::string_view kIndexHeader = "id\tapp\tdataset\tfile";

/// True for a name that opens a file directly inside the database
/// directory: no separator, not a directory alias, no NUL.
bool PlainFileName(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find_first_of(std::string_view("/\0", 2)) ==
             std::string_view::npos;
}

}  // namespace

TraceDatabase::ProfileId TraceDatabase::Put(JobProfile profile) {
  const std::string error = profile.Validate();
  if (!error.empty())
    throw std::invalid_argument("TraceDatabase::Put: invalid profile: " +
                                error);
  return Insert(std::move(profile));
}

TraceDatabase::ProfileId TraceDatabase::Insert(JobProfile profile) {
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
  TraceDatabase db;
  for (const std::string& file : ReadIndex(directory))
    db.Insert(ReadProfile(directory, file));
  return db;
}

std::vector<std::string> TraceDatabase::ReadIndex(
    const std::string& directory) {
  const std::string path = (fs::path(directory) / "index.tsv").string();
  std::ifstream index(path);
  if (!index)
    throw std::runtime_error("TraceDatabase::Load: " + path +
                             ": missing index");
  std::size_t line_number = 1;
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("TraceDatabase::Load: " + path + ":" +
                              std::to_string(line_number) + ": " + what);
  };
  std::string line;
  if (!std::getline(index, line) || line != kIndexHeader)
    throw fail("expected the header 'id<TAB>app<TAB>dataset<TAB>file'");

  // Fields: id, app, dataset, file. The profile file is authoritative for
  // the app and dataset, so only the id and the file are checked here.
  std::vector<std::string> files;
  while (std::getline(index, line)) {
    ++line_number;
    const auto fields = std::count(line.begin(), line.end(), '\t') + 1;
    if (fields != 4)
      throw fail("expected 4 tab-separated fields, got " +
                 std::to_string(fields));
    const std::string_view id(line.data(), line.find('\t'));
    const std::string_view file =
        std::string_view(line).substr(line.rfind('\t') + 1);
    const std::string want = std::to_string(files.size());
    if (id != want)
      throw fail("expected id " + want + ", got '" + std::string(id) + "'");
    if (!PlainFileName(file))
      throw fail("profile file '" + std::string(file) +
                 "' is not a plain file name in the database directory");
    files.emplace_back(file);
  }
  if (index.bad()) throw fail("read failed");
  return files;
}

JobProfile TraceDatabase::ReadProfile(const std::string& directory,
                                      const std::string& file) {
  const std::string path = (fs::path(directory) / file).string();
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("TraceDatabase::Load: " + path +
                             ": missing profile file");
  // Name the file in parse and validation errors, keeping their types.
  JobProfile profile;
  try {
    profile = JobProfile::Read(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("TraceDatabase::Load: " + path + ": " +
                             e.what());
  }
  const std::string error = profile.Validate();
  if (!error.empty())
    throw std::invalid_argument("TraceDatabase::Load: " + path +
                                ": invalid profile: " + error);
  prof::Count(prof::Counter::kProfilesParsed);
  return profile;
}

}  // namespace simmr::trace
