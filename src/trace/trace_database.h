// Persistent trace database.
//
// Section III-A: "We store job traces persistently in a Trace database (for
// efficient lookup and storage) using a job template." This implementation
// keeps profiles in memory behind integer ids with an app-name index, and
// persists to a directory: an index file plus one profile file per job.
// ReadIndex and ReadProfile are Load's two halves; a reader that needs only
// some profiles (backend::SimSession) reads the index and then just those.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/job_profile.h"

namespace simmr::trace {

class TraceDatabase {
 public:
  using ProfileId = int;

  /// Stores a profile (validated first) and returns its id.
  /// Throws std::invalid_argument when the profile fails Validate().
  ProfileId Put(JobProfile profile);

  /// Fetches by id; throws std::out_of_range for unknown ids.
  const JobProfile& Get(ProfileId id) const;

  /// Ids of every profile whose app_name matches, in insertion order.
  std::vector<ProfileId> FindByApp(const std::string& app_name) const;

  /// Ids of all profiles, in insertion order.
  std::vector<ProfileId> AllIds() const;

  std::size_t size() const { return profiles_.size(); }
  bool empty() const { return profiles_.empty(); }

  /// Persists the database into `directory` (created if absent):
  /// `index.tsv` plus `profile_<id>.trace` files. Overwrites existing
  /// contents of a previous Save.
  void Save(const std::string& directory) const;

  /// Loads a database previously written by Save: ReadIndex, then
  /// ReadProfile for every entry. Throws std::runtime_error on missing or
  /// corrupt files, std::invalid_argument on a profile that fails
  /// Validate().
  static TraceDatabase Load(const std::string& directory);

  /// Reads `<directory>/index.tsv` and returns its profile file names in
  /// id order. The file must hold the header `id\tapp\tdataset\tfile`,
  /// then one line of four tab-separated fields per profile whose id is
  /// the line's ordinal (0 on the line after the header) and whose file is
  /// a plain name inside the directory. Throws std::runtime_error naming
  /// `<directory>/index.tsv:<line>`.
  static std::vector<std::string> ReadIndex(const std::string& directory);

  /// Reads and validates `<directory>/<file>`, one profile file of the
  /// index. Errors name the file: std::runtime_error when it is missing or
  /// malformed, std::invalid_argument when the profile fails Validate().
  static JobProfile ReadProfile(const std::string& directory,
                                const std::string& file);

 private:
  /// Put without the validation, for profiles ReadProfile validated.
  ProfileId Insert(JobProfile profile);

  std::vector<JobProfile> profiles_;
  std::unordered_map<std::string, std::vector<ProfileId>> by_app_;
};

}  // namespace simmr::trace
