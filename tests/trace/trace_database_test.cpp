#include "trace/trace_database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace simmr::trace {
namespace {

namespace fs = std::filesystem;

JobProfile Profile(const std::string& app, const std::string& dataset) {
  JobProfile p;
  p.app_name = app;
  p.dataset = dataset;
  p.num_maps = 2;
  p.num_reduces = 1;
  p.map_durations = {1.0, 2.0};
  p.typical_shuffle_durations = {3.0};
  p.reduce_durations = {4.0};
  return p;
}

class TraceDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: ctest runs each TEST as its own process, often
    // in parallel, and a shared path would let one test's SetUp wipe
    // another's files mid-run.
    dir_ = fs::temp_directory_path() /
           (std::string("simmr_tracedb_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(TraceDatabaseTest, PutAssignsSequentialIds) {
  TraceDatabase db;
  EXPECT_EQ(db.Put(Profile("A", "1")), 0);
  EXPECT_EQ(db.Put(Profile("B", "2")), 1);
  EXPECT_EQ(db.size(), 2u);
}

TEST_F(TraceDatabaseTest, GetReturnsStoredProfile) {
  TraceDatabase db;
  const auto id = db.Put(Profile("Sort", "16GB"));
  EXPECT_EQ(db.Get(id).app_name, "Sort");
  EXPECT_EQ(db.Get(id).dataset, "16GB");
}

TEST_F(TraceDatabaseTest, GetRejectsUnknownId) {
  TraceDatabase db;
  EXPECT_THROW(db.Get(0), std::out_of_range);
  db.Put(Profile("A", "1"));
  EXPECT_THROW(db.Get(1), std::out_of_range);
  EXPECT_THROW(db.Get(-1), std::out_of_range);
}

TEST_F(TraceDatabaseTest, PutValidatesProfile) {
  TraceDatabase db;
  JobProfile bad = Profile("A", "1");
  bad.map_durations.clear();
  EXPECT_THROW(db.Put(bad), std::invalid_argument);
  EXPECT_TRUE(db.empty());
}

TEST_F(TraceDatabaseTest, FindByAppFiltersAndOrders) {
  TraceDatabase db;
  db.Put(Profile("Sort", "16GB"));
  db.Put(Profile("WordCount", "32GB"));
  db.Put(Profile("Sort", "32GB"));
  const auto ids = db.FindByApp("Sort");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[1], 2);
  EXPECT_TRUE(db.FindByApp("Missing").empty());
}

TEST_F(TraceDatabaseTest, AllIdsInInsertionOrder) {
  TraceDatabase db;
  db.Put(Profile("A", "1"));
  db.Put(Profile("B", "2"));
  const auto ids = db.AllIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[1], 1);
}

TEST_F(TraceDatabaseTest, SaveLoadRoundTrip) {
  TraceDatabase db;
  db.Put(Profile("Sort", "16GB"));
  db.Put(Profile("WordCount", "40GB"));
  db.Save(dir_.string());

  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Get(0), db.Get(0));
  EXPECT_EQ(loaded.Get(1), db.Get(1));
  EXPECT_EQ(loaded.FindByApp("Sort").size(), 1u);
}

TEST_F(TraceDatabaseTest, SaveLoadRoundTripKeepsNamesWithSpaces) {
  TraceDatabase db;
  db.Put(Profile("Word Count", "wiki 40GB"));
  db.Put(Profile("Sort", ""));
  db.Save(dir_.string());

  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Get(0), db.Get(0));
  EXPECT_EQ(loaded.Get(1), db.Get(1));
  EXPECT_EQ(loaded.FindByApp("Word Count").size(), 1u);
  EXPECT_TRUE(loaded.FindByApp("Word").empty());
}

TEST_F(TraceDatabaseTest, SaveCreatesIndexAndProfileFiles) {
  TraceDatabase db;
  db.Put(Profile("A", "1"));
  db.Save(dir_.string());
  EXPECT_TRUE(fs::exists(dir_ / "index.tsv"));
  EXPECT_TRUE(fs::exists(dir_ / "profile_0.trace"));
}

TEST_F(TraceDatabaseTest, LoadMissingDirectoryThrows) {
  EXPECT_THROW(TraceDatabase::Load((dir_ / "nope").string()),
               std::runtime_error);
}

TEST_F(TraceDatabaseTest, LoadMissingProfileFileThrows) {
  TraceDatabase db;
  db.Put(Profile("A", "1"));
  db.Save(dir_.string());
  fs::remove(dir_ / "profile_0.trace");
  EXPECT_THROW(TraceDatabase::Load(dir_.string()), std::runtime_error);
}

TEST_F(TraceDatabaseTest, LoadErrorNamesTheProfileFile) {
  TraceDatabase db;
  db.Put(Profile("A", "1"));
  db.Put(Profile("B", "2"));
  db.Save(dir_.string());
  std::string text;
  {
    std::ifstream in(dir_ / "profile_1.trace");
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t at = text.find("num_maps 2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "num_maps 2x");
  std::ofstream(dir_ / "profile_1.trace") << text;
  try {
    TraceDatabase::Load(dir_.string());
    FAIL() << "a malformed profile loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("profile_1.trace: JobProfile: bad "
                                         "num_maps '2x'"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------- index.tsv

/// Saves two profiles, replaces index.tsv with `index`, and returns the
/// error Load raises ("" when it loads).
std::string IndexError(const fs::path& dir, const std::string& index) {
  TraceDatabase db;
  db.Put(Profile("A", "1"));
  db.Put(Profile("B", "2"));
  db.Save(dir.string());
  std::ofstream(dir / "index.tsv") << index;
  try {
    TraceDatabase::Load(dir.string());
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr const char* kHeader = "id\tapp\tdataset\tfile\n";

/// Expects `index` rejected at `line` of `dir`/index.tsv, saying `what`.
void ExpectIndexRejected(const fs::path& dir, const std::string& index,
                         int line, const std::string& what) {
  const std::string error = IndexError(dir, index);
  const std::string where =
      (dir / "index.tsv").string() + ":" + std::to_string(line) + ": ";
  EXPECT_NE(error.find(where), std::string::npos)
      << (error.empty() ? "loaded" : error) << " lacks " << where;
  EXPECT_NE(error.find(what), std::string::npos) << error;
}

TEST_F(TraceDatabaseTest, IndexWithoutTheHeaderIsRejected) {
  // A reader that skips the first line unread drops the first profile.
  ExpectIndexRejected(dir_,
                      "0\tA\t1\tprofile_0.trace\n1\tB\t2\tprofile_1.trace\n",
                      1, "expected the header");
  ExpectIndexRejected(dir_, "id\tapp\tfile\n0\tA\t1\tprofile_0.trace\n", 1,
                      "expected the header");
  ExpectIndexRejected(dir_, "", 1, "expected the header");
}

TEST_F(TraceDatabaseTest, IndexLinesHoldExactlyFourFields) {
  ExpectIndexRejected(dir_, std::string(kHeader) + "0\tA\tprofile_0.trace\n",
                      2, "expected 4 tab-separated fields, got 3");
  ExpectIndexRejected(dir_,
                      std::string(kHeader) +
                          "0\tA\t1\tprofile_0.trace\n"
                          "1\tB\t2\tprofile_1.trace\textra\n",
                      3, "expected 4 tab-separated fields, got 5");
  ExpectIndexRejected(dir_,
                      std::string(kHeader) + "0\tA\t1\tprofile_0.trace\n\n",
                      3, "expected 4 tab-separated fields, got 1");
}

TEST_F(TraceDatabaseTest, IndexIdsAreTheLineOrdinals) {
  // Ids are dense and ordered (docs/FORMATS.md); the column is checked.
  ExpectIndexRejected(dir_,
                      std::string(kHeader) + "0\tA\t1\tprofile_0.trace\n"
                                             "5\tB\t2\tprofile_1.trace\n",
                      3, "expected id 1, got '5'");
  ExpectIndexRejected(dir_,
                      std::string(kHeader) + "00\tA\t1\tprofile_0.trace\n",
                      2, "expected id 0, got '00'");
  ExpectIndexRejected(dir_,
                      std::string(kHeader) + "x\tA\t1\tprofile_0.trace\n",
                      2, "expected id 0, got 'x'");
}

TEST_F(TraceDatabaseTest, IndexFilesArePlainNamesInTheDirectory) {
  // "../x" or an absolute path would read a file outside the database.
  const fs::path outside = dir_.parent_path() /
                           (dir_.filename().string() + "_outside.trace");
  {
    TraceDatabase db;
    db.Put(Profile("A", "1"));
    db.Save(dir_.string());
    fs::copy_file(dir_ / "profile_0.trace", outside,
                  fs::copy_options::overwrite_existing);
  }
  for (const std::string& file :
       {"../" + outside.filename().string(), outside.string(),
       std::string("sub/profile_0.trace"), std::string("."),
       std::string(".."), std::string()}) {
    ExpectIndexRejected(dir_, std::string(kHeader) + "0\tA\t1\t" + file + "\n",
                        2, "is not a plain file name");
  }
  fs::remove(outside);
}

TEST_F(TraceDatabaseTest, IndexErrorsNameTheIndexAndMissingFiles) {
  EXPECT_EQ(IndexError(dir_, std::string(kHeader) +
                                 "0\tA\t1\tprofile_0.trace\n"
                                 "1\tB\t2\tprofile_1.trace\n"),
            "");
  fs::remove(dir_ / "index.tsv");
  try {
    TraceDatabase::Load(dir_.string());
    FAIL() << "a database without an index loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find((dir_ / "index.tsv").string()),
              std::string::npos)
        << e.what();
  }
  std::ofstream(dir_ / "index.tsv")
      << kHeader << "0\tA\t1\tprofile_7.trace\n";
  try {
    TraceDatabase::Load(dir_.string());
    FAIL() << "an index naming a missing file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find((dir_ / "profile_7.trace").string()),
              std::string::npos)
        << e.what();
  }
}

TEST_F(TraceDatabaseTest, SavedNamesWithEmptyFieldsLoad) {
  // Save writes empty app and dataset columns as empty fields; the index
  // reader keeps them as fields.
  TraceDatabase db;
  db.Put(Profile("", ""));
  db.Put(Profile("Sort", ""));
  db.Save(dir_.string());
  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.Get(0), db.Get(0));
  EXPECT_EQ(loaded.Get(1), db.Get(1));
  EXPECT_EQ(TraceDatabase::ReadIndex(dir_.string()),
            (std::vector<std::string>{"profile_0.trace", "profile_1.trace"}));
}

TEST_F(TraceDatabaseTest, EmptyDatabaseRoundTrips) {
  TraceDatabase db;
  db.Save(dir_.string());
  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  EXPECT_TRUE(loaded.empty());
}

TEST_F(TraceDatabaseTest, RoundTripIsBitExactForAwkwardDoubles) {
  // Durations that have no short decimal form: the persisted profile must
  // come back bit-identical (Write serializes at max_digits10), which is
  // what makes fuzzer reproducers and golden comparisons meaningful.
  JobProfile p = Profile("Awkward", "doubles");
  p.map_durations = {1.0 / 3.0, 0.1, 5.9386992994495396};
  p.num_maps = 3;
  p.typical_shuffle_durations = {0.86704888618407205};
  p.reduce_durations = {2.5081061374475939};

  TraceDatabase db;
  db.Put(p);
  db.Save(dir_.string());
  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  EXPECT_EQ(loaded.Get(0), p);  // operator== compares doubles exactly
}

TEST_F(TraceDatabaseTest, ResaveIsByteIdentical) {
  // Save -> Load -> Save must reproduce the same bytes: the on-disk form
  // is a fixpoint, so re-persisting a database never churns diffs.
  TraceDatabase db;
  JobProfile p = Profile("Fixpoint", "bytes");
  p.map_durations = {1.0 / 3.0, 2.718281828459045};
  db.Put(p);
  db.Save(dir_.string());
  const auto read_file = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string first = read_file(dir_ / "profile_0.trace");

  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  const fs::path second_dir = dir_ / "resave";
  loaded.Save(second_dir.string());
  EXPECT_EQ(read_file(second_dir / "profile_0.trace"), first);
}

TEST_F(TraceDatabaseTest, MapOnlyJobRoundTrips) {
  JobProfile p;
  p.app_name = "MapOnly";
  p.dataset = "noreduce";
  p.num_maps = 4;
  p.num_reduces = 0;
  p.map_durations = {1.0, 2.0, 3.0, 4.0};

  TraceDatabase db;
  db.Put(p);
  db.Save(dir_.string());
  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Get(0), p);
  EXPECT_EQ(loaded.Get(0).num_reduces, 0);
  EXPECT_TRUE(loaded.Get(0).reduce_durations.empty());
}

TEST_F(TraceDatabaseTest, SingleTaskJobRoundTrips) {
  JobProfile p;
  p.app_name = "Tiny";
  p.dataset = "single";
  p.num_maps = 1;
  p.num_reduces = 1;
  p.map_durations = {0.25};
  p.first_shuffle_durations = {0.5};
  p.reduce_durations = {0.125};

  TraceDatabase db;
  db.Put(p);
  db.Save(dir_.string());
  const TraceDatabase loaded = TraceDatabase::Load(dir_.string());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Get(0), p);
}

}  // namespace
}  // namespace simmr::trace
