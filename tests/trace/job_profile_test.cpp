#include "trace/job_profile.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace simmr::trace {
namespace {

JobProfile SampleProfile() {
  JobProfile p;
  p.app_name = "WordCount";
  p.dataset = "wiki-40GB";
  p.num_maps = 3;
  p.num_reduces = 2;
  p.map_durations = {10.0, 11.5, 9.25};
  p.first_shuffle_durations = {4.5};
  p.typical_shuffle_durations = {6.0};
  p.reduce_durations = {2.0, 2.5};
  return p;
}

TEST(JobProfile, ValidProfilePassesValidation) {
  EXPECT_TRUE(SampleProfile().Validate().empty());
}

TEST(JobProfile, RejectsNonpositiveMapCount) {
  JobProfile p = SampleProfile();
  p.num_maps = 0;
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsEmptyMapPool) {
  JobProfile p = SampleProfile();
  p.map_durations.clear();
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsEmptyReducePoolWhenReducesExist) {
  JobProfile p = SampleProfile();
  p.reduce_durations.clear();
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsMissingShuffleSamples) {
  JobProfile p = SampleProfile();
  p.first_shuffle_durations.clear();
  p.typical_shuffle_durations.clear();
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsTooManyShuffleSamples) {
  JobProfile p = SampleProfile();
  p.typical_shuffle_durations = {1.0, 2.0, 3.0};  // 1 first + 3 typical > 2
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsNegativeDurations) {
  JobProfile p = SampleProfile();
  p.map_durations[1] = -1.0;
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, RejectsNonFiniteDurations) {
  JobProfile p = SampleProfile();
  p.reduce_durations[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(p.Validate().empty());
}

TEST(JobProfile, MapOnlyJobIsValid) {
  JobProfile p;
  p.num_maps = 2;
  p.num_reduces = 0;
  p.map_durations = {1.0, 2.0};
  EXPECT_TRUE(p.Validate().empty()) << p.Validate();
}

TEST(JobProfile, RoundTripPreservesEverything) {
  const JobProfile original = SampleProfile();
  std::stringstream buffer;
  original.Write(buffer);
  const JobProfile loaded = JobProfile::Read(buffer);
  EXPECT_EQ(loaded, original);
}

TEST(JobProfile, RoundTripWithEmptyNames) {
  JobProfile p = SampleProfile();
  p.app_name.clear();
  p.dataset.clear();
  std::stringstream buffer;
  p.Write(buffer);
  const JobProfile loaded = JobProfile::Read(buffer);
  EXPECT_EQ(loaded, p);
}

TEST(JobProfile, RoundTripKeepsWholeNames) {
  JobProfile p = SampleProfile();
  p.app_name = "Word Count";
  p.dataset = "wiki 40GB\v(x)";
  std::stringstream buffer;
  p.Write(buffer);
  EXPECT_EQ(JobProfile::Read(buffer), p);
}

TEST(JobProfile, ReadDropsWhitespaceAroundNames) {
  std::stringstream buffer(
      "SIMMR-PROFILE-V1\napp \t Word Count \r\ndataset wiki 40GB\r\n"
      "num_maps 1\nnum_reduces 0\nmap_durations 1 5\n"
      "first_shuffle_durations 0\ntypical_shuffle_durations 0\n"
      "reduce_durations 0\n");
  const JobProfile p = JobProfile::Read(buffer);
  EXPECT_EQ(p.app_name, "Word Count");
  EXPECT_EQ(p.dataset, "wiki 40GB");
}

TEST(JobProfile, WriteRejectsNamesThatWouldNotReadBack) {
  for (const char* name :
       {"a\tb", "a\nb", "a\rb", " lead", "trail ", "trail\f", "-"}) {
    SCOPED_TRACE(name);
    JobProfile app = SampleProfile();
    app.app_name = name;
    JobProfile dataset = SampleProfile();
    dataset.dataset = name;
    std::stringstream buffer;
    EXPECT_THROW(app.Write(buffer), std::invalid_argument);
    EXPECT_THROW(dataset.Write(buffer), std::invalid_argument);
    EXPECT_TRUE(buffer.str().empty());
  }
}

TEST(JobProfile, RoundTripWithEmptyArrays) {
  JobProfile p;
  p.num_maps = 1;
  p.num_reduces = 0;
  p.map_durations = {5.0};
  std::stringstream buffer;
  p.Write(buffer);
  const JobProfile loaded = JobProfile::Read(buffer);
  EXPECT_EQ(loaded, p);
}

TEST(JobProfile, ReadRejectsBadMagic) {
  std::stringstream buffer("GARBAGE\n");
  EXPECT_THROW(JobProfile::Read(buffer), std::runtime_error);
}

TEST(JobProfile, ReadRejectsTruncatedArray) {
  std::stringstream buffer(
      "SIMMR-PROFILE-V1\napp A\ndataset D\nnum_maps 2\nnum_reduces 0\n"
      "map_durations 3 1.0 2.0\n");  // claims 3, has 2
  EXPECT_THROW(JobProfile::Read(buffer), std::runtime_error);
}

/// A valid profile text with one line replaced.
std::string ProfileTextWith(const std::string& from, const std::string& to) {
  std::stringstream buffer;
  SampleProfile().Write(buffer);
  std::string text = buffer.str();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

/// The message JobProfile::Read throws for `text`, or "" when it loads.
std::string ReadError(const std::string& text) {
  std::stringstream buffer(text);
  try {
    JobProfile::Read(buffer);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JobProfile, ReadRejectsTrailingCharactersInNumbers) {
  EXPECT_NE(ReadError(ProfileTextWith("num_maps 3\n", "num_maps 263abc\n"))
                .find("bad num_maps '263abc'"),
            std::string::npos);
  // The same rule holds for array values, the last one included.
  EXPECT_NE(ReadError(ProfileTextWith("map_durations 3 10 11.5 9.25\n",
                                      "map_durations 3 10 11.5 9.25x\n"))
                .find("bad map_durations '9.25x'"),
            std::string::npos);
}

TEST(JobProfile, ReadRejectsTrailingTokens) {
  EXPECT_NE(
      ReadError(ProfileTextWith("num_reduces 2\n", "num_reduces 33 99\n"))
          .find("trailing token '99'"),
      std::string::npos);
  // The same rule holds on array lines.
  EXPECT_NE(ReadError(ProfileTextWith("reduce_durations 2 2 2.5\n",
                                      "reduce_durations 2 2 2.5 7\n"))
                .find("trailing token '7'"),
            std::string::npos);
}

TEST(JobProfile, ReadRejectsHugeArrayCountWithoutAllocating) {
  // Both counts would throw length_error or allocate ~8 GB if honored
  // before reading the values.
  for (const char* count : {"2305843009213693951", "1000000000"}) {
    SCOPED_TRACE(count);
    EXPECT_NE(ReadError(ProfileTextWith("map_durations 3 ",
                                        std::string("map_durations ") +
                                            count + " "))
                  .find("truncated array map_durations"),
              std::string::npos);
  }
}

TEST(JobProfile, ReadRejectsWrongFieldOrder) {
  std::stringstream buffer(
      "SIMMR-PROFILE-V1\ndataset D\napp A\nnum_maps 1\nnum_reduces 0\n");
  EXPECT_THROW(JobProfile::Read(buffer), std::runtime_error);
}

TEST(JobProfile, SummariesReflectPools) {
  const JobProfile p = SampleProfile();
  EXPECT_DOUBLE_EQ(p.MapSummary().max, 11.5);
  EXPECT_NEAR(p.MapSummary().mean, (10.0 + 11.5 + 9.25) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.FirstShuffleSummary().mean, 4.5);
  EXPECT_DOUBLE_EQ(p.TypicalShuffleSummary().mean, 6.0);
  EXPECT_DOUBLE_EQ(p.ReduceSummary().min, 2.0);
}

}  // namespace
}  // namespace simmr::trace
