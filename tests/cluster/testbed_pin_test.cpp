// Byte-identity pins for the testbed emulator.
//
// Each test runs cluster::RunTestbed in one configuration and compares an
// FNV-1a digest of the serialized history log (and, for the faulted run,
// of the simmr.eventlog.v1 record) with a constant. The constants pin the
// emulator's exact output, so a refactor or speed-up of the testbed (its
// shuffle model, fetch bookkeeping or event loop) must leave every one of
// them unchanged. A change that means to alter the model re-pins them and
// says why in CHANGES.md.
//
// Node counts and gaps are chosen to keep the whole file fast while still
// covering the paths that matter: overlapping jobs, zero-byte and
// availability-starved flows, shared-bandwidth contention (2x2 slots per
// node), task failures, a generated fault plan and the EDF scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "fault/fault_gen.h"
#include "obs/event_log.h"
#include "simcore/rng.h"

namespace simmr::cluster {
namespace {

constexpr int kNodes = 16;

std::vector<SubmittedJob> Submit(const std::vector<JobSpec>& specs,
                                 double gap) {
  std::vector<SubmittedJob> jobs;
  double t = 0.0;
  for (const JobSpec& spec : specs) {
    jobs.push_back({spec, t, 0.0});
    t += gap;
  }
  return jobs;
}

TestbedOptions Options(int slots_per_node = 1) {
  TestbedOptions opts;
  opts.config.num_nodes = kNodes;
  opts.config.map_slots_per_node = slots_per_node;
  opts.config.reduce_slots_per_node = slots_per_node;
  return opts;
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string HistoryDigest(const HistoryLog& log) {
  std::ostringstream out;
  log.Write(out);
  return Hex(HashName(out.str()));
}

/// Peak number of reduce attempts in their fetch phase at once: launched
/// and not yet in merge+reduce. Valid for runs without failures or faults,
/// where every reduce launch opens a shuffle flow.
class FetchConcurrency final : public obs::SimObserver {
 public:
  void OnTaskLaunch(SimTime, std::int32_t, obs::TaskKind kind,
                    std::int32_t) override {
    if (kind != obs::TaskKind::kReduce) return;
    ++fetching_;
    if (fetching_ > peak_) peak_ = fetching_;
  }
  void OnTaskPhaseTransition(SimTime, std::int32_t, obs::TaskKind kind,
                             std::int32_t, const char*) override {
    if (kind == obs::TaskKind::kReduce) --fetching_;
  }
  int peak() const { return peak_; }

 private:
  int fetching_ = 0;
  int peak_ = 0;
};

TEST(TestbedPin, ValidationSuite) {
  const TestbedResult r =
      RunTestbed(Submit(ValidationSuite(), 0.0), Options());
  EXPECT_EQ(r.events_processed, 83727u);
  EXPECT_EQ(HistoryDigest(r.log), "4e493c82cb4bad97");
}

TEST(TestbedPin, FullSuite) {
  const TestbedResult r =
      RunTestbed(Submit(FullWorkloadSuite(), 0.0), Options());
  EXPECT_EQ(r.events_processed, 231471u);
  EXPECT_EQ(HistoryDigest(r.log), "6f8ad3c07a407359");
}

TEST(TestbedPin, SectionTwoExample) {
  const TestbedResult r =
      RunTestbed(Submit({SectionTwoExample()}, 0.0), Options());
  EXPECT_EQ(r.events_processed, 6249u);
  EXPECT_EQ(HistoryDigest(r.log), "81896fd369945540");
}

TEST(TestbedPin, ValidationUnderGeneratedFaultPlan) {
  const std::vector<JobSpec> specs = ValidationSuite();
  TestbedOptions opts = Options();
  fault::FaultGenOptions gen;
  gen.num_nodes = opts.config.num_nodes;
  gen.map_slots_per_node = opts.config.map_slots_per_node;
  gen.reduce_slots_per_node = opts.config.reduce_slots_per_node;
  gen.kill_jobs = static_cast<std::int32_t>(specs.size());
  const fault::FaultPlan plan = fault::GenerateFaultPlan(7, gen);
  ASSERT_FALSE(plan.actions.empty());
  opts.fault_plan = &plan;
  obs::EventLogObserver event_log;
  opts.observer = &event_log;
  const TestbedResult r = RunTestbed(Submit(specs, 0.0), opts);
  EXPECT_EQ(r.events_processed, 86457u);
  EXPECT_EQ(HistoryDigest(r.log), "7371ba305e01ae87");
  const std::string jsonl =
      event_log.ToJsonl({"testbed_pin_test", "fault-seed=7", "testbed"});
  EXPECT_EQ(Hex(HashName(jsonl)), "7c94d040b0f4269c");
}

TEST(TestbedPin, ValidationWithTaskFailures) {
  TestbedOptions opts = Options();
  opts.config.task_failure_prob = 0.05;
  opts.seed = 3;
  const TestbedResult r = RunTestbed(Submit(ValidationSuite(), 0.0), opts);
  EXPECT_EQ(r.events_processed, 85512u);
  EXPECT_EQ(HistoryDigest(r.log), "ada7f3b4f162765c");
}

TEST(TestbedPin, FullSuiteAtTwoByTwoSlots) {
  TestbedOptions opts = Options(/*slots_per_node=*/2);
  FetchConcurrency fetches;
  opts.observer = &fetches;
  const TestbedResult r = RunTestbed(Submit(FullWorkloadSuite(), 0.0), opts);
  // The shared egress must bind: more concurrent fetches than the
  // aggregate bandwidth can serve at the per-flow cap.
  const ClusterConfig& c = opts.config;
  const double aggregate = c.num_nodes * c.node_bandwidth_mbps;
  const double per_flow_cap =
      c.node_bandwidth_mbps * 0.5 * (1.0 + c.cross_rack_factor);
  EXPECT_GT(fetches.peak() * per_flow_cap, aggregate);
  EXPECT_EQ(r.events_processed, 235084u);
  EXPECT_EQ(HistoryDigest(r.log), "aaf596cd0a4ca4e6");
}

TEST(TestbedPin, EdfAtHundredSecondGap) {
  TestbedOptions opts = Options();
  opts.scheduler = SchedulerKind::kEdf;
  std::vector<SubmittedJob> jobs = Submit(ValidationSuite(), 100.0);
  // Later arrivals get earlier deadlines, so EDF reorders the queue.
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].deadline = 20000.0 - 1000.0 * static_cast<double>(i);
  const TestbedResult r = RunTestbed(jobs, opts);
  EXPECT_EQ(r.events_processed, 69802u);
  EXPECT_EQ(HistoryDigest(r.log), "8c29c59fde1a9768");
}

}  // namespace
}  // namespace simmr::cluster
