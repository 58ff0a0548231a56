// Figure 6: simulation wall-clock time vs number of simulated jobs, SimMR
// vs Mumak, on a 1148-job trace (the paper's 6 months of cluster history,
// ~152 serial hours of work). Expected shape: both grow roughly linearly;
// SimMR is >= 2 orders of magnitude faster at full scale (paper: 1.5 s vs
// 680 s, >450x) because Mumak simulates every TaskTracker heartbeat.
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "mumak/mumak_sim.h"
#include "sched/fifo.h"
#include "trace/synthetic_tracegen.h"

namespace simmr {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace
}  // namespace simmr

int main() {
  using namespace simmr;
  using Clock = std::chrono::steady_clock;
  const std::uint64_t seed = bench::EnvOrDefault("SIMMR_BENCH_SEED", 42);
  const int kTotalJobs =
      static_cast<int>(bench::EnvOrDefault("SIMMR_BENCH_FIG6_JOBS", 1148));

  bench::PrintHeader(
      "Figure 6",
      "Wall-clock simulation time vs number of jobs (SimMR vs Mumak) on a\n"
      "1148-job trace replayed back-to-back. Expect >= 2 orders of\n"
      "magnitude between the simulators at full scale.");

  // The paper's 6-month cluster history: 1148 jobs totalling ~152 serial
  // hours (~8 task-minutes per job on average), compacted back-to-back
  // "without inactivity periods". We synthesize a matching mix: mostly
  // small jobs with a moderate tail, each arriving as the previous job's
  // work drains.
  Rng rng(seed);
  std::vector<trace::JobProfile> profiles;
  profiles.reserve(kTotalJobs);
  {
    const LogNormalDist map_dur(std::log(14.0), 0.5);     // ~15 s maps
    const LogNormalDist shuffle_dur(std::log(5.0), 0.4);  // ~5 s shuffles
    const LogNormalDist reduce_dur(std::log(8.0), 0.5);   // ~9 s reduces
    for (int i = 0; i < kTotalJobs; ++i) {
      trace::SyntheticJobSpec spec;
      spec.app_name = "history";
      // Job-size mix: 60% small (<=20 maps), 30% medium, 10% large.
      const double pick = rng.NextDouble();
      if (pick < 0.6) {
        spec.num_maps = 1 + static_cast<int>(rng.NextBounded(12));
        spec.num_reduces = 1 + static_cast<int>(rng.NextBounded(2));
      } else if (pick < 0.9) {
        spec.num_maps = 20 + static_cast<int>(rng.NextBounded(40));
        spec.num_reduces = 4 + static_cast<int>(rng.NextBounded(12));
      } else {
        spec.num_maps = 100 + static_cast<int>(rng.NextBounded(100));
        spec.num_reduces = 16 + static_cast<int>(rng.NextBounded(48));
      }
      spec.first_wave_size = std::min(spec.num_reduces, 64);
      spec.map_duration = std::make_shared<LogNormalDist>(map_dur);
      spec.first_shuffle_duration = std::make_shared<LogNormalDist>(shuffle_dur);
      spec.typical_shuffle_duration =
          std::make_shared<LogNormalDist>(shuffle_dur);
      spec.reduce_duration = std::make_shared<LogNormalDist>(reduce_dur);
      profiles.push_back(trace::SynthesizeProfile(spec, rng));
    }
  }

  // Back-to-back arrivals: the next job arrives when the previous one's
  // estimated full-cluster completion elapses (no inactivity, bounded
  // queue) — matching how the paper compacted its history.
  std::vector<SimTime> arrivals(profiles.size());
  trace::WorkloadTrace workload(profiles.size());
  double serial_hours = 0.0;
  SimTime clock = 0.0;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    arrivals[i] = clock;
    workload[i].profile = profiles[i];
    workload[i].arrival = clock;
    double map_work = 0.0, reduce_work = 0.0, shuffle_typ = 0.0;
    for (const double d : profiles[i].map_durations) map_work += d;
    for (const double d : profiles[i].reduce_durations) reduce_work += d;
    for (const double d : profiles[i].typical_shuffle_durations)
      shuffle_typ += d;
    serial_hours += (map_work + reduce_work + shuffle_typ) / 3600.0;
    const double est_completion =
        map_work / 64.0 + reduce_work / 64.0 + shuffle_typ / 64.0 + 20.0;
    clock += est_completion;
  }
  std::printf("trace: %zu jobs, %.0f serial hours of task work\n\n",
              profiles.size(), serial_hours);

  std::printf("%8s %14s %14s %12s %16s %16s\n", "jobs", "simmr_wall_s",
              "mumak_wall_s", "speedup", "simmr_events", "mumak_events");

  for (int n = kTotalJobs / 16; n <= kTotalJobs; n *= 2) {
    const int jobs = std::min(n, kTotalJobs);

    trace::WorkloadTrace prefix(workload.begin(), workload.begin() + jobs);
    sched::FifoPolicy fifo;
    const auto t0 = Clock::now();
    const auto sim = core::Replay(prefix, fifo, bench::PaperSimConfig());
    const double simmr_wall = Seconds(Clock::now() - t0);

    const auto rumen = mumak::RumenTrace::FromProfiles(
        {profiles.begin(), profiles.begin() + jobs},
        {arrivals.begin(), arrivals.begin() + jobs});
    mumak::MumakConfig mcfg;
    const auto t1 = Clock::now();
    const auto mres = mumak::RunMumak(rumen, mcfg);
    const double mumak_wall = Seconds(Clock::now() - t1);

    std::printf("%8d %14.4f %14.4f %11.0fx %16llu %16llu\n", jobs,
                simmr_wall, mumak_wall,
                simmr_wall > 0.0 ? mumak_wall / simmr_wall : 0.0,
                static_cast<unsigned long long>(sim.events_processed),
                static_cast<unsigned long long>(mres.events_processed));
    if (jobs == kTotalJobs) break;
  }
  std::printf(
      "\npaper reference: SimMR 1.5 s vs Mumak 680 s at 1148 jobs (>450x).\n");
  return 0;
}
