#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace simmr::bench {

std::uint64_t EnvOrDefault(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || parsed == 0) {
    std::fprintf(stderr, "warning: ignoring bad %s='%s'\n", name, value);
    return fallback;
  }
  return parsed;
}

void PrintHeader(const std::string& exhibit, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("SimMR reproduction — %s\n", exhibit.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n\n");
}

void PrintSection(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

cluster::TestbedOptions PaperTestbed(std::uint64_t seed) {
  cluster::TestbedOptions opts;
  opts.config = cluster::ClusterConfig{};  // defaults model the paper's rig
  opts.seed = seed;
  return opts;
}

const ValidationRun& RunValidationSuiteOnce(std::uint64_t seed) {
  static std::unique_ptr<ValidationRun> cached;
  static std::uint64_t cached_seed = 0;
  if (!cached || cached_seed != seed) {
    auto run = std::make_unique<ValidationRun>();
    std::vector<cluster::SubmittedJob> jobs;
    double t = 0.0;
    for (const auto& spec : cluster::ValidationSuite()) {
      jobs.push_back({spec, t, 0.0});
      t += 10000.0;  // serialize: each job sees an empty cluster
    }
    const auto result = cluster::RunTestbed(jobs, PaperTestbed(seed));
    run->log = result.log;
    run->profiles = trace::BuildAllProfiles(run->log);
    cached = std::move(run);
    cached_seed = seed;
  }
  return *cached;
}

core::SimConfig PaperSimConfig() {
  core::SimConfig cfg;
  cfg.map_slots = 64;
  cfg.reduce_slots = 64;
  return cfg;
}

double ErrorPercent(double simulated, double actual) {
  return 100.0 * (simulated - actual) / actual;
}

}  // namespace simmr::bench
