#include "trace/synthetic_tracegen.h"

#include <algorithm>
#include <stdexcept>

namespace simmr::trace {

JobProfile SynthesizeProfile(const SyntheticJobSpec& spec, Rng& rng) {
  if (spec.num_maps <= 0)
    throw std::invalid_argument("SynthesizeProfile: num_maps must be > 0");
  if (spec.num_reduces < 0)
    throw std::invalid_argument("SynthesizeProfile: num_reduces must be >= 0");
  if (!spec.map_duration)
    throw std::invalid_argument("SynthesizeProfile: map_duration missing");
  if (spec.num_reduces > 0 &&
      (!spec.typical_shuffle_duration || !spec.reduce_duration))
    throw std::invalid_argument(
        "SynthesizeProfile: shuffle/reduce distributions missing");

  const auto draw_nonneg = [&rng](const Distribution& dist) {
    return std::max(0.0, dist.Sample(rng));
  };

  JobProfile p;
  p.app_name = spec.app_name;
  p.dataset = spec.dataset;
  p.num_maps = spec.num_maps;
  p.num_reduces = spec.num_reduces;
  p.map_durations.reserve(spec.num_maps);
  for (int i = 0; i < spec.num_maps; ++i)
    p.map_durations.push_back(draw_nonneg(*spec.map_duration));

  const int first_wave = std::clamp(spec.first_wave_size, 0, spec.num_reduces);
  // Null for a map-only spec, which draws no shuffle sample.
  const Distribution* first_dist = spec.first_shuffle_duration
                                       ? spec.first_shuffle_duration.get()
                                       : spec.typical_shuffle_duration.get();
  for (int i = 0; i < first_wave; ++i)
    p.first_shuffle_durations.push_back(draw_nonneg(*first_dist));
  for (int i = first_wave; i < spec.num_reduces; ++i)
    p.typical_shuffle_durations.push_back(
        draw_nonneg(*spec.typical_shuffle_duration));
  for (int i = 0; i < spec.num_reduces; ++i)
    p.reduce_durations.push_back(draw_nonneg(*spec.reduce_duration));
  return p;
}

const std::vector<FacebookJobSizeBucket>& FacebookJobSizeBuckets() {
  // Approximation of Zaharia et al. Table 3 ("Delay Scheduling",
  // EuroSys'10): job-size distribution at Facebook, October 2009. The
  // original bins map counts only; reduce ranges follow the paper's
  // observation that reduce counts track map counts sublinearly.
  static const std::vector<FacebookJobSizeBucket> kBuckets = {
      {0.38, 1, 2, 1, 1},        // tiny ad-hoc queries
      {0.16, 3, 20, 1, 2},
      {0.14, 21, 60, 1, 10},
      {0.12, 61, 150, 10, 30},
      {0.10, 151, 300, 30, 60},
      {0.06, 301, 800, 60, 120},
      {0.04, 801, 2400, 120, 384},
  };
  return kBuckets;
}

JobProfile SynthesizeFacebookJob(const FacebookWorkloadModel& model, Rng& rng) {
  const auto& buckets = FacebookJobSizeBuckets();
  double pick = rng.NextDouble();
  const FacebookJobSizeBucket* bucket = &buckets.back();
  for (const auto& b : buckets) {
    if (pick < b.probability) {
      bucket = &b;
      break;
    }
    pick -= b.probability;
  }
  const int num_maps = std::min<int>(
      model.max_maps,
      bucket->maps_lo +
          static_cast<int>(rng.NextBounded(
              static_cast<std::uint64_t>(bucket->maps_hi - bucket->maps_lo) +
              1)));
  const int num_reduces = std::min<int>(
      model.max_reduces,
      bucket->reduces_lo +
          static_cast<int>(rng.NextBounded(
              static_cast<std::uint64_t>(bucket->reduces_hi -
                                         bucket->reduces_lo) +
              1)));

  const LogNormalDist map_ms(model.map_mu, model.map_sigma);
  const LogNormalDist reduce_ms(model.reduce_mu, model.reduce_sigma);

  JobProfile p;
  p.app_name = "facebook-synthetic";
  p.num_maps = num_maps;
  p.num_reduces = num_reduces;
  p.map_durations.reserve(num_maps);
  for (int i = 0; i < num_maps; ++i)
    p.map_durations.push_back(map_ms.Sample(rng) / 1000.0);
  for (int i = 0; i < num_reduces; ++i) {
    // The fitted Facebook reduce duration covers shuffle + reduce; split it.
    const double total_s = reduce_ms.Sample(rng) / 1000.0;
    const double shuffle_s = total_s * model.shuffle_fraction;
    p.typical_shuffle_durations.push_back(shuffle_s);
    p.reduce_durations.push_back(total_s - shuffle_s);
  }
  return p;
}

std::vector<JobProfile> SynthesizeFacebookWorkload(
    const FacebookWorkloadModel& model, int num_jobs, Rng& rng) {
  std::vector<JobProfile> jobs;
  jobs.reserve(num_jobs);
  for (int i = 0; i < num_jobs; ++i)
    jobs.push_back(SynthesizeFacebookJob(model, rng));
  return jobs;
}

}  // namespace simmr::trace
