#include "trace/workload.h"

#include <algorithm>
#include <stdexcept>

#include "simcore/distributions.h"

namespace simmr::trace {

WorkloadTrace MakeWorkload(const std::vector<JobProfile>& pool,
                           const std::vector<double>& solo_completions,
                           const WorkloadParams& params, Rng& rng) {
  if (pool.size() != solo_completions.size())
    throw std::invalid_argument(
        "MakeWorkload: pool/solo_completions size mismatch");
  const std::vector<std::size_t> order =
      DrawJobOrder(pool.size(), params, rng);
  return AssembleWorkload(pool, solo_completions, order, params, rng);
}

std::vector<std::size_t> DrawJobOrder(std::size_t pool_size,
                                      const WorkloadParams& params, Rng& rng) {
  if (pool_size == 0) throw std::invalid_argument("MakeWorkload: empty pool");
  if (params.deadline_factor != 0.0 && params.deadline_factor < 1.0)
    throw std::invalid_argument("MakeWorkload: deadline_factor must be >= 1");
  if (params.mean_interarrival_s < 0.0)
    throw std::invalid_argument("MakeWorkload: negative inter-arrival mean");

  // Choose which pool entries run, in which order.
  std::vector<std::size_t> order;
  const std::size_t n = params.num_jobs > 0
                            ? static_cast<std::size_t>(params.num_jobs)
                            : pool_size;
  if (n <= pool_size) {
    order.resize(pool_size);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (params.permute) {
      // Fisher-Yates with our deterministic generator.
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        const std::size_t j = rng.NextBounded(i + 1);
        std::swap(order[i], order[j]);
      }
    }
    order.resize(n);
  } else {
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      order.push_back(rng.NextBounded(pool_size));
  }
  return order;
}

WorkloadTrace AssembleWorkload(const std::vector<JobProfile>& pool,
                               std::span<const double> solo_completions,
                               const std::vector<std::size_t>& order,
                               const WorkloadParams& params, Rng& rng) {
  if (!solo_completions.empty() && solo_completions.size() != pool.size())
    throw std::invalid_argument(
        "AssembleWorkload: pool/solo_completions size mismatch");
  const ExponentialDist gap(
      params.mean_interarrival_s > 0.0 ? 1.0 / params.mean_interarrival_s
                                       : 1e12);

  WorkloadTrace trace;
  trace.reserve(order.size());
  SimTime arrival = 0.0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && params.mean_interarrival_s > 0.0)
      arrival += gap.Sample(rng);
    TraceJob job;
    job.profile = pool[order[k]];
    job.arrival = arrival;
    if (!solo_completions.empty())
      job.solo_completion = solo_completions[order[k]];
    if (params.deadline_factor >= 1.0 && job.solo_completion > 0.0) {
      const double relative =
          rng.NextDouble(job.solo_completion,
                         params.deadline_factor * job.solo_completion);
      job.deadline = arrival + relative;
    }
    trace.push_back(std::move(job));
  }
  return trace;
}

}  // namespace simmr::trace
