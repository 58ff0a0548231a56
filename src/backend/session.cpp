#include "backend/session.h"

#include <atomic>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>

#include "backend/backends.h"
#include "core/simmr.h"
#include "prof/profiler.h"
#include "sched/capacity.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/maxedf.h"
#include "sched/minedf.h"
#include "trace/trace_database.h"

namespace simmr::backend {

std::unique_ptr<core::SchedulerPolicy> MakePolicy(const std::string& name,
                                                  int map_slots,
                                                  int reduce_slots) {
  if (name == "fifo") return std::make_unique<sched::FifoPolicy>();
  if (name == "maxedf") return std::make_unique<sched::MaxEdfPolicy>();
  if (name == "minedf")
    return std::make_unique<sched::MinEdfPolicy>(map_slots, reduce_slots);
  if (name == "fair") return std::make_unique<sched::FairPolicy>();
  if (name == "capacity")
    return std::make_unique<sched::CapacityPolicy>(
        map_slots, reduce_slots,
        std::vector<sched::QueueConfig>{{"default", 1.0}});
  throw std::invalid_argument("unknown policy '" + name + "'");
}

/// The pool, its T_J and one once-guard per slot. A slot's value is
/// written once, under its mutex, before its flag is set (release); a
/// reader that sees the flag (acquire) sees the value. A fill that throws
/// leaves the flag unset, so the next replay to sample the slot retries.
struct SimSession::Store {
  struct Slot {
    std::mutex mu;
    std::atomic<bool> parsed{false};
    std::atomic<bool> measured{false};
  };

  std::shared_ptr<const std::vector<trace::JobProfile>> pool;
  std::shared_ptr<const std::vector<double>> solos;  // empty: no T_J
  // Where a database session's fills go: `pool` and `solos` themselves.
  // Null for a pool given in memory, whose slots come filled.
  std::vector<trace::JobProfile>* pool_fill = nullptr;
  std::vector<double>* solo_fill = nullptr;
  std::string db_dir;
  std::vector<std::string> files;  // profile file per slot, from the index
  core::SimConfig solo_config;
  std::unique_ptr<Slot[]> slots;

  void FillProfile(std::size_t i) {
    Slot& slot = slots[i];
    if (slot.parsed.load(std::memory_order_acquire)) return;
    const std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.parsed.load(std::memory_order_relaxed)) return;
    (*pool_fill)[i] = trace::TraceDatabase::ReadProfile(db_dir, files[i]);
    slot.parsed.store(true, std::memory_order_release);
  }

  void FillSolo(std::size_t i) {
    Slot& slot = slots[i];
    if (slot.measured.load(std::memory_order_acquire)) return;
    FillProfile(i);
    const std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.measured.load(std::memory_order_relaxed)) return;
    (*solo_fill)[i] = core::MeasureSoloCompletion((*pool)[i], solo_config);
    slot.measured.store(true, std::memory_order_release);
  }
};

SimSession::SimSession(std::shared_ptr<Store> store)
    : store_(std::move(store)) {}

SimSession::SimSession(
    std::shared_ptr<const std::vector<trace::JobProfile>> pool,
    std::shared_ptr<const std::vector<double>> solo_completions)
    : store_(std::make_shared<Store>()) {
  if (pool == nullptr || pool->empty())
    throw std::invalid_argument("SimSession: empty profile pool");
  if (solo_completions == nullptr)
    solo_completions = std::make_shared<const std::vector<double>>();
  if (!solo_completions->empty() && solo_completions->size() != pool->size())
    throw std::invalid_argument(
        "SimSession: solo completions misaligned with the pool");
  Store& store = *store_;
  store.slots = std::make_unique<Store::Slot[]>(pool->size());
  for (std::size_t i = 0; i < pool->size(); ++i) {
    store.slots[i].parsed.store(true, std::memory_order_relaxed);
    store.slots[i].measured.store(!solo_completions->empty(),
                                  std::memory_order_relaxed);
  }
  store.pool = std::move(pool);
  store.solos = std::move(solo_completions);
}

SimSession SimSession::FromDatabase(const std::string& db_dir,
                                    const core::SimConfig& solo_config) {
  std::vector<std::string> files = trace::TraceDatabase::ReadIndex(db_dir);
  if (files.empty())
    throw std::invalid_argument("SimSession: trace database '" + db_dir +
                                "' is empty");
  auto store = std::make_shared<Store>();
  auto pool = std::make_shared<std::vector<trace::JobProfile>>(files.size());
  auto solos = std::make_shared<std::vector<double>>(files.size());
  store->pool_fill = pool.get();
  store->solo_fill = solos.get();
  store->pool = std::move(pool);
  store->solos = std::move(solos);
  store->slots = std::make_unique<Store::Slot[]>(files.size());
  store->db_dir = db_dir;
  store->files = std::move(files);
  // T_J is measured after this call returns: keep neither borrowed
  // pointer (solo replays run unobserved and fault-free).
  store->solo_config = solo_config;
  store->solo_config.observer = nullptr;
  store->solo_config.fault_plan = nullptr;
  return SimSession(std::move(store));
}

const std::vector<trace::JobProfile>& SimSession::pool() const {
  for (std::size_t i = 0; i < store_->pool->size(); ++i)
    store_->FillProfile(i);
  return *store_->pool;
}

const std::vector<double>& SimSession::solo_completions() const {
  if (!store_->solos->empty())
    for (std::size_t i = 0; i < store_->solos->size(); ++i)
      store_->FillSolo(i);
  return *store_->solos;
}

trace::WorkloadTrace SimSession::Workload(const ReplaySpec& spec) const {
  Store& store = *store_;
  const bool deadlines = spec.deadline_factor > 0.0;
  if (deadlines && store.solos->empty())
    throw std::invalid_argument(
        "SimSession::Replay: deadline_factor needs solo completions");

  trace::WorkloadParams params;
  params.num_jobs = spec.num_jobs;
  params.mean_interarrival_s =
      spec.mean_interarrival_s * spec.arrival_scale;
  params.deadline_factor = spec.deadline_factor;
  Rng rng(spec.seed);
  const std::vector<std::size_t> order =
      trace::DrawJobOrder(store.pool->size(), params, rng);
  {
    const prof::ScopedTimer timer("backend/session_fill");
    for (const std::size_t i : order) {
      if (deadlines)
        store.FillSolo(i);
      else
        store.FillProfile(i);
    }
  }
  return trace::AssembleWorkload(
      *store.pool,
      deadlines ? std::span<const double>(*store.solos)
                : std::span<const double>(),
      order, params, rng);
}

RunResult SimSession::Replay(const ReplaySpec& spec) const {
  // An unknown policy name fails before any profile is read.
  const auto policy =
      MakePolicy(spec.policy, spec.map_slots, spec.reduce_slots);
  trace::WorkloadTrace workload = Workload(spec);

  core::SimConfig config;
  config.map_slots = spec.map_slots;
  config.reduce_slots = spec.reduce_slots;
  config.min_map_percent_completed = spec.slowstart;
  config.record_tasks = spec.record_tasks;
  config.observer = spec.observer;
  config.fault_plan = spec.fault_plan;
  return SimmrBackend(config, *policy, std::move(workload)).Run();
}

}  // namespace simmr::backend
