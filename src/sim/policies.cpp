#include "sim/policies.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/wats_allocation.hpp"

namespace eewa::sim {

namespace {

/// The batch's already-released tasks in a shuffled submission order, so
/// deque positions are not correlated with task size (in a real run
/// spawn order and stealing randomize this; a fixed generator order
/// would bias LIFO pops systematically). The list lives in per-thread
/// storage, valid until the next call on this thread.
const std::vector<TaskId>& shuffled_released(Machine& m,
                                             const trace::Batch& batch) {
  thread_local std::vector<TaskId> order;
  order.clear();
  for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
    if (batch.tasks[i].release_s <= 0.0) order.push_back(i);
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[m.rng().bounded(i)]);
  }
  return order;
}

}  // namespace

void distribute_round_robin(Machine& m, const trace::Batch& batch) {
  const auto& order = shuffled_released(m, batch);
  for (std::size_t i = 0; i < order.size(); ++i) {
    m.push_task(i % m.cores(), 0, order[i]);
  }
}

/// Mid-batch spawns land on a random core's group-0 pool (in a real
/// runtime the spawning core pushes locally; a random owner models the
/// spawner being an arbitrary running worker).
void place_random(Machine& m, TaskId id, std::size_t group = 0) {
  m.push_task(m.rng().bounded(m.cores()), group, id);
}

// ------------------------------------------------------------- Sharing ----

void SharingPolicy::batch_start(Machine& m, const trace::Batch& batch,
                                std::size_t /*batch_index*/) {
  for (std::size_t c = 0; c < m.cores(); ++c) m.request_rung(c, 0);
  m.configure_pools(1);
  // One central FIFO queue, held on core 0.
  for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
    if (batch.tasks[i].release_s <= 0.0) m.push_task(0, 0, i);
  }
}

void SharingPolicy::place_task(Machine& m, TaskId id) {
  m.push_task(0, 0, id);
}

std::optional<TaskId> SharingPolicy::acquire(Machine& m, std::size_t core) {
  // Every dequeue serializes on the shared lock; the coarse contention
  // model scales the critical section with the number of potential
  // contenders (this is exactly the scalability hazard the paper's §I
  // cites when motivating distributed task pools).
  m.add_acquire_cost(lock_base_s_ *
                     (1.0 + static_cast<double>(m.cores()) / 8.0));
  (void)core;
  return m.take_front(0, 0);
}

void SharingPolicy::task_done(Machine&, std::size_t,
                              const trace::TraceTask&, double) {}

double SharingPolicy::batch_end(Machine&, double) { return 0.0; }

// ---------------------------------------------------------------- Cilk ----

CilkPolicy::CilkPolicy(std::vector<std::size_t> fixed_rungs)
    : fixed_rungs_(std::move(fixed_rungs)) {}

void CilkPolicy::batch_start(Machine& m, const trace::Batch& batch,
                             std::size_t /*batch_index*/) {
  if (!fixed_rungs_.empty() && fixed_rungs_.size() != m.cores()) {
    throw std::invalid_argument("CilkPolicy: fixed_rungs/core mismatch");
  }
  for (std::size_t c = 0; c < m.cores(); ++c) {
    m.request_rung(c, fixed_rungs_.empty() ? 0 : fixed_rungs_[c]);
  }
  m.configure_pools(1);
  distribute_round_robin(m, batch);
}

void CilkPolicy::place_task(Machine& m, TaskId id) {
  place_random(m, id);
}

std::optional<TaskId> CilkPolicy::acquire(Machine& m, std::size_t core) {
  if (auto id = m.pop_local(core, 0)) return id;
  return m.steal(core, 0);
}

void CilkPolicy::task_done(Machine&, std::size_t, const trace::TraceTask&,
                           double) {}

double CilkPolicy::batch_end(Machine&, double) { return 0.0; }

// -------------------------------------------------------------- Cilk-D ----

void CilkDPolicy::batch_start(Machine& m, const trace::Batch& batch,
                              std::size_t /*batch_index*/) {
  // Restore every core that parked itself at the bottom last batch.
  for (std::size_t c = 0; c < m.cores(); ++c) m.request_rung(c, 0);
  m.configure_pools(1);
  distribute_round_robin(m, batch);
}

void CilkDPolicy::place_task(Machine& m, TaskId id) {
  place_random(m, id);
}

std::optional<TaskId> CilkDPolicy::acquire(Machine& m, std::size_t core) {
  auto got = m.pop_local(core, 0);
  if (!got) got = m.steal(core, 0);
  if (got) {
    // A core that parked itself mid-batch ramps back up on new work.
    if (m.rung(core) != 0) m.request_rung(core, 0);
    return got;
  }
  // Nothing anywhere: self-scale to the lowest frequency until more
  // work appears or the barrier (the paper's "Cilk-D" baseline). The
  // bottom rung is the core's own ladder's (clusters may differ).
  m.request_rung(core, m.core_ladder_size(core) - 1);
  return std::nullopt;
}

void CilkDPolicy::task_done(Machine&, std::size_t, const trace::TraceTask&,
                            double) {}

double CilkDPolicy::batch_end(Machine&, double) { return 0.0; }

// ------------------------------------------------------------ Ondemand ----

void OndemandPolicy::batch_start(Machine& m, const trace::Batch& batch,
                                 std::size_t /*batch_index*/) {
  for (std::size_t c = 0; c < m.cores(); ++c) m.request_rung(c, 0);
  m.configure_pools(1);
  distribute_round_robin(m, batch);
}

void OndemandPolicy::place_task(Machine& m, TaskId id) {
  m.push_task(m.rng().bounded(m.cores()), 0, id);
}

std::optional<TaskId> OndemandPolicy::acquire(Machine& m,
                                              std::size_t core) {
  auto got = m.pop_local(core, 0);
  if (!got) got = m.steal(core, 0);
  if (got) {
    if (m.rung(core) != 0) m.request_rung(core, 0);  // jump to max
    return got;
  }
  // Step one rung down per sampling period (gradual,
  // utilization-driven), re-evaluating at the governor's sampling rate.
  const std::size_t rung = m.rung(core);
  if (rung + 1 < m.core_ladder_size(core)) {
    m.request_rung(core, rung + 1);
    m.request_repoll(10e-3);  // ondemand-style sampling interval
  }
  return std::nullopt;
}

void OndemandPolicy::task_done(Machine&, std::size_t,
                               const trace::TraceTask&, double) {}

double OndemandPolicy::batch_end(Machine&, double) { return 0.0; }

// ---------------------------------------------------------------- WATS ----

WatsPolicy::WatsPolicy(std::vector<std::size_t> core_rungs,
                       std::vector<std::string> class_names)
    : core_rungs_(std::move(core_rungs)),
      class_names_(std::move(class_names)) {}

void WatsPolicy::build_groups(const Machine& m) {
  if (core_rungs_.size() != m.cores()) {
    throw std::invalid_argument("WatsPolicy: core_rungs/core mismatch");
  }
  // Groups are keyed by rung — or, on typed machines, by the topology's
  // flattened (type, rung) row, so two clusters at the same rung index
  // stay separate groups and the fastest-first order is by true
  // effective speed rather than raw rung index.
  const core::MachineTopology* topo = m.topology();
  std::map<std::size_t, std::vector<std::size_t>> by_key;
  for (std::size_t c = 0; c < core_rungs_.size(); ++c) {
    const std::size_t key =
        topo != nullptr
            ? topo->row_of(topo->type_of_core(c), core_rungs_[c])
            : core_rungs_[c];
    by_key[key].push_back(c);
  }
  core_group_.assign(m.cores(), 0);
  for (auto& [key, cores] : by_key) {
    for (std::size_t c : cores) core_group_[c] = group_rung_.size();
    group_rung_.push_back(topo != nullptr ? topo->row_rung(key) : key);
    group_type_.push_back(topo != nullptr ? topo->row_type(key) : 0);
    group_cores_.push_back(std::move(cores));
  }
  // Preference lists over the u fixed groups (WATS's rob-the-weaker-first
  // lists never change because the frequencies never change).
  std::vector<dvfs::CGroup> groups;
  for (std::size_t g = 0; g < group_rung_.size(); ++g) {
    groups.push_back(dvfs::CGroup{.freq_index = group_rung_[g],
                                  .core_type = group_type_[g],
                                  .cores = group_cores_[g]});
  }
  prefs_ = core::PreferenceTable(
      dvfs::CGroupLayout(std::move(groups), {}, m.cores()));
  for (const auto& name : class_names_) {
    class_ids_.push_back(registry_.intern(name));
  }
  class_to_group_.assign(registry_.class_count(), 0);
  groups_built_ = true;
}

void WatsPolicy::batch_start(Machine& m, const trace::Batch& batch,
                             std::size_t batch_index) {
  if (!groups_built_) build_groups(m);
  for (std::size_t c = 0; c < m.cores(); ++c) {
    m.request_rung(c, core_rungs_[c]);
  }
  registry_.begin_iteration();
  m.configure_pools(group_cores_.size());

  const auto& order = shuffled_released(m, batch);
  rr_.assign(group_cores_.size(), 0);
  first_batch_ = batch_index == 0;
  if (first_batch_) {
    // No workload knowledge yet: spread over all cores, own-group pools.
    std::size_t next = 0;
    for (const TaskId id : order) {
      const std::size_t core = next++ % m.cores();
      m.push_task(core, core_group_[core], id);
    }
    return;
  }
  // Allocate classes to groups (computed at the previous batch_end),
  // round-robin within the group's cores.
  for (const TaskId id : order) place_task(m, id);
}

void WatsPolicy::place_task(Machine& m, TaskId id) {
  if (first_batch_) {
    const std::size_t core = m.rng().bounded(m.cores());
    m.push_task(core, core_group_[core], id);
    return;
  }
  std::size_t g = 0;
  const std::size_t cid = class_ids_.at(m.task(id).class_id);
  if (cid < class_to_group_.size()) g = class_to_group_[cid];
  const auto& cores = group_cores_[g];
  m.push_task(cores[rr_[g]++ % cores.size()], g, id);
}

std::optional<TaskId> WatsPolicy::acquire(Machine& m, std::size_t core) {
  const auto& order = prefs_.for_group(core_group_[core]);
  for (std::size_t g : order) {
    if (auto id = m.pop_local(core, g)) return id;
    if (m.group_task_count(g) > 0) {
      if (auto id = m.steal(core, g)) return id;
    }
  }
  return std::nullopt;
}

void WatsPolicy::task_done(Machine& m, std::size_t core,
                           const trace::TraceTask& task, double exec_s) {
  // Eq. 1 normalization against the machine's fastest row. WATS's model
  // stays CPU-bound (no memory-stall correction — that is EEWA's
  // memory-aware extension); on typed machines the executing core's own
  // (type, rung) slowdown keeps workloads recorded on different
  // clusters comparable. The homogeneous expression is kept verbatim.
  const double w =
      m.topology() != nullptr
          ? exec_s / m.core_slowdown(core, m.rung(core))
          : core::normalized_workload(exec_s, m.rung(core), m.ladder());
  registry_.record(class_ids_.at(task.class_id), w);
}

double WatsPolicy::batch_end(Machine& m, double /*makespan_s*/) {
  // Rank classes by mean workload and pack them into groups fastest
  // first, proportionally to each group's computational capacity.
  const core::MachineTopology* topo = m.topology();
  std::vector<double> capacity(group_cores_.size(), 0.0);
  for (std::size_t g = 0; g < group_cores_.size(); ++g) {
    if (topo != nullptr) {
      // Typed capacity: each member core contributes its own cluster's
      // relative speed at the group's rung.
      for (std::size_t c : group_cores_[g]) {
        capacity[g] += 1.0 / m.core_slowdown(c, group_rung_[g]);
      }
    } else {
      capacity[g] = static_cast<double>(group_cores_[g].size()) *
                    m.ladder().relative_speed(group_rung_[g]);
    }
  }
  class_to_group_ = core::allocate_classes_proportional(
      registry_.iteration_profile(), capacity, registry_.class_count());
  return 0.0;
}

// ---------------------------------------------------------------- EEWA ----

std::vector<std::size_t> RungHistory::operator[](std::size_t b) const {
  if (b >= size()) {
    throw std::out_of_range("RungHistory: batch out of range");
  }
  const auto first = rungs_.begin() + static_cast<std::ptrdiff_t>(b * width_);
  return std::vector<std::size_t>(first,
                                  first + static_cast<std::ptrdiff_t>(width_));
}

void RungHistory::add_row(std::size_t cores) {
  if (width_ == 0) width_ = cores;
  if (cores != width_) {
    throw std::invalid_argument("RungHistory: row width changed");
  }
  rungs_.resize(rungs_.size() + width_, 0);
}

void RungHistory::set(std::size_t c, std::size_t rung) {
  if (c >= width_ || rungs_.empty() || rung > 0xFFFF) {
    throw std::out_of_range("RungHistory: core or rung out of range");
  }
  rungs_[rungs_.size() - width_ + c] = static_cast<std::uint16_t>(rung);
}

EewaPolicy::EewaPolicy(std::vector<std::string> class_names,
                       core::ControllerOptions options)
    : class_names_(std::move(class_names)), options_(options) {}

void EewaPolicy::batch_start(Machine& m, const trace::Batch& batch,
                             std::size_t /*batch_index*/) {
  if (!ctrl_) {
    // A typed machine hands its topology to the planner: the controller
    // then builds per-core-type CC columns and carves typed plans.
    if (m.topology() != nullptr && options_.adjuster.topology == nullptr) {
      options_.adjuster.topology = m.options().topology;
    }
    ctrl_ = std::make_unique<core::EewaController>(m.ladder(), m.cores(),
                                                   options_);
    for (const auto& name : class_names_) {
      class_ids_.push_back(ctrl_->class_id(name));
    }
  }
  ctrl_->begin_batch();

  // Fault-tolerant actuation: retries, readback, and — when a core
  // cannot reach its assigned rung — plan reconciliation, all through
  // the same supervisor the real runtime uses. After this call plan()
  // describes the machine as it actually is.
  MachineDvfsBackend backend(m);
  ctrl_->apply_supervised(backend);

  const core::FrequencyPlan& plan = ctrl_->plan();
  const dvfs::CGroupLayout& layout = plan.layout;
  const std::size_t u = layout.group_count();
  m.configure_pools(u);

  core_group_.assign(m.cores(), 0);
  for (std::size_t g = 0; g < u; ++g) {
    for (std::size_t c : layout.group(g).cores) {
      if (c < m.cores()) core_group_[c] = g;
    }
  }
  applied_rungs_.add_row(m.cores());
  for (std::size_t c = 0; c < m.cores(); ++c) applied_rungs_.set(c, m.rung(c));
  planned_rungs_.add_row(m.cores());
  for (std::size_t g = 0; g < u; ++g) {
    for (std::size_t c : layout.group(g).cores) {
      if (c < m.cores()) planned_rungs_.set(c, layout.group(g).freq_index);
    }
  }

  // Allocate each released task to its class's c-group, round-robin
  // within the group's cores (in shuffled order, so queue position does
  // not correlate with generator order); unknown classes go to the
  // fastest group. Mid-batch spawns flow through place_task.
  // One cursor per possible group (every group holds a core), so the
  // cursors never reallocate whatever the plan's group count.
  rr_.assign(m.cores(), 0);
  for (const TaskId id : shuffled_released(m, batch)) place_task(m, id);
}

void EewaPolicy::place_task(Machine& m, TaskId id) {
  const std::size_t cid = class_ids_.at(m.task(id).class_id);
  const std::size_t g = ctrl_->group_of_class(cid);
  const auto& cores = ctrl_->plan().layout.group(g).cores;
  std::size_t& next = rr_[g];  // round-robin over the group's cores
  const std::size_t core = cores[next];
  if (++next == cores.size()) next = 0;
  m.push_task(core, g, id);
}

std::optional<TaskId> EewaPolicy::acquire(Machine& m, std::size_t core) {
  // Feasibility-filtered stealing: a core below F0 refuses tasks whose
  // class-mean execution time at its frequency would overrun the ideal
  // iteration time T — the same critical-path rule the planner applies.
  // Without it, a parked core that grabs a coarse task near the batch
  // start can stretch the makespan by the full slowdown factor.
  const double T = ctrl_->ideal_time_s();
  auto feasible_here = [&](TaskId id) {
    const std::size_t rung = m.rung(core);
    // The fastest c-group must take anything, or tasks could strand. A
    // core running at the machine's full speed (slowdown 1 — on typed
    // machines only the fastest cluster's top rung) likewise.
    if (m.core_slowdown(core, rung) <= 1.0 || core_group_[core] == 0 ||
        T <= 0.0) {
      return true;
    }
    const std::size_t cid = class_ids_.at(m.task(id).class_id);
    const double mean_w = ctrl_->registry().mean_workload(cid);
    const double alpha = ctrl_->registry().mean_alpha(cid);
    // core_slowdown is this core's own (type, rung) slowdown on typed
    // machines and exactly ladder().slowdown(rung) otherwise.
    const double eff = alpha + (1.0 - alpha) * m.core_slowdown(core, rung);
    return mean_w * eff <= T;
  };
  const auto& order = ctrl_->preferences().for_group(core_group_[core]);
  for (std::size_t g : order) {
    if (m.group_task_count(g) == 0) continue;  // nothing to pop or steal
    if (auto id = m.pop_local(core, g)) {
      if (feasible_here(*id)) return id;
      m.push_task(core, g, *id);  // leave it for a faster thief
      continue;
    }
    if (auto id = m.steal(core, g)) {
      if (feasible_here(*id)) return id;
      m.push_task(core, g, *id);
    }
  }
  return std::nullopt;
}

void EewaPolicy::task_done(Machine& m, std::size_t core,
                           const trace::TraceTask& task, double exec_s) {
  ctrl_->record_task(class_ids_.at(task.class_id), exec_s, m.rung(core),
                     task.cmi, task.mem_alpha, m.core_type_of(core));
}

double EewaPolicy::batch_end(Machine& m, double makespan_s) {
  ctrl_->end_batch(makespan_s);
  const double us = ctrl_->adjust_overhead_us() - overhead_us_seen_;
  overhead_us_seen_ = ctrl_->adjust_overhead_us();
  if (m.options().fixed_adjuster_overhead_s >= 0.0) {
    return m.options().fixed_adjuster_overhead_s;
  }
  return us * 1e-6 * m.options().adjuster_overhead_scale;
}

std::vector<std::size_t> EewaPolicy::modal_rungs(const Machine& m) const {
  if (applied_rungs_.empty()) {
    return std::vector<std::size_t>(m.cores(), 0);
  }
  // The most frequent configuration, ignoring the F0 measurement batch
  // when anything else exists.
  std::map<std::vector<std::size_t>, std::size_t> freq;
  for (std::size_t b = 1; b < applied_rungs_.size(); ++b) {
    ++freq[applied_rungs_[b]];
  }
  if (freq.empty()) return applied_rungs_[0];
  const auto best = std::max_element(
      freq.begin(), freq.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

std::unique_ptr<Policy> make_policy(
    const std::string& name, const std::vector<std::string>& class_names) {
  if (name == "cilk") return std::make_unique<CilkPolicy>();
  if (name == "cilk-d") return std::make_unique<CilkDPolicy>();
  if (name == "sharing") return std::make_unique<SharingPolicy>();
  if (name == "ondemand") return std::make_unique<OndemandPolicy>();
  if (name == "eewa") return std::make_unique<EewaPolicy>(class_names);
  throw std::invalid_argument("make_policy: unknown policy " + name);
}

namespace {

/// place() answers from the index begin_epoch() built over these views.
void require_index(std::size_t indexed,
                   const std::vector<MachineView>& views) {
  if (indexed != views.size() || views.empty()) {
    throw std::logic_error(
        "FleetPlacement::place: call begin_epoch() over these views first");
  }
}

}  // namespace

std::size_t RoundRobinPlacement::place(double,
                                       const std::vector<MachineView>& views) {
  const std::size_t pick = cursor_ % views.size();
  cursor_ = (cursor_ + 1) % views.size();
  return pick;
}

void LeastLoadedPlacement::begin_epoch(
    const std::vector<MachineView>& views) {
  cost_.reset(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) update(i, views);
}

void LeastLoadedPlacement::update(std::size_t i,
                                  const std::vector<MachineView>& views) {
  cost_.update(i, views[i].backlog_s + views[i].wake_latency_s);
}

std::size_t LeastLoadedPlacement::place(
    double, const std::vector<MachineView>& views) {
  require_index(cost_.size(), views);
  return cost_.winner();
}

void PackAndParkPlacement::begin_epoch(
    const std::vector<MachineView>& views) {
  packable_.reset(views.size());
  sleepers_.reset(views.size());
  cost_.reset(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) update(i, views);
}

void PackAndParkPlacement::update(std::size_t i,
                                  const std::vector<MachineView>& views) {
  const auto& v = views[i];
  if (v.powered && v.backlog_s < fill_s_) {
    packable_.update(i, v.backlog_s);
  } else {
    packable_.disable(i);
  }
  if (!v.powered) {
    sleepers_.update(i, v.wake_latency_s);
  } else {
    sleepers_.disable(i);
  }
  cost_.update(i, v.backlog_s + v.wake_latency_s);
}

std::size_t PackAndParkPlacement::place(
    double, const std::vector<MachineView>& views) {
  require_index(packable_.size(), views);
  // Densest-first: among powered machines below the fill line, the one
  // with the most backlog keeps the working set smallest.
  if (const std::size_t w = packable_.winner();
      w != decltype(packable_)::kNone) {
    return w;
  }
  // Every powered machine is full: open the shallowest sleeper.
  if (const std::size_t w = sleepers_.winner();
      w != decltype(sleepers_)::kNone) {
    return w;
  }
  // Nothing parked either: spill to the least-loaded machine.
  return cost_.winner();
}

std::unique_ptr<FleetPlacement> make_placement(const std::string& name,
                                               double pack_fill_s) {
  if (name == "round-robin") return std::make_unique<RoundRobinPlacement>();
  if (name == "least-loaded") return std::make_unique<LeastLoadedPlacement>();
  if (name == "pack") {
    return std::make_unique<PackAndParkPlacement>(pack_fill_s);
  }
  throw std::invalid_argument("make_placement: unknown placement " + name);
}

}  // namespace eewa::sim
