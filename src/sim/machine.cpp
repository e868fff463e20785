#include "sim/machine.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace eewa::sim {

namespace {

/// Per-core power models for the EnergyAccount; empty when homogeneous.
std::vector<const energy::PowerModel*> per_core_models(
    const SimOptions& options) {
  std::vector<const energy::PowerModel*> models;
  const core::MachineTopology* topo = options.topology.get();
  if (topo == nullptr) return models;
  if (topo->total_cores() != options.cores) {
    throw std::invalid_argument(
        "Machine: topology core count does not match cores");
  }
  if (!topo->has_power_models()) {
    throw std::invalid_argument(
        "Machine: topology requires per-type power models");
  }
  if (topo->type(0).ladder.size() != options.power.ladder().size()) {
    throw std::invalid_argument(
        "Machine: power ladder must match the topology's type-0 ladder");
  }
  models.reserve(options.cores);
  for (std::size_t c = 0; c < options.cores; ++c) {
    models.push_back(topo->type(topo->type_of_core(c)).model.get());
  }
  return models;
}

/// `options`, once its core count and tracer are checked: the first
/// member initializer runs this, so a rejected machine allocates
/// nothing.
const SimOptions& validated(const SimOptions& options) {
  if (options.cores == 0) {
    throw std::invalid_argument("Machine: need at least one core");
  }
  if (options.cores > Machine::kMaxCores) {
    throw std::invalid_argument(
        "Machine: more cores than an event key can index");
  }
  if (options.tracer != nullptr &&
      options.tracer->track_count() < options.cores + 1) {
    throw std::invalid_argument(
        "Machine: tracer needs cores + 1 tracks (one per core plus the "
        "control track)");
  }
  return options;
}

}  // namespace

Machine::Machine(const SimOptions& options)
    : options_(validated(options)),
      account_(options_.power, options.cores, per_core_models(options_)),
      rng_(options.seed),
      fault_rng_(options.faults.seed),
      rung_(options.cores, 0),
      pending_latency_s_(options.cores, 0.0),
      charged_until_(options.cores, 0.0),
      pools_(options.cores),
      group_counts_(1, 0) {}

struct Machine::NodeStore {
  std::vector<Node> nodes;  ///< free nodes chain through Node::next
  std::uint32_t free = kNil;
  const Machine* owner = nullptr;  ///< whose queued tasks the nodes hold
};

Machine::NodeStore& Machine::thread_node_store() {
  thread_local NodeStore store;
  return store;
}

Machine::~Machine() {
  if (store_ != nullptr) release_store();
}

void Machine::release_store() {
  store_->nodes.clear();
  store_->free = kNil;
  store_->owner = nullptr;
  store_ = nullptr;
  queued_ = 0;
}

void Machine::configure_pools(std::size_t groups) {
  if (groups == 0) {
    throw std::invalid_argument("Machine: need at least one pool group");
  }
  if (store_ != nullptr) release_store();  // drops any leftover tasks
  // Pools are two node indices each: they reallocate only for a shape
  // larger than any before.
  group_count_ = groups;
  pools_.assign(cores() * groups, Pool{});
  group_counts_.assign(groups, 0);
}

void Machine::push_task(std::size_t core, std::size_t group, TaskId id) {
  Pool& p = pool(core, group);
  std::size_t& count = group_counts_.at(group);
  if (store_ == nullptr) {
    NodeStore& s = thread_node_store();
    if (s.owner != nullptr) {
      throw std::logic_error(
          "Machine: another machine's tasks are queued on this thread");
    }
    s.owner = this;
    store_ = &s;
  }
  std::vector<Node>& nodes = store_->nodes;
  std::uint32_t node = store_->free;
  if (node != kNil) {
    store_->free = nodes[node].next;
  } else {
    if (nodes.size() >= kNil) {
      throw std::length_error("Machine: too many queued tasks");
    }
    node = static_cast<std::uint32_t>(nodes.size());
    nodes.emplace_back();
  }
  nodes[node] = Node{id, p.back, kNil};
  if (p.back == kNil) {
    p.front = node;
  } else {
    nodes[p.back].next = node;
  }
  p.back = node;
  ++count;
  ++queued_;
}

TaskId Machine::unlink(Pool& p, std::uint32_t node, std::size_t group) {
  std::vector<Node>& nodes = store_->nodes;
  const Node n = nodes[node];
  if (n.prev == kNil) {
    p.front = n.next;
  } else {
    nodes[n.prev].next = n.next;
  }
  if (n.next == kNil) {
    p.back = n.prev;
  } else {
    nodes[n.next].prev = n.prev;
  }
  nodes[node].next = store_->free;
  store_->free = node;
  --group_counts_[group];
  if (--queued_ == 0) release_store();
  return n.task;
}

std::optional<TaskId> Machine::pop_local(std::size_t core,
                                         std::size_t group) {
  Pool& p = pool(core, group);
  if (p.back == kNil) return std::nullopt;
  return unlink(p, p.back, group);
}

std::optional<TaskId> Machine::take_front(std::size_t core,
                                          std::size_t group) {
  Pool& p = pool(core, group);
  if (p.front == kNil) return std::nullopt;
  return unlink(p, p.front, group);
}

std::optional<TaskId> Machine::steal(std::size_t thief, std::size_t group) {
  if (group_counts_.at(group) == 0) return std::nullopt;
  const std::size_t n = cores();
  auto take = [&](std::size_t victim) -> std::optional<TaskId> {
    Pool& p = pools_[victim * group_count_ + group];
    if (p.front == kNil) return std::nullopt;
    const TaskId id = unlink(p, p.front, group);  // steal the oldest
    ++batch_steals_;
    ++total_steals_;
    if (obs::EventTracer* tr = options_.tracer;
        tr != nullptr && tr->enabled()) {
      tr->steal(thief, sim_now_s_ * 1e6, static_cast<std::uint32_t>(group),
                static_cast<std::uint32_t>(victim), /*cross_group=*/false);
    }
    return id;
  };
  auto probe = [&](std::size_t victim) {
    ++acquire_probes_;
    ++batch_probes_;
    ++total_probes_;
    double cost = options_.steal_attempt_s;
    if (socket_of(victim) != socket_of(thief)) {
      cost *= options_.remote_steal_multiplier;
    }
    acquire_probe_cost_s_ += cost;
  };
  // Random probing, as the real runtime does; every probe costs time
  // (more across sockets).
  for (std::size_t attempt = 0; attempt < 4 * n; ++attempt) {
    // Draw over the n-1 other cores; remapping a self-hit to thief+1
    // would probe that neighbour twice as often as everyone else.
    const std::size_t victim =
        n > 1 ? util::uniform_excluding(rng_.next(), thief, n) : thief;
    probe(victim);
    if (auto id = take(victim)) return id;
  }
  // Deterministic sweep fallback (bounded worst case).
  for (std::size_t victim = 0; victim < n; ++victim) {
    probe(victim);
    if (auto id = take(victim)) return id;
  }
  return std::nullopt;
}

bool Machine::fault_chance(double p) {
  if (p <= 0.0) return false;
  const double u = static_cast<double>(fault_rng_.next() >> 11) * 0x1.0p-53;
  return u < p;
}

bool Machine::request_rung(std::size_t core, std::size_t new_rung) {
  if (new_rung >= core_ladder_size(core)) {
    throw std::out_of_range("Machine: rung out of range");
  }
  if (options_.faults.enabled()) {
    if (options_.faults.is_stuck(core)) {
      ++fault_rejections_;
      return false;
    }
    if (fault_chance(options_.faults.transient_failure_p)) {
      ++fault_rejections_;
      return false;
    }
    if (fault_chance(options_.faults.drift_p)) {
      const std::size_t drifted =
          std::min(new_rung + 1, core_ladder_size(core) - 1);
      if (drifted != new_rung) {
        new_rung = drifted;
        ++fault_drifts_;
      }
    }
  }
  if (rung_.at(core) == new_rung) return true;
  rung_[core] = new_rung;
  if (obs::EventTracer* tr = options_.tracer;
      tr != nullptr && tr->enabled()) {
    tr->rung(core, sim_now_s_ * 1e6, static_cast<std::uint32_t>(core),
             static_cast<std::uint32_t>(new_rung));
  }
  pending_latency_s_[core] += options_.transition.latency_s;
  account_.add_extra_joules(options_.transition.energy_j);
  ++batch_transitions_;
  ++total_transitions_;
  return true;
}

void Machine::run_idle(double until_s) {
  if (!powered_) {
    throw std::logic_error("Machine: run_idle on a parked machine");
  }
  if (until_s <= session_charged_s_) return;
  sim_now_s_ = until_s;
  for (std::size_t c = 0; c < cores(); ++c) {
    charge(c, session_charged_s_, until_s, rung_[c],
           /*active=*/!options_.idle_halt);
  }
  session_charged_s_ = until_s;
}

void Machine::park(double at_s) {
  if (!powered_) {
    throw std::logic_error("Machine: park on an already-parked machine");
  }
  if (at_s < session_charged_s_ - 1e-12) {
    throw std::logic_error(
        "Machine: park in the past (an interval would be billed both "
        "powered and parked)");
  }
  if (queued_tasks() != 0) {
    throw std::logic_error("Machine: parking would strand queued tasks");
  }
  run_idle(at_s);
  powered_ = false;
}

void Machine::wake(double at_s) {
  if (powered_) {
    throw std::logic_error("Machine: wake on a powered machine");
  }
  if (at_s < session_charged_s_ - 1e-12) {
    throw std::logic_error(
        "Machine: wake rewinds the charge clock (would re-bill the "
        "pre-park interval)");
  }
  powered_ = true;
  // The parked interval [charged_through, at_s) is the caller's S-state
  // residency; core charging resumes here and stays monotone.
  session_charged_s_ = std::max(session_charged_s_, at_s);
}

double Machine::exec_time(const trace::TraceTask& t,
                          std::size_t core_rung) const {
  const double slowdown = ladder().slowdown(core_rung);
  return t.work_s * (t.mem_alpha + (1.0 - t.mem_alpha) * slowdown);
}

double Machine::exec_time_on(const trace::TraceTask& t, std::size_t core,
                             std::size_t core_rung) const {
  const double slowdown = core_slowdown(core, core_rung);
  return t.work_s * (t.mem_alpha + (1.0 - t.mem_alpha) * slowdown);
}

void Machine::charge(std::size_t core, double from_s, double to_s,
                     std::size_t rung, bool active) {
  if (to_s > from_s) {
    account_.add_core_time(core, to_s - from_s, rung, active);
  }
  // Never rewind: a zero-length charge in the past must not let a later
  // charge re-bill an interval this core already paid for.
  charged_until_[core] = std::max(charged_until_[core], to_s);
}

struct Machine::BatchScratch {
  /// Per core: when it went idle (-1 while it runs a task) and its
  /// running task's execution time.
  struct Core {
    double idle_from;
    double exec_s;
  };
  std::vector<Ev> events;  // min-heap under std::greater<Ev>
  std::vector<Core> cores;
};

Machine::BatchScratch& Machine::batch_scratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

double Machine::run_batch(Policy& policy, const trace::Batch& batch,
                          double start_s) {
  if (!powered_) {
    throw std::logic_error("Machine: run_batch on a parked machine");
  }
  if (start_s < session_charged_s_ - 1e-12) {
    throw std::logic_error(
        "Machine: batch starts before the charged-through point (would "
        "re-bill an interval)");
  }
  if (batch.tasks.size() > kMaxBatchTasks) {
    throw std::invalid_argument(
        "Machine: more tasks in a batch than an event can index");
  }
  tasks_ = &batch.tasks;
  batch_steals_ = batch_probes_ = batch_transitions_ = 0;
  sim_now_s_ = start_s;
  const double core_j_before = account_.core_joules();
  obs::EventTracer* tr = options_.tracer;

  policy.batch_start(*this, batch, batch_index_);

  // The event queue is a binary min-heap run with exactly the
  // push_heap/pop_heap calls std::priority_queue makes, so equal events
  // pop in the same order.
  BatchScratch& scratch = batch_scratch();
  std::vector<Ev>& events = scratch.events;
  events.clear();
  const auto push_event = [&events](const Ev& ev) {
    events.push_back(ev);
    std::push_heap(events.begin(), events.end(), std::greater<Ev>{});
  };
  std::vector<BatchScratch::Core>& per_core = scratch.cores;
  per_core.assign(cores(), BatchScratch::Core{-1.0, 0.0});
  std::size_t remaining = batch.tasks.size();
  double last_completion = start_s;

  // Tasks spawned mid-batch arrive as injection events.
  for (std::size_t i = 0; i < batch.tasks.size(); ++i) {
    if (batch.tasks[i].release_s > 0.0) {
      push_event(Ev::make(start_s + batch.tasks[i].release_s, Ev::kInject, 0,
                          i));
    }
  }

  for (auto& cu : charged_until_) cu = start_s;

  // Start (or idle) one core at `now`; schedules its completion event.
  auto kick = [&](std::size_t core, double now) {
    sim_now_s_ = now;
    acquire_probes_ = 0;
    acquire_probe_cost_s_ = 0.0;
    pending_repoll_s_ = 0.0;
    const std::size_t pre_rung = rung_[core];
    const double pre_pending = pending_latency_s_[core];
    const auto got = policy.acquire(*this, core);
    // Probe time runs at the pre-acquire frequency...
    double t = now + acquire_probe_cost_s_;
    charge(core, now, t, pre_rung, /*active=*/true);
    // ...then any transition the policy requested stalls the core.
    const double stall = pending_latency_s_[core];
    if (stall > 0.0) {
      charge(core, t, t + stall, rung_[core], /*active=*/true);
      t += stall;
      pending_latency_s_[core] = 0.0;
    }
    (void)pre_pending;
    if (got) {
      const double dispatch = options_.dispatch_overhead_s;
      const double exec = exec_time_on(task(*got), core, rung_[core]);
      charge(core, t, t + dispatch + exec, rung_[core], /*active=*/true);
      per_core[core].exec_s = exec;
      push_event(Ev::make(t + dispatch + exec, Ev::kComplete, core, *got));
    } else {
      per_core[core].idle_from = t;
      if (pending_repoll_s_ > 0.0) {
        push_event(Ev::make(t + pending_repoll_s_, Ev::kWake, core, 0));
      }
    }
  };

  // Batch start: every core pays its (possibly just-planned) transition,
  // then goes hunting for work.
  for (std::size_t c = 0; c < cores(); ++c) {
    double t = start_s;
    const double stall = pending_latency_s_[c];
    if (stall > 0.0) {
      charge(c, t, t + stall, rung_[c], /*active=*/true);
      t += stall;
      pending_latency_s_[c] = 0.0;
    }
    if (remaining > 0) {
      kick(c, t);
    } else {
      per_core[c].idle_from = t;
    }
  }

  BatchStats bs;
  if (options_.keep_batch_stats) {
    bs.cores_per_rung.assign(rung_axis_size(), 0);
    for (std::size_t c = 0; c < cores(); ++c) ++bs.cores_per_rung[rung_[c]];
  }

  while (remaining > 0) {
    if (events.empty()) {
      throw std::logic_error(
          "Machine: tasks remain but nothing is executing (policy lost "
          "tasks?)");
    }
    std::pop_heap(events.begin(), events.end(), std::greater<Ev>{});
    const Ev ev = events.back();
    events.pop_back();
    sim_now_s_ = ev.t;
    const std::size_t core = ev.core();
    switch (ev.kind()) {
      case Ev::kComplete: {
        const double exec = per_core[core].exec_s;
        if (tr != nullptr && tr->enabled()) {
          tr->task(core, (ev.t - exec) * 1e6, exec * 1e6,
                   static_cast<std::uint32_t>(task(ev.task).class_id),
                   static_cast<std::uint32_t>(rung_[core]),
                   /*failed=*/false);
        }
        policy.task_done(*this, core, task(ev.task), exec);
        --remaining;
        ++total_completed_;
        last_completion = ev.t;
        if (remaining > 0) kick(core, ev.t);
        else per_core[core].idle_from = ev.t;
        break;
      }
      case Ev::kInject:
        policy.place_task(*this, ev.task);
        // A fresh task may unblock idle cores; wake them to re-probe.
        for (std::size_t c = 0; c < cores(); ++c) {
          if (per_core[c].idle_from >= 0.0) {
            push_event(Ev::make(ev.t, Ev::kWake, c, 0));
          }
        }
        break;
      case Ev::kWake: {
        if (per_core[core].idle_from < 0.0) break;
        // An injection can wake a core "before" it finished the failed
        // probe sweep that put it to sleep (idle_from > ev.t); the core
        // re-probes the moment it actually becomes idle, never earlier —
        // rewinding would re-bill probe time already charged.
        const double wake_t = std::max(ev.t, per_core[core].idle_from);
        // Charge the idle spin up to the wake, then go hunting again.
        charge(core, per_core[core].idle_from, wake_t, rung_[core],
               /*active=*/!options_.idle_halt);
        per_core[core].idle_from = -1.0;
        kick(core, wake_t);
        break;
      }
    }
  }

  const double makespan_end = batch.tasks.empty() ? start_s : last_completion;
  // A core whose final (failed) acquire sweep or transition stall ran past
  // the last completion is charged beyond makespan_end; the barrier is
  // wherever the last core actually stopped, else re-charging from
  // makespan_end would double-count the straggler's tail and break
  // Σ residency == cores · wall time.
  double batch_busy_end = makespan_end;
  for (std::size_t c = 0; c < cores(); ++c) {
    batch_busy_end = std::max(batch_busy_end, charged_until_[c]);
  }
  // Idle cores spun (or, with idle_halt, slept) until the barrier.
  for (std::size_t c = 0; c < cores(); ++c) {
    const double idle_from = per_core[c].idle_from;
    if (idle_from >= 0.0 && idle_from < batch_busy_end) {
      charge(c, idle_from, batch_busy_end, rung_[c],
             /*active=*/!options_.idle_halt);
    }
  }

  sim_now_s_ = batch_busy_end;
  const double overhead = policy.batch_end(*this, makespan_end - start_s);
  const double end_s = batch_busy_end + overhead;
  if (tr != nullptr && tr->enabled()) {
    // The policy's end-of-batch work (EEWA: the Table III adjuster)
    // nests at the tail of the batch span, on the control track.
    if (overhead > 0.0) {
      tr->phase(cores(), batch_busy_end * 1e6, overhead * 1e6,
                obs::PhaseKind::kPlan, batch_index_);
    }
    tr->phase(cores(), start_s * 1e6, (end_s - start_s) * 1e6,
              obs::PhaseKind::kBatch, batch_index_);
  }
  if (overhead > 0.0) {
    for (std::size_t c = 0; c < cores(); ++c) {
      charge(c, batch_busy_end, end_s, rung_[c], /*active=*/true);
    }
  }

  // The batch span runs to the barrier — where the last core actually
  // stopped — not to the last task completion; the controller's T above
  // still uses the task makespan.
  bs.span_s = batch_busy_end - start_s;
  bs.overhead_s = overhead;
  bs.steals = batch_steals_;
  bs.probes = batch_probes_;
  bs.transitions = batch_transitions_;
  bs.core_energy_j = account_.core_joules() - core_j_before;
  bs.energy_j =
      bs.core_energy_j + options_.power.floor_w() * (end_s - start_s);
  if (options_.keep_batch_stats) stats_.push_back(std::move(bs));

  ++batch_index_;
  tasks_ = nullptr;
  session_charged_s_ = std::max(session_charged_s_, end_s);
  return end_s;
}

SimResult Machine::finish(double end_s, std::string policy_name,
                          std::string workload_name) {
  account_.set_makespan(end_s);
  SimResult res;
  res.policy = std::move(policy_name);
  res.workload = std::move(workload_name);
  res.time_s = end_s;
  res.energy_j = account_.total_joules();
  res.cpu_energy_j = account_.core_joules();
  res.steals = total_steals_;
  res.probes = total_probes_;
  res.transitions = total_transitions_;
  res.batches = stats_;
  res.rung_residency_s.resize(rung_axis_size());
  for (std::size_t j = 0; j < rung_axis_size(); ++j) {
    res.rung_residency_s[j] = account_.rung_residency_s(j);
  }
  return res;
}

}  // namespace eewa::sim
