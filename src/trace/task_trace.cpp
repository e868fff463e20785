#include "trace/task_trace.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/csv.hpp"

namespace eewa::trace {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double Batch::total_work_s() const {
  double sum = 0.0;
  for (const auto& t : tasks) sum += t.work_s;
  return sum;
}

std::size_t TaskTrace::task_count() const {
  std::size_t n = 0;
  for (const auto& b : batches) n += b.tasks.size();
  return n;
}

double TaskTrace::total_work_s() const {
  double sum = 0.0;
  for (const auto& b : batches) sum += b.total_work_s();
  return sum;
}

namespace {

// Each check is one range comparison that NaN fails, so a non-finite
// field is rejected here instead of surfacing as a NaN result or a lost
// task mid-simulation.
bool work_ok(const TraceTask& t) {
  return (t.work_s > 0.0) & (t.work_s < kInf);
}
bool alpha_ok(const TraceTask& t) {
  return (t.mem_alpha >= 0.0) & (t.mem_alpha <= 1.0);
}
bool cmi_ok(const TraceTask& t) { return (t.cmi >= 0.0) & (t.cmi < kInf); }
bool release_ok(const TraceTask& t) {
  return (t.release_s >= 0.0) & (t.release_s < kInf);
}

/// The first failed check of an invalid task, as its message.
const char* task_error(const TraceTask& t, std::size_t classes) {
  if (t.class_id >= classes) return "TaskTrace: class_id out of range";
  if (!work_ok(t)) return "TaskTrace: work must be positive and finite";
  if (!alpha_ok(t)) return "TaskTrace: mem_alpha outside [0,1]";
  if (!cmi_ok(t)) return "TaskTrace: cmi must be non-negative and finite";
  return "TaskTrace: release time must be non-negative and finite";
}

}  // namespace

void TaskTrace::validate() const {
  const std::size_t classes = class_names.size();
  for (const auto& b : batches) {
    for (const auto& t : b.tasks) {
      // simulate() validates every run: the non-short-circuit & keeps
      // the all-valid path free of per-check branches.
      const bool ok = (t.class_id < classes) & work_ok(t) & alpha_ok(t) &
                      cmi_ok(t) & release_ok(t);
      if (!ok) throw std::invalid_argument(task_error(t, classes));
    }
  }
}

TaskTrace TaskTrace::from_csv(const std::string& csv, std::string name) {
  TaskTrace out;
  out.name = std::move(name);
  std::unordered_map<std::string, std::size_t> ids;
  std::istringstream lines(csv);
  std::string line;
  bool header = true;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (header) {
      if (line.rfind("batch,", 0) != 0) {
        throw std::invalid_argument("TaskTrace::from_csv: missing header");
      }
      header = false;
      continue;
    }
    std::istringstream cells(line);
    std::string batch_s, cls, work_s, cmi_s, alpha_s, release_s;
    if (!std::getline(cells, batch_s, ',') ||
        !std::getline(cells, cls, ',') ||
        !std::getline(cells, work_s, ',') ||
        !std::getline(cells, cmi_s, ',') ||
        !std::getline(cells, alpha_s, ',')) {
      throw std::invalid_argument("TaskTrace::from_csv: short row");
    }
    const bool has_release = static_cast<bool>(
        std::getline(cells, release_s));  // optional (older exports)
    std::size_t batch_idx, class_id;
    TraceTask task;
    try {
      batch_idx = std::stoul(batch_s);
      task.work_s = std::stod(work_s);
      task.cmi = std::stod(cmi_s);
      task.mem_alpha = std::stod(alpha_s);
      task.release_s = has_release ? std::stod(release_s) : 0.0;
    } catch (const std::exception&) {
      throw std::invalid_argument("TaskTrace::from_csv: bad number");
    }
    const auto it = ids.find(cls);
    if (it == ids.end()) {
      class_id = out.class_names.size();
      ids.emplace(cls, class_id);
      out.class_names.push_back(cls);
    } else {
      class_id = it->second;
    }
    task.class_id = class_id;
    if (batch_idx >= out.batches.size()) out.batches.resize(batch_idx + 1);
    out.batches[batch_idx].tasks.push_back(task);
  }
  out.validate();
  return out;
}

std::string TaskTrace::to_csv() const {
  util::CsvWriter csv;
  csv.row({"batch", "class", "work_s", "cmi", "mem_alpha", "release_s"});
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const auto& t : batches[b].tasks) {
      csv.row_values(b, class_names.at(t.class_id), t.work_s, t.cmi,
                     t.mem_alpha, t.release_s);
    }
  }
  return csv.str();
}

}  // namespace eewa::trace
