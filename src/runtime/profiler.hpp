// Online profiling (paper §III-A-1): each worker records, without locks,
// the class and execution time of every task it completes. The records
// are merged into the EewaController at the batch barrier.
#pragma once

#include <cstddef>
#include <vector>

namespace eewa::rt {

/// One completed-task observation.
struct TaskRecord {
  std::size_t class_id;
  double exec_s;      ///< measured wall time of the task body
  std::size_t rung;   ///< ladder rung of the executing core
  double cmi;         ///< cache-miss intensity (0 when not measured)
};

/// Per-worker, single-writer record buffer.
class WorkerProfile {
 public:
  void record(std::size_t class_id, double exec_s, std::size_t rung,
              double cmi = 0.0) {
    records_.push_back(TaskRecord{class_id, exec_s, rung, cmi});
  }

  const std::vector<TaskRecord>& records() const { return records_; }

  void clear() { records_.clear(); }

  std::size_t size() const { return records_.size(); }

  void reserve(std::size_t n) { records_.reserve(n); }

 private:
  std::vector<TaskRecord> records_;
};

}  // namespace eewa::rt
