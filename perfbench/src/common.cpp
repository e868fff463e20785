#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Result::operation(std::uint64_t units, bool ok) {
  attempted_ += units;
  if (!ok) failed_ += units;
}

std::string Result::json() {
  std::ostringstream metrics;
  bool first = true;
  for (auto [name, v] : values_) {
    if (!std::isfinite(v)) {
      errors_.push_back("non-finite metric: " + name);
      v = 0.0;
    }
    char buf[64];
    // Every digit a double carries: values are reported as measured.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    metrics << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {" << metrics.str() << "}}";
  return os.str();
}

double tail_rank(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 95.0, 99.0, 99.5, 99.9}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) best = p;
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
