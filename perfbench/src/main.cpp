// eewa_perfbench: runs one benchmark workload in this process and prints
// its metrics (see perfbench/README.md). run.py builds and invokes it.
//
//   eewa_perfbench --workload <sim-suite|fleet-pack|plan-churn>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// The last stdout line is the JSON result; a failed output check prints
// the result with "correct": false and exits 1.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: eewa_perfbench --workload <sim-suite|fleet-pack|"
               "plan-churn> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = std::stoi(val) != 0;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || args.seconds <= 0.0) return usage();

  // Host fingerprint: stored beside every result (run.py adds the source
  // digest and writes the record under .bench_build/results/).
  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}\n",
      cpu_model().c_str(), std::thread::hardware_concurrency(), __VERSION__,
      PERFBENCH_BUILD_TYPE);

  Result result;
  try {
    if (args.workload == "sim-suite") {
      run_sim_suite(args, result);
    } else if (args.workload == "fleet-pack") {
      run_fleet_pack(args, result);
    } else if (args.workload == "plan-churn") {
      run_plan_churn(args, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  const std::string line = result.json();
  for (const auto& e : result.errors()) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", args.workload.c_str(),
                 e.c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
