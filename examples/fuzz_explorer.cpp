// Deterministic fuzz driver for the scheduler + search stack.
//
// Every case is a pure function of (mode, seed): the seed expands into a
// random CC table (search oracle), a real-runtime workload (runtime
// oracle), a simulated workload (energy oracle) or an open-loop arrival
// stream (service oracle), runs through the corresponding invariant
// catalogue (see docs/testing.md), and prints one line per case. Exit
// code 1 when any invariant fails or the --out file cannot be written.
//
// Usage:
//   fuzz_explorer [--mode search|search-large|runtime|energy|service|
//                         fleet|hetero|all]
//                 [--seed N]
//                 [--count N] [--replay N] [--shrink] [--out FILE]
//                 [--verbose]
//
//   --seed N    base seed (default 1)
//   --count N   seeds per selected mode (default 1; sweeps N
//               consecutive seeds from the base)
//   --replay N  shorthand for --seed N --count 1 --verbose
//   --shrink    on failure, bisect the spec to a minimal repro
//   --out FILE  write the case count, then each failing seed and its
//               shrunk repro, to FILE (the CI artifact). A failed
//               write exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/fuzz.hpp"
#include "util/cli_flags.hpp"
#include "util/write_file.hpp"

using namespace eewa;

namespace {

void describe_failure(std::string& out, const testing::FuzzVerdict& v) {
  out += "mode=" + std::string(testing::mode_name(v.mode)) +
         " seed=" + std::to_string(v.seed) + "\n";
  out += "failure: " + v.failure + "\n";
  out += "spec: " + v.spec_summary + "\n";
  out += "repro: " + v.repro_command() + "\n";
  if (!v.shrunk_summary.empty()) {
    out += "shrunk spec: " + v.shrunk_summary + "\n";
    out += "shrunk failure: " + v.shrunk_failure + "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode_arg = "all";
  std::uint64_t seed = 1;
  std::size_t count = 1;
  bool do_shrink = false;
  bool verbose = false;
  std::string out_file;
  util::FlagParser flags("fuzz_explorer", argc, argv);
  while (flags.next()) {
    if (flags.is("--mode")) mode_arg = flags.text();
    else if (flags.is("--seed")) seed = flags.count();
    else if (flags.is("--count")) count = flags.count();
    else if (flags.is("--replay")) {
      seed = flags.count();
      count = 1;
      verbose = true;
    } else if (flags.is("--shrink")) {
      do_shrink = true;
    } else if (flags.is("--verbose")) {
      verbose = true;
    } else if (flags.is("--out")) {
      out_file = flags.text();
    } else {
      flags.reject();
    }
  }

  std::vector<testing::FuzzMode> modes;
  if (mode_arg == "all") {
    modes = {testing::FuzzMode::kSearch, testing::FuzzMode::kSearchLarge,
             testing::FuzzMode::kRuntime, testing::FuzzMode::kEnergy,
             testing::FuzzMode::kService, testing::FuzzMode::kFleet,
             testing::FuzzMode::kHetero};
  } else if (mode_arg == "search") {
    modes = {testing::FuzzMode::kSearch};
  } else if (mode_arg == "search-large") {
    modes = {testing::FuzzMode::kSearchLarge};
  } else if (mode_arg == "runtime") {
    modes = {testing::FuzzMode::kRuntime};
  } else if (mode_arg == "energy") {
    modes = {testing::FuzzMode::kEnergy};
  } else if (mode_arg == "service") {
    modes = {testing::FuzzMode::kService};
  } else if (mode_arg == "fleet") {
    modes = {testing::FuzzMode::kFleet};
  } else if (mode_arg == "hetero") {
    modes = {testing::FuzzMode::kHetero};
  } else {
    flags.bad_value("--mode", mode_arg.c_str(),
                    "search, search-large, runtime, energy, service, fleet, "
                    "hetero or all");
  }

  std::size_t ran = 0;
  std::vector<testing::FuzzVerdict> failures;
  for (const auto mode : modes) {
    for (std::size_t i = 0; i < count; ++i) {
      auto v = do_shrink ? testing::shrink(mode, seed + i)
                         : testing::run_one(mode, seed + i);
      ++ran;
      if (v.ok) {
        if (verbose) {
          std::printf("ok    [%s] seed=%llu\n  spec: %s\n",
                      testing::mode_name(mode),
                      static_cast<unsigned long long>(v.seed),
                      v.spec_summary.c_str());
        }
        continue;
      }
      std::string report;
      describe_failure(report, v);
      std::printf("FAIL  %s", report.c_str());
      failures.push_back(std::move(v));
    }
  }

  char summary[96];
  std::snprintf(summary, sizeof summary, "%zu case%s, %zu failure%s\n", ran,
                ran == 1 ? "" : "s", failures.size(),
                failures.size() == 1 ? "" : "s");
  std::fputs(summary, stdout);

  if (!out_file.empty()) {
    std::string report = summary;
    for (const auto& v : failures) {
      describe_failure(report, v);
      report += "\n";
    }
    if (!util::write_file(out_file, report)) return 1;
  }
  return failures.empty() ? 0 : 1;
}
