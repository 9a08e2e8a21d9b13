// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --plans DIR --work DIR
//       runs one workload and prints its result as the last output line;
//   perfbench --generate alexnet|head|serve|expected --plans DIR --work DIR
//       benchmarks live and writes a reference cache (or the expected plans)
//       into DIR.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string generate;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--plans") args.plans_dir = value;
    else if (key == "--work") args.work_dir = value;
    else if (key == "--generate") generate = value;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.plans_dir.empty() || args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "need --plans, --work and a positive --seconds\n");
    return 2;
  }
  perfbench::set_tracing(false);  // workloads turn it on for traced phases
  try {
    if (generate == "alexnet" || generate == "head") {
      perfbench::generate_train_cache(args, generate);
      return 0;
    }
    if (generate == "serve") {
      perfbench::generate_serve_cache(args);
      return 0;
    }
    if (generate == "expected") {
      std::ofstream out(args.plans_dir + "/expected_plans.txt");
      for (const auto& line : perfbench::expected_train_plans(args)) out << line << "\n";
      for (const auto& line : perfbench::expected_serve_plans(args)) out << line << "\n";
      return 0;
    }
    if (args.workload == "train_wr" || args.workload == "train_wd" ||
        args.workload == "cold_start") {
      return perfbench::run_train(args);
    }
    if (args.workload == "serve_fwd") return perfbench::run_serve(args);
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
