// perfbench -- the repository benchmark binary. run.py builds and runs it;
// see ../README.md for the workloads, metrics and checks.
//
//   perfbench --workload serve_hot|sweep_cold|generate_cold --seed N
//             --seconds S --trace 0|1 --work-dir DIR --trace-dir DIR
//             [--inject-fault body|prediction|model]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else if (arg == "--inject-fault") {
      if (value == "body") opt.fault = Fault::Body;
      else if (value == "prediction") opt.fault = Fault::Prediction;
      else if (value == "model") opt.fault = Fault::ModelFile;
      else usage("unknown fault");
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() || opt.trace_dir.empty() ||
      opt.seconds <= 0.0) {
    usage("need --workload, --work-dir, --trace-dir and a positive --seconds");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    fs::create_directories(opt.work_dir);
    Report report;
    if (opt.workload == "serve_hot") {
      run_serve_hot(opt, report);
    } else if (opt.workload == "sweep_cold") {
      run_sweep_cold(opt, report);
    } else if (opt.workload == "generate_cold") {
      run_generate_cold(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    fs::remove_all(opt.work_dir);
    return report.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
