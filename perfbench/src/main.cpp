// Wall-clock benchmark binary. Runs one workload and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, plus the per-layer metrics when --trace 1.
//
//   duet_perfbench --workload <fleet-tiny|compile-zoo>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Exits 1 when any output differs from its reference or a cross-check fails,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: duet_perfbench --workload "
               "<fleet-tiny|compile-zoo> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown option " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  Tracer::instance().set_enabled(args.trace);
  Result result;
  if (args.workload == "fleet-tiny") {
    result = run_fleet_tiny(args);
  } else if (args.workload == "compile-zoo") {
    result = run_compile_zoo(args);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  const Outcome& outcome = result.outcome;
  const double attempted = static_cast<double>(outcome.attempted);
  const double ok = attempted - static_cast<double>(outcome.failed);
  std::printf("attempted %llu, failed %llu (rejected, shed, thrown or wrong)\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  result.e2e.set("success_ratio", attempted > 0 ? ok / attempted : 0.0, "ratio");
  if (args.trace && !trace_out.empty() &&
      Tracer::instance().write_chrome_trace(trace_out)) {
    std::printf("trace: %zu spans written to %s\n", Tracer::instance().size(),
                trace_out.c_str());
  }

  // Traced runs carry the end-to-end values too, so the caller can report
  // tracing overhead against an untraced run.
  std::string metrics = result.e2e.json();
  if (args.trace) {
    const std::string layers = result.layers.json();
    metrics = layers.substr(0, layers.size() - 1) + ", " + metrics.substr(1);
  }
  const bool correct = outcome.correct() && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
