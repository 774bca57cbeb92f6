// kcore_bench — the repository benchmark program (see README.md).
//
//   kcore_bench --workload=<name> --seed=<n> [--seconds=<s>]
//               [--trace=<trace.json>] [--smoke]
//
// Runs one workload, checks every answer against the BZ oracle and prints
// one `name value unit` line per metric. With --trace it also writes a
// chrome trace of the benchmark's spans and reports per-layer self times.
// Exits 2 on bad flags or a non-Release build, 1 when the run could not be
// measured, 3 when an answer disagreed with the oracle.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"

namespace {

using namespace kcore;
using namespace kcore::kbench;

bool ParseFlags(int argc, char** argv, RunConfig* config) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      config->workload = v;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      config->seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      have_seed = true;
    } else if (const char* v = value("--seconds=")) {
      config->seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(config->seconds > 0.0) ||
          config->seconds > 600.0) {
        return false;
      }
    } else if (const char* v = value("--trace=")) {
      config->trace_path = v;
      if (config->trace_path.empty()) return false;
    } else if (arg == "--smoke") {
      config->smoke = true;
    } else {
      return false;
    }
  }
  return have_workload && have_seed &&
         (IsPeelWorkload(config->workload) ||
          IsServeWorkload(config->workload));
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!ParseFlags(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: kcore_bench --workload=<peel-deep|peel-wide|"
                 "peel-scaleout|serve-read|serve-write> --seed=<n> "
                 "[--seconds=<s>] [--trace=<trace.json>] [--smoke]\n");
    return 2;
  }
  // Timings from an unoptimized build describe nothing the repo ships.
  if (std::strcmp(KCORE_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "kcore_bench: refusing to measure a %s build\n",
                 KCORE_BENCH_BUILD_TYPE);
    return 2;
  }

  ThreadPool pool(kPoolThreads);
  Tracer tracer(config.traced());
  Report report;
  const Status status =
      IsPeelWorkload(config.workload)
          ? RunPeelWorkload(config, &pool, &tracer, &report)
          : RunServeWorkload(config, &pool, &tracer, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "kcore_bench %s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("# build_type %s\n", KCORE_BENCH_BUILD_TYPE);
  report.Add("host.nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
             "count");
  report.Add("host.pool_threads", pool.num_threads(), "count");

  if (config.traced()) {
    for (const auto& [name, stat] : tracer.SelfTimes()) {
      report.Add("self_ms." + name, stat.total_ms / stat.count, "ms");
    }
    // The request's layers tile it, so their self times must add up to the
    // request span.
    const double closure = tracer.SelfTimeClosureError("serve.request");
    if (closure > 0.01) {
      std::fprintf(stderr, "serve.request self times miss the span by %.3f\n",
                   closure);
      return 1;
    }
    if (Status written = tracer.Write(config.trace_path); !written.ok()) {
      std::fprintf(stderr, "kcore_bench: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  report.Add("attempted", static_cast<double>(report.attempted), "count");
  report.Add("failed", static_cast<double>(report.failed), "count");
  report.Add("mismatches", static_cast<double>(report.mismatches), "count");
  report.Add("error_frac",
             report.attempted == 0
                 ? 1.0
                 : static_cast<double>(report.failed) / report.attempted,
             "fraction");
  report.Print();
  return report.mismatches == 0 ? 0 : 3;
}
