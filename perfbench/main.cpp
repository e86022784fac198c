// Hot-path benchmark driver. Usage:
//   mcds_perfbench --workload solve-uniform|dist-waf|churn --seed N
//                  --seconds S --trace 0|1
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, the same names on
// every workload; with --trace 1 the per-layer ones, each layer timed
// through its own public functions. A traced run reports the layers of
// all three paths: the workload's own path takes most of the run, and
// the other two workloads are then profiled briefly on the same seed's
// field.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

/// The traced run's layer times must account for the untraced run's
/// end-to-end time within this window (percent).
constexpr double kAttributionLo = 95.0;
constexpr double kAttributionHi = 105.0;

/// Run length of each of the other two paths in a traced run: short
/// enough that each does only its minimum repetitions.
constexpr double kProbeSeconds = 0.5;
/// Part of a traced run left for those two profiles (they take 1-6 s).
constexpr double kProbeReserve = 5.0;

using Runner = Result (*)(const Options&);
struct Workload {
  const char* name;
  Runner run;
};
constexpr Workload kWorkloads[] = {
    {"solve-uniform", perfbench::run_solve_uniform},
    {"dist-waf", perfbench::run_dist_waf},
    {"churn", perfbench::run_churn},
};

/// Adds \p part's counts and metrics to \p r; the trace.* cross-checks
/// are kept only for the workload's own path.
void merge(Result& r, const Result& part, bool own) {
  r.correct = r.correct && part.correct;
  r.attempted += part.attempted;
  r.failed += part.failed;
  for (const auto& m : part.metrics) {
    if (own || m.name.rfind("trace.", 0) != 0) r.metrics.push_back(m);
  }
}

Result run_traced(const Options& opt, const Workload& own) {
  Options first = opt;
  first.seconds = std::max(kProbeSeconds, opt.seconds - kProbeReserve);
  Result r;
  merge(r, own.run(first), true);
  for (const auto& w : kWorkloads) {
    if (&w == &own) continue;
    Options probe = opt;
    probe.seconds = kProbeSeconds;
    probe.probe = true;
    merge(r, w.run(probe), false);
  }
  return r;
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val != "0";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && opt.seconds > 0.0;
}

void print(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.process_start = perfbench::Clock::now();
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: mcds_perfbench --workload solve-uniform|dist-waf|"
                   "churn --seed N --seconds S --trace 0|1\n";
      return 1;
    }
    const auto* own = std::find_if(
        std::begin(kWorkloads), std::end(kWorkloads),
        [&](const Workload& w) { return opt.workload == w.name; });
    if (own == std::end(kWorkloads)) {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 1;
    }
    Result r = opt.trace ? run_traced(opt, *own) : own->run(opt);
    for (const auto& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::cerr << "metric " << m.name << " is not finite\n";
        return 1;
      }
      if (m.name == "trace.attribution_pct" &&
          (m.value < kAttributionLo || m.value > kAttributionHi)) {
        std::cerr << "layer times cover " << m.value
                  << "% of the end-to-end time\n";
        r.correct = false;
      }
    }
    print(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mcds_perfbench: " << e.what() << "\n";
    return 1;
  }
}
