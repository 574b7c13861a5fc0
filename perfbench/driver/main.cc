// perfbench_driver: runs one benchmark workload and writes what it
// measured as JSON (and, with --trace 1, its spans as TSV). `run.py`
// builds this binary, runs it, checks its outputs and prints the metrics.
//
//   perfbench_driver --workload batch-cold --seed 1 --seconds 20 --trace 0
//                    --out run.json [--spans spans.tsv]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "driver/report.h"
#include "driver/trace.h"
#include "driver/workloads.h"

namespace cloudjoin::perfbench {
namespace {

/// Time of a fixed dependent-load walk over 16 MiB: a probe of the shared
/// memory system, independent of the code under test.
double ReferenceMemoryLoopSeconds() {
  constexpr size_t kSlots = (16u << 20) / sizeof(uint32_t);
  std::vector<uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(12345);
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextUint64() % (i + 1)]);
  }
  // One cycle through a random permutation: next[order[i]] = order[i + 1].
  std::vector<uint32_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) {
    next[order[i]] = order[(i + 1) % kSlots];
  }
  Stopwatch watch;
  uint32_t at = order[0];
  for (int step = 0; step < (1 << 21); ++step) at = next[at];
  const double seconds = watch.ElapsedSeconds();
  if (at == 0xFFFFFFFFu) std::printf("unreachable\n");
  return seconds;
}

/// (steal, total) jiffies from the aggregate cpu line of /proc/stat.
std::pair<double, double> ReadCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string out_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n",
                   key.c_str());
      return 2;
    }
  }
  if (out_path.empty() || config.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench_driver: --out and --seconds required\n");
    return 2;
  }

  BenchRun run;
  run.workload = config.workload;
  run.seed = config.seed;
  run.values["host.memloop_s"] = ReferenceMemoryLoopSeconds();
  const auto [steal0, total0] = ReadCpuJiffies();

  bool ran = false;
  if (config.workload == "batch-cold") {
    ran = RunBatchCold(config, &run);
  } else if (config.workload == "serve-hot") {
    ran = RunServeHot(config, &run);
  } else if (config.workload == "stream-slide") {
    ran = RunStreamSlide(config, &run);
  } else {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 config.workload.c_str());
    return 2;
  }
  if (!ran) return 3;

  const auto [steal1, total1] = ReadCpuJiffies();
  run.values["host.steal_frac"] =
      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  run.values["peak_rss_mb"] = PeakRssMb();
  if (!run.WriteJson(out_path)) return 4;
  if (config.trace && !spans_path.empty() &&
      !Tracer::Get().WriteTsv(spans_path)) {
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace cloudjoin::perfbench

int main(int argc, char** argv) {
  return cloudjoin::perfbench::Main(argc, argv);
}
