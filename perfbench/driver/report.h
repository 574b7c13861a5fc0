#ifndef CLOUDJOIN_PERFBENCH_REPORT_H_
#define CLOUDJOIN_PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cloudjoin::perfbench {

/// Timed ops a run makes at the least: p95 needs ten samples beyond it.
inline constexpr size_t kMinOps = 220;
/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetups = 5;

/// Settings shared by all workloads, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One timed op: what it did, whether its output matched the reference,
/// and the numbers the program returned for it.
struct OpRecord {
  std::string kind;
  int64_t round = 0;
  bool traced = false;
  bool ok = false;
  /// Left rows (stream: events) fully joined by this op.
  int64_t rows = 0;
  /// Latency the caller saw, in seconds.
  double latency_s = 0.0;
  /// Layer numbers, by metric-style name (e.g. "exec.build_ms").
  std::map<std::string, double> values;
};

/// One round of the timed phase: a fixed batch of ops. In a traced run the
/// rounds alternate between tracing on and off.
struct RoundRecord {
  bool traced = false;
  double wall_s = 0.0;
  int64_t rows = 0;
};

/// Everything the driver measured in one run; `run.py` turns it into the
/// benchmark's metrics.
struct BenchRun {
  std::string workload;
  uint64_t seed = 0;
  double scale = 0.0;
  /// Wall seconds of each set-up repetition.
  std::vector<double> setup_s;
  /// Per-layer parts of each set-up repetition (e.g. "data.generate_s").
  std::map<std::string, std::vector<double>> setup_parts;
  std::vector<OpRecord> ops;
  std::vector<RoundRecord> rounds;
  /// Run-level numbers (cache size, simulated seconds, host diagnostics).
  std::map<std::string, double> values;
  /// Failed output checks outside the timed ops (set-up references).
  int64_t check_failures = 0;
  std::vector<std::string> notes;

  void AddSetupPart(const std::string& name, double seconds) {
    setup_parts[name].push_back(seconds);
  }
  void Note(const std::string& note);

  /// Writes the run as one JSON object.
  bool WriteJson(const std::string& path) const;
};

/// Order-independent digest of a join result: equal pair multisets give
/// equal digests whatever order an engine emits them in.
class PairDigest {
 public:
  void Add(int64_t left, int64_t right);
  bool operator==(const PairDigest& other) const {
    return sum_ == other.sum_ && count_ == other.count_;
  }
  int64_t count() const { return count_; }

 private:
  uint64_t sum_ = 0;
  int64_t count_ = 0;
};

/// The timed phase shared by all workloads: calls `round(index, traced)`
/// until `config.seconds` have passed and `run` holds at least kMinOps ops
/// (and, when tracing, at least one traced and one untraced round). Traced
/// runs alternate rounds between tracing on and off. With `rotate_cpu`, the
/// calling thread is pinned to each allowed CPU in turn and the run ends on
/// a whole turn, so a single-threaded run samples every CPU equally instead
/// of inheriting the speed of the one the scheduler happened to pick.
/// Returns false as soon as a round does.
bool RunTimedRounds(const RunConfig& config, BenchRun* run, bool rotate_cpu,
                    const std::function<bool(int64_t, bool)>& round);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

}  // namespace cloudjoin::perfbench

#endif  // CLOUDJOIN_PERFBENCH_REPORT_H_
