#ifndef CLOUDJOIN_PERFBENCH_WORKLOADS_H_
#define CLOUDJOIN_PERFBENCH_WORKLOADS_H_

#include "driver/report.h"

namespace cloudjoin::perfbench {

/// Each workload sets itself up kSetups times, computes its reference
/// digests outside the timed phase, then runs rounds of ops through
/// RunTimedRounds. Returns false when the workload could not
/// run at all (a failed op still returns true and is recorded as such).

/// Table 1 path: every op scans text, builds its right side and refines.
bool RunBatchCold(const RunConfig& config, BenchRun* run);

/// Closed loop of SQL joins against a warm broadcast-index cache.
bool RunServeHot(const RunConfig& config, BenchRun* run);

/// Sliding-window continuous join over a point feed.
bool RunStreamSlide(const RunConfig& config, BenchRun* run);

}  // namespace cloudjoin::perfbench

#endif  // CLOUDJOIN_PERFBENCH_WORKLOADS_H_
