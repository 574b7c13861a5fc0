#ifndef CLOUDJOIN_EXEC_PROBE_STATS_H_
#define CLOUDJOIN_EXEC_PROBE_STATS_H_

#include <cstdint>

#include "common/counters.h"
#include "index/batch_prober.h"

namespace cloudjoin::exec {

/// Refinement-side statistics, accumulated locally by a Refiner and
/// flushed to a `Counters` once — keeps the mutex off the probe hot path.
struct RefineStats {
  /// Candidates refined through a prepared grid instead of the exact test.
  int64_t prepared_hits = 0;
  /// Prepared refinements that landed in a boundary cell and fell back to
  /// the exact ray-crossing test.
  int64_t boundary_fallbacks = 0;
  /// GEOS-role refinements whose WKT re-parse failed (previously a silent
  /// drop; see counter::kRefineParseError).
  int64_t refine_parse_errors = 0;
  /// GEOS-role refinements that re-parsed WKT for the pair (the paper's
  /// ISP-MC UDF trait; see counter::kRefineReparsed).
  int64_t reparsed = 0;

  void MergeFrom(const RefineStats& other) {
    prepared_hits += other.prepared_hits;
    boundary_fallbacks += other.boundary_fallbacks;
    refine_parse_errors += other.refine_parse_errors;
    reparsed += other.reparsed;
  }

  /// Adds the non-zero fields to `counters` (no-op on nullptr).
  void FlushTo(Counters* counters) const;
};

/// Per-probe (or per-batch) probe statistics: filter candidates, matches,
/// refinement detail, and the columnar filter phase.
struct ProbeStats {
  int64_t candidates = 0;
  int64_t matches = 0;
  RefineStats refine;
  /// Columnar filter phase: EnvelopeBatches processed, candidates the
  /// batch kernel emitted, and SIMD lanes the explicit kernel tested
  /// (0 on the scalar / per-record paths).
  int64_t filter_batches = 0;
  int64_t filter_candidates = 0;
  int64_t filter_simd_lanes = 0;
  /// Probes dropped by the sFilter membership bitmap before batch descent
  /// (each had provably zero candidates).
  int64_t sfilter_skipped = 0;

  void MergeFrom(const ProbeStats& other) {
    candidates += other.candidates;
    matches += other.matches;
    refine.MergeFrom(other.refine);
    filter_batches += other.filter_batches;
    filter_candidates += other.filter_candidates;
    filter_simd_lanes += other.filter_simd_lanes;
    sfilter_skipped += other.sfilter_skipped;
  }

  void AddFilter(const index::BatchStats& filter) {
    filter_batches += filter.batches;
    filter_candidates += filter.candidates;
    filter_simd_lanes += filter.simd_lanes;
  }

  /// Adds the non-zero fields to `counters` (no-op on nullptr).
  void FlushTo(Counters* counters) const;
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_STATS_H_
