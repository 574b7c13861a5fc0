#include "exec/probe_stats.h"

#include "exec/counter_names.h"

namespace cloudjoin::exec {

void RefineStats::FlushTo(Counters* counters) const {
  if (counters == nullptr) return;
  if (prepared_hits != 0) counters->Add(counter::kPreparedHits, prepared_hits);
  if (boundary_fallbacks != 0) {
    counters->Add(counter::kBoundaryFallbacks, boundary_fallbacks);
  }
  if (refine_parse_errors != 0) {
    counters->Add(counter::kRefineParseError, refine_parse_errors);
  }
  if (reparsed != 0) counters->Add(counter::kRefineReparsed, reparsed);
}

void ProbeStats::FlushTo(Counters* counters) const {
  if (counters == nullptr) return;
  if (candidates != 0) counters->Add(counter::kCandidates, candidates);
  if (matches != 0) counters->Add(counter::kMatches, matches);
  refine.FlushTo(counters);
  if (filter_batches != 0) {
    counters->Add(counter::kFilterBatches, filter_batches);
  }
  if (filter_candidates != 0) {
    counters->Add(counter::kFilterCandidates, filter_candidates);
  }
  if (filter_simd_lanes != 0) {
    counters->Add(counter::kFilterSimdLanes, filter_simd_lanes);
  }
  if (sfilter_skipped != 0) {
    counters->Add(counter::kSfilterSkipped, sfilter_skipped);
  }
}

}  // namespace cloudjoin::exec
