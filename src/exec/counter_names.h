#ifndef CLOUDJOIN_EXEC_COUNTER_NAMES_H_
#define CLOUDJOIN_EXEC_COUNTER_NAMES_H_

namespace cloudjoin::exec::counter {

/// The shared join counter taxonomy, emitted by the exec core so every
/// engine reports the same names (see DESIGN.md "Counter taxonomy").
///
/// Input accounting — a row is *malformed* when it cannot be decomposed
/// into (id, geometry) fields at all (too few columns, unparseable id,
/// NULL geometry slot); it is *bad_geom* when the fields were present but
/// the geometry text failed to parse.
inline constexpr char kRightMalformed[] = "join.right_malformed";
inline constexpr char kRightBadGeom[] = "join.right_bad_geom";
inline constexpr char kLeftMalformed[] = "join.left_malformed";
inline constexpr char kLeftBadGeom[] = "join.left_bad_geom";

/// Build accounting: rows retained on the indexed (right) side, and how
/// many of them carry a prepared grid.
inline constexpr char kRightRows[] = "join.right_rows";
inline constexpr char kPreparedRecords[] = "join.prepared_records";

/// Probe accounting: filter candidates, refinement matches, prepared-grid
/// usage, and the columnar filter phase.
inline constexpr char kCandidates[] = "join.candidates";
inline constexpr char kMatches[] = "join.matches";
inline constexpr char kPreparedHits[] = "join.prepared_hits";
inline constexpr char kBoundaryFallbacks[] = "join.boundary_fallbacks";
inline constexpr char kFilterBatches[] = "join.filter_batches";
inline constexpr char kFilterCandidates[] = "join.filter_candidates";
inline constexpr char kFilterSimdLanes[] = "join.filter_simd_lanes_used";

/// A WKT string that parsed during the build/probe scan but failed to
/// re-parse inside GEOS-role refinement. Previously a silent drop.
inline constexpr char kRefineParseError[] = "join.refine_parse_error";

/// A pair refined by parsing WKT again (GeosRefiner without kept parses,
/// Impala's ST_* UDF) — the paper's ISP-MC trait, and 0 on paths that
/// refine parsed geometries (streaming, the cached-parse ablation).
inline constexpr char kRefineReparsed[] = "join.refine_reparsed";

/// Serving layer: a retained right-side build was reused.
inline constexpr char kIndexCacheHit[] = "join.index_cache_hit";

/// Skew-aware execution: probes dropped by the sFilter membership bitmap
/// before any tree descent (provably zero candidates), and hot tiles the
/// adaptive partitioner quad-split to break up a skewed schedule.
inline constexpr char kSfilterSkipped[] = "join.sfilter_skipped";
inline constexpr char kHotTilesSplit[] = "join.hot_tiles_split";

/// Adaptive planning (src/plan): which join strategy this query resolved
/// to — exactly one of the two is emitted (value 1) per planned spatial
/// join, whether chosen by the cost planner or forced by QueryOptions.
inline constexpr char kPlanStrategyBroadcast[] = "plan.strategy_broadcast";
inline constexpr char kPlanStrategyPartitioned[] = "plan.strategy_partitioned";

/// Columnar scan accounting (text scans have no block structure and do
/// not emit these): blocks whose zone-map was tested, blocks skipped
/// entirely by the zone-map, rows whose envelopes entered the filter
/// phase, and rows whose WKT payload was actually materialized (parsed)
/// because at least one filter candidate survived.
inline constexpr char kScanBlocksTotal[] = "scan.blocks_total";
inline constexpr char kScanBlocksPruned[] = "scan.blocks_pruned";
inline constexpr char kScanRowsScanned[] = "scan.rows_scanned";
inline constexpr char kScanRowsMaterialized[] = "scan.rows_materialized";

}  // namespace cloudjoin::exec::counter

#endif  // CLOUDJOIN_EXEC_COUNTER_NAMES_H_
