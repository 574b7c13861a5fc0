#ifndef CLOUDJOIN_STREAM_COUNTER_NAMES_H_
#define CLOUDJOIN_STREAM_COUNTER_NAMES_H_

namespace cloudjoin::stream::counter {

// The stream.* counter taxonomy (DESIGN.md §9). Everything is additive and
// accumulated on the registry's Counters; per-window figures travel on
// WindowResult instead.

/// Events offered to the registry (once per Ingest call, regardless of how
/// many continuous queries are registered).
inline constexpr char kEventsIngested[] = "stream.events_ingested";
/// Events accepted into some query's window state (counted per query).
inline constexpr char kEventsAccepted[] = "stream.events_accepted";
/// Events dropped by the bounded late policy: every window that could
/// contain them had already fired (counted per query).
inline constexpr char kLateDropped[] = "stream.late_dropped";
/// Accepted events whose WKT failed to parse; they occupy window
/// membership but never probe (same drop the batch scan applies).
inline constexpr char kBadGeom[] = "stream.bad_geom";
/// Windows fired (watermark passed their end, or Flush).
inline constexpr char kWindowsFired[] = "stream.windows_fired";
/// Fired windows that contained no events.
inline constexpr char kWindowsEmpty[] = "stream.windows_empty";
/// Events released when their last containing window fired.
inline constexpr char kEventsExpired[] = "stream.events_expired";
/// Non-empty grid cells consulted while gathering window contents.
inline constexpr char kCellsScanned[] = "stream.cells_scanned";
/// Non-empty cells skipped because their content envelope cannot meet the
/// right side's filter region (output-neutral pruning).
inline constexpr char kCellsPruned[] = "stream.cells_pruned";
/// Events inside pruned cells (the probe work avoided).
inline constexpr char kEventsPruned[] = "stream.events_pruned";
/// Gathered events refined in their firing: their match list was missing
/// (new or late arrival, rebuilt grid) or computed against an older right
/// side. With the incremental index and an unchanged right side, each
/// gathered event counts here exactly once.
inline constexpr char kEventsProbed[] = "stream.events_probed";
/// Gathered events whose match list was carried over from an earlier
/// window instead of being probed again (sliding windows share panes;
/// always 0 for tumbling windows and for the rebuild baseline).
inline constexpr char kEventsReused[] = "stream.events_reused";
/// Windows whose grid was rebuilt from scratch (the ablation baseline;
/// always 0 with the incremental index).
inline constexpr char kGridRebuilds[] = "stream.grid_rebuilds";
/// Right-side resolutions served from BroadcastIndexCache.
inline constexpr char kRightCacheHits[] = "stream.right_cache_hit";
/// Right-side resolutions that built (cache miss or cache disabled).
inline constexpr char kRightCacheMisses[] = "stream.right_cache_miss";
/// Join pairs pushed to subscribers across all windows.
inline constexpr char kPairsEmitted[] = "stream.pairs_emitted";

}  // namespace cloudjoin::stream::counter

#endif  // CLOUDJOIN_STREAM_COUNTER_NAMES_H_
