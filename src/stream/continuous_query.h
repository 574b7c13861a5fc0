#ifndef CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_
#define CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/histogram.h"
#include "common/result.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/prepare_options.h"
#include "exec/spatial_predicate.h"
#include "exec/table_input.h"
#include "index/probe_options.h"
#include "server/keyed_mutex.h"
#include "server/query_service.h"
#include "stream/stream_event.h"
#include "stream/stream_source.h"
#include "stream/window_grid.h"
#include "stream/window_manager.h"

namespace cloudjoin::stream {

/// Per-continuous-query tuning.
struct StreamQueryOptions {
  WindowSpec window;
  WindowGridOptions grid;
  /// True (default): events are parsed + indexed once on arrival and
  /// expire with their pane (GeoFlink). False: the ablation baseline that
  /// rebuilds the grid from the window contents at every firing.
  bool incremental_index = true;
  index::ProbeOptions probe;
  exec::PrepareOptions prepare;
};

/// One window's join output, pushed to the query's subscriber.
struct WindowResult {
  int64_t query_id = 0;
  int64_t window_index = 0;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  /// Watermark at fire time minus window end — how far behind the stream
  /// this firing ran (>= 0, except flush-fired windows, where the
  /// watermark never reached the end).
  int64_t watermark_lag_ms = 0;
  bool on_flush = false;

  /// Non-OK when the right side could not be resolved (table dropped
  /// mid-stream, file missing); `pairs` is empty then.
  Status status;
  /// Join pairs (left event id, right id) in probe order — byte-identical
  /// to a one-shot batch join over the same window contents.
  std::vector<exec::IdPair> pairs;

  int64_t window_events = 0;
  /// Events refined in this firing: gathered events (window_events minus
  /// cell-level pruning and bad geometries) whose match list was not yet
  /// computed against the current right side.
  int64_t probed_events = 0;
  /// Gathered events whose match list was carried over from an earlier
  /// window (sliding windows share panes); emitted without a probe.
  int64_t reused_events = 0;
  int64_t cells_scanned = 0;
  int64_t cells_pruned = 0;
  bool right_cache_hit = false;
  double probe_seconds = 0.0;
  /// This query's per-window latency distribution so far (count == number
  /// of windows fired); p99 via PercentileSeconds(0.99).
  LatencyHistogram::Snapshot probe_latency_to_date;

  /// The window's events (arrival order), borrowed from the window
  /// manager: valid ONLY during the subscriber callback. Lets
  /// subscribers replay the window through an independent batch join
  /// (the differential arm) without the registry retaining contents.
  const std::vector<const StreamEvent*>* events = nullptr;
};

/// Stream-lifetime telemetry: the additive stream.* counters plus the
/// per-window probe-latency histograms of every query merged into one
/// distribution (LatencyHistogram::Merge — the satellite this PR adds).
struct StreamStats {
  Counters counters;
  LatencyHistogram::Snapshot window_probe_latency;
  std::string ToString() const;
};

/// Resolves the broadcast right side of a continuous query through the
/// service's BroadcastIndexCache under a "stream|" key namespace, with
/// single-flight deduplication of concurrent builds (same KeyedMutex
/// primitive as the SQL provider). A null cache disables caching (every
/// call builds) without changing results.
class CachedRightResolver {
 public:
  using Builder =
      std::function<Result<std::shared_ptr<const exec::BuiltRight>>()>;

  explicit CachedRightResolver(server::BroadcastIndexCache* cache)
      : cache_(cache) {}

  /// Returns the cached artifact for `key`, or builds it via `build` —
  /// once per key across concurrent callers — and inserts it linked to
  /// `table` (so InvalidateTable(table) reaps it). `*cache_hit` reports
  /// which path served.
  Result<std::shared_ptr<const exec::BuiltRight>> GetOrBuild(
      const std::string& key, const std::string& table, const Builder& build,
      bool* cache_hit);

 private:
  server::BroadcastIndexCache* cache_;
  server::KeyedMutex flights_;
};

/// The streaming face of the serving layer: standing `SELECT ... SPATIAL
/// JOIN` queries registered through a `QueryService`'s catalog, evaluated
/// once per closed window against the live feed.
///
/// Each registered query owns a WindowManager (windowing + watermarks +
/// late policy) and, in incremental mode, a WindowGrid that indexes
/// events as they arrive. When a window fires, the registry resolves the
/// query's right side through the service's BroadcastIndexCache (built
/// once, reused across windows and queries — the broadcast side of the
/// paper's join, amortized over the stream), gathers the window contents
/// from the grid (pruned against the right side's filter region), runs
/// the shared exec::RunGeosProbes driver over the events whose memoized
/// match list is missing or stale — refining each event's arrival parse
/// against the right side's kept parses, so no pair re-parses WKT — and
/// pushes the seq-ordered
/// concatenation of every gathered event's matches to the subscriber. An
/// event in P overlapping sliding windows is thus refined once, not P
/// times (DESIGN.md §9, match reuse across panes).
///
/// Thread-safety: Register/Ingest/Flush/GetStats serialize on one mutex;
/// subscribers run under it (keep them cheap). Replacing a table on the
/// service concurrently with Ingest is the caller's race to avoid — the
/// generation-keyed cache makes it safe but not atomic per window.
class ContinuousQueryRegistry {
 public:
  using Subscriber = std::function<void(const WindowResult&)>;

  /// `service` and `fs` must outlive the registry. Tables the queries
  /// reference must be registered on the service.
  ContinuousQueryRegistry(server::QueryService* service,
                          dfs::SimFileSystem* fs);

  /// Validates `sql` against the service catalog (must be a SPATIAL JOIN
  /// without aggregation: left side is the feed, right side the cached
  /// table) and registers it. Returns the query id.
  Result<int64_t> Register(const std::string& sql,
                           const StreamQueryOptions& options,
                           Subscriber subscriber);

  Status Unregister(int64_t query_id);

  /// Offers one event to every registered query; fires any windows the
  /// advancing watermark closes (subscribers run inside this call).
  void Ingest(const StreamEvent& event);

  /// Drains `source` through Ingest; returns events ingested.
  int64_t IngestAll(StreamSource* source);

  /// End of stream: fires every remaining window of every query.
  void Flush();

  StreamStats GetStats() const;

 private:
  struct Query {
    int64_t id = 0;
    std::string sql;
    StreamQueryOptions options;
    exec::SpatialPredicate predicate;
    std::string right_table;
    int right_geometry_column = 1;
    WindowManager manager;
    WindowGrid grid;
    Subscriber subscriber;
    LatencyHistogram probe_latency;
    /// The generation-fenced key of the right side the grid's memos were
    /// computed against, and its epoch: bumped whenever the key changes,
    /// so every older memo turns stale at once.
    std::string right_key;
    int64_t right_epoch = 0;

    Query(const WindowSpec& window, const WindowGridOptions& grid_options)
        : manager(window), grid(grid_options) {}
  };

  /// The right side a firing probes: the table's current catalog
  /// definition and the generation-fenced cache key, read together.
  struct RightSide {
    std::string key;
    exec::TableInput input;
  };

  void OnClosedWindow(Query& query, const ClosedWindow& closed);
  Result<RightSide> CurrentRight(const Query& query) const;
  Result<std::shared_ptr<const exec::BuiltRight>> ResolveRight(
      const Query& query, const RightSide& side, bool* cache_hit);

  server::QueryService* service_;
  dfs::SimFileSystem* fs_;
  CachedRightResolver resolver_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Query>> queries_;
  Counters counters_;
  int64_t next_query_id_ = 1;
};

}  // namespace cloudjoin::stream

#endif  // CLOUDJOIN_STREAM_CONTINUOUS_QUERY_H_
