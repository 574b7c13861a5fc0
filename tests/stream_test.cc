#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dfs/sim_file_system.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/right_builder.h"
#include "exec/table_input.h"
#include "geom/envelope.h"
#include "join/isp_mc_system.h"
#include "server/broadcast_index_cache.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/counter_names.h"
#include "stream/stream_event.h"
#include "stream/stream_source.h"
#include "stream/window_grid.h"
#include "stream/window_manager.h"

namespace cloudjoin::stream {
namespace {

using IdPair = exec::IdPair;

StreamEvent Event(int64_t id, int64_t t, std::string wkt = "POINT (0 0)") {
  StreamEvent event;
  event.id = id;
  event.event_time_ms = t;
  event.wkt = std::move(wkt);
  return event;
}

// ---------------------------------------------------------------------------
// WindowSpec

TEST(WindowSpecTest, ValidatesTumblingAndSliding) {
  WindowSpec tumbling;
  tumbling.size_ms = 1000;
  EXPECT_TRUE(tumbling.Validate().ok());
  EXPECT_EQ(tumbling.SlideMs(), 1000);
  EXPECT_EQ(tumbling.PanesPerWindow(), 1);

  WindowSpec sliding;
  sliding.size_ms = 1000;
  sliding.slide_ms = 250;
  sliding.allowed_lateness_ms = 50;
  EXPECT_TRUE(sliding.Validate().ok());
  EXPECT_EQ(sliding.PanesPerWindow(), 4);
}

TEST(WindowSpecTest, RejectsDegenerateSpecs) {
  WindowSpec spec;
  spec.size_ms = 0;
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.size_ms = 1000;
  spec.slide_ms = 300;  // does not divide size
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.size_ms = 100;
  spec.slide_ms = 200;  // slide > size would leave gaps
  EXPECT_FALSE(spec.Validate().ok());

  spec = WindowSpec();
  spec.allowed_lateness_ms = -1;
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(WindowSpecTest, FloorDivIsNegativeSafe) {
  EXPECT_EQ(FloorDiv(7, 10), 0);
  EXPECT_EQ(FloorDiv(10, 10), 1);
  EXPECT_EQ(FloorDiv(-1, 10), -1);
  EXPECT_EQ(FloorDiv(-10, 10), -1);
  EXPECT_EQ(FloorDiv(-11, 10), -2);
}

// ---------------------------------------------------------------------------
// WindowManager

struct FiredWindow {
  int64_t index = 0;
  int64_t start_ms = 0;
  int64_t end_ms = 0;
  bool on_flush = false;
  std::vector<int64_t> ids;  // in arrival (seq) order
  int64_t expiring = 0;
};

class WindowRecorder {
 public:
  WindowManager::WindowFn Fn() {
    return [this](const ClosedWindow& closed) {
      FiredWindow fired;
      fired.index = closed.index;
      fired.start_ms = closed.start_ms;
      fired.end_ms = closed.end_ms;
      fired.on_flush = closed.on_flush;
      fired.expiring = closed.expiring_events;
      for (const StreamEvent* event : closed.events) {
        fired.ids.push_back(event->id);
      }
      windows.push_back(std::move(fired));
    };
  }

  std::vector<FiredWindow> windows;
};

TEST(WindowManagerTest, TumblingFiresInOrderWithContents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 1), rec.Fn());
  manager.Observe(Event(2, 5), rec.Fn());
  EXPECT_TRUE(rec.windows.empty());  // watermark 5 < end 10

  manager.Observe(Event(3, 12), rec.Fn());  // watermark 12 closes [0,10)
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].index, 0);
  EXPECT_EQ(rec.windows[0].start_ms, 0);
  EXPECT_EQ(rec.windows[0].end_ms, 10);
  EXPECT_FALSE(rec.windows[0].on_flush);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rec.windows[0].expiring, 2);

  manager.Observe(Event(4, 25), rec.Fn());  // closes [10,20)
  ASSERT_EQ(rec.windows.size(), 2u);
  EXPECT_EQ(rec.windows[1].ids, (std::vector<int64_t>{3}));

  manager.Flush(rec.Fn());  // [20,30) still holds event 4
  ASSERT_EQ(rec.windows.size(), 3u);
  EXPECT_TRUE(rec.windows[2].on_flush);
  EXPECT_EQ(rec.windows[2].ids, (std::vector<int64_t>{4}));
  EXPECT_EQ(manager.live_events(), 0);
}

TEST(WindowManagerTest, FiresEmptyWindowsBetweenSparseEvents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 5), rec.Fn());
  manager.Observe(Event(2, 45), rec.Fn());
  // Watermark 45 closes [0,10) [10,20) [20,30) [30,40): one full, three
  // empty — subscribers see the silence, not a gap in window indexes.
  ASSERT_EQ(rec.windows.size(), 4u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1}));
  for (size_t w = 1; w < 4; ++w) {
    EXPECT_TRUE(rec.windows[w].ids.empty());
    EXPECT_EQ(rec.windows[w].index, static_cast<int64_t>(w));
  }
}

TEST(WindowManagerTest, SlidingEventBelongsToAllOverlappingWindows) {
  WindowSpec spec;
  spec.size_ms = 20;
  spec.slide_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 15), rec.Fn());  // pane 1: windows [0,20),[10,30)
  manager.Observe(Event(2, 40), rec.Fn());
  ASSERT_EQ(rec.windows.size(), 3u);  // ends 20, 30, 40
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1}));
  EXPECT_EQ(rec.windows[0].expiring, 0);  // pane 0 empty
  EXPECT_EQ(rec.windows[1].ids, (std::vector<int64_t>{1}));
  EXPECT_EQ(rec.windows[1].expiring, 1);  // pane 1 expires with window 1
  EXPECT_TRUE(rec.windows[2].ids.empty());
}

TEST(WindowManagerTest, LatenessDelaysFiring) {
  WindowSpec spec;
  spec.size_ms = 10;
  spec.allowed_lateness_ms = 5;
  WindowManager manager(spec);
  WindowRecorder rec;

  manager.Observe(Event(1, 3), rec.Fn());
  manager.Observe(Event(2, 12), rec.Fn());
  EXPECT_TRUE(rec.windows.empty());  // watermark 12 - 5 = 7 < 10

  // A straggler for [0,10) is still accepted...
  WindowManager::Observed late = manager.Observe(Event(3, 8), rec.Fn());
  EXPECT_NE(late.event, nullptr);

  manager.Observe(Event(4, 16), rec.Fn());  // watermark 11 fires [0,10)
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 3}));
}

TEST(WindowManagerTest, BoundedLatePolicyDropsOnlyUnwindowedEvents) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  // First accepted event anchors firing at its own earliest window
  // ([20,30)); there is no back-fill of empty windows before any data.
  manager.Observe(Event(1, 25), rec.Fn());
  ASSERT_EQ(rec.windows.size(), 0u);

  // Every window containing t=15 precedes the anchor: dropped.
  WindowManager::Observed dropped = manager.Observe(Event(2, 15), rec.Fn());
  EXPECT_EQ(dropped.event, nullptr);

  // t=22 falls in the un-fired [20,30): accepted even though it is behind
  // the watermark.
  WindowManager::Observed kept = manager.Observe(Event(3, 22), rec.Fn());
  EXPECT_NE(kept.event, nullptr);

  manager.Flush(rec.Fn());
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 3}));
}

TEST(WindowManagerTest, ContentsSortedByArrivalNotEventTime) {
  WindowSpec spec;
  spec.size_ms = 10;
  WindowManager manager(spec);
  WindowRecorder rec;

  // Out-of-order event times within one window; contents must come back
  // in arrival order (what a batch scan of the same rows would probe).
  manager.Observe(Event(1, 8), rec.Fn());
  manager.Observe(Event(2, 3), rec.Fn());
  manager.Observe(Event(3, 6), rec.Fn());
  manager.Flush(rec.Fn());
  ASSERT_EQ(rec.windows.size(), 1u);
  EXPECT_EQ(rec.windows[0].ids, (std::vector<int64_t>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// WindowGrid

class WindowGridTest : public ::testing::Test {
 protected:
  /// Parses and indexes one point event into `pane`, keeping the backing
  /// StreamEvent alive for the grid's borrowed pointer.
  void Insert(WindowGrid* grid, int64_t pane, int64_t seq, int64_t id,
              double x, double y) {
    char wkt[64];
    std::snprintf(wkt, sizeof(wkt), "POINT (%g %g)", x, y);
    events_.push_back(std::make_unique<StreamEvent>(Event(id, 0, wkt)));
    events_.back()->seq = seq;
    auto parsed = exec::ParseGeosWkt(wkt);
    ASSERT_TRUE(parsed.ok());
    WindowGrid::EventRef ref;
    ref.seq = seq;
    ref.id = id;
    ref.event = events_.back().get();
    ref.geom = std::move(parsed).value();
    grid->Insert(pane, std::move(ref));
  }

  static std::vector<int64_t> GatherSeqs(
      WindowGrid& grid, int64_t first_pane, int64_t last_pane,
      const geom::Envelope& region, WindowGrid::GatherStats* stats) {
    std::vector<WindowGrid::EventRef*> refs;
    WindowGrid::GatherStats local;
    grid.Gather(first_pane, last_pane, region, &refs,
                stats != nullptr ? stats : &local);
    std::vector<int64_t> seqs;
    for (const WindowGrid::EventRef* ref : refs) seqs.push_back(ref->seq);
    return seqs;
  }

  std::vector<std::unique_ptr<StreamEvent>> events_;
};

TEST_F(WindowGridTest, GatherRestoresArrivalOrderAcrossCellsAndPanes) {
  WindowGridOptions options;
  options.cells_per_axis = 4;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);

  // Seqs deliberately scattered over distant cells and two panes.
  Insert(&grid, /*pane=*/1, /*seq=*/4, 40, 90, 90);
  Insert(&grid, /*pane=*/0, /*seq=*/2, 20, 10, 10);
  Insert(&grid, /*pane=*/0, /*seq=*/3, 30, 90, 10);
  Insert(&grid, /*pane=*/1, /*seq=*/1, 10, 10, 90);

  geom::Envelope everywhere(0, 0, 100, 100);
  EXPECT_EQ(GatherSeqs(grid, 0, 1, everywhere, nullptr),
            (std::vector<int64_t>{1, 2, 3, 4}));
  // Pane-bounded gather: only pane 0's refs.
  EXPECT_EQ(GatherSeqs(grid, 0, 0, everywhere, nullptr),
            (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(grid.live_events(), 4);
  EXPECT_EQ(grid.live_panes(), 2);
}

TEST_F(WindowGridTest, GatherPrunesCellsDisjointFromRegion) {
  WindowGridOptions options;
  options.cells_per_axis = 10;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);

  Insert(&grid, 0, /*seq=*/1, 1, 5, 5);
  Insert(&grid, 0, /*seq=*/2, 2, 95, 95);

  WindowGrid::GatherStats stats;
  EXPECT_EQ(GatherSeqs(grid, 0, 0, geom::Envelope(0, 0, 12, 12), &stats),
            (std::vector<int64_t>{1}));
  EXPECT_EQ(stats.cells_scanned, 2);  // both non-empty cells consulted
  EXPECT_EQ(stats.cells_pruned, 1);
  EXPECT_EQ(stats.events_pruned, 1);

  // An empty region (empty right side) gathers nothing at all.
  EXPECT_TRUE(GatherSeqs(grid, 0, 0, geom::Envelope(), &stats).empty());
}

TEST_F(WindowGridTest, ExpirePaneReleasesOnlyThatPane) {
  WindowGridOptions options;
  options.extent = geom::Envelope(0, 0, 100, 100);
  WindowGrid grid(options);
  Insert(&grid, 0, /*seq=*/1, 1, 5, 5);
  Insert(&grid, 0, /*seq=*/2, 2, 50, 50);
  Insert(&grid, 1, /*seq=*/3, 3, 60, 60);

  EXPECT_EQ(grid.ExpirePane(0), 2);
  EXPECT_EQ(grid.live_events(), 1);
  EXPECT_EQ(GatherSeqs(grid, 0, 1, geom::Envelope(0, 0, 100, 100), nullptr),
            (std::vector<int64_t>{3}));
  EXPECT_EQ(grid.ExpirePane(1), 1);
  EXPECT_EQ(grid.live_panes(), 0);
}

TEST_F(WindowGridTest, EmptyExtentDegradesToOneCellWithoutLoss) {
  WindowGrid grid(WindowGridOptions{});  // empty extent -> single cell
  Insert(&grid, 0, /*seq=*/1, 1, -1e9, 1e9);
  Insert(&grid, 0, /*seq=*/2, 2, 7, 7);
  EXPECT_EQ(GatherSeqs(grid, 0, 0, geom::Envelope(0, 0, 10, 10), nullptr),
            (std::vector<int64_t>{1, 2}));
}

// ---------------------------------------------------------------------------
// Sources

TEST(SyntheticPointSourceTest, IdenticalOptionsReplayIdentically) {
  SyntheticPointSourceOptions options;
  options.num_events = 200;
  options.events_per_second = 1000.0;
  options.seed = 42;
  options.out_of_order_fraction = 0.2;
  options.max_delay_ms = 50;
  SyntheticPointSource a(options);
  SyntheticPointSource b(options);

  StreamEvent ea;
  StreamEvent eb;
  int64_t count = 0;
  while (a.Next(&ea)) {
    ASSERT_TRUE(b.Next(&eb));
    EXPECT_EQ(ea.id, eb.id);
    EXPECT_EQ(ea.wkt, eb.wkt);
    EXPECT_EQ(ea.event_time_ms, eb.event_time_ms);
    ++count;
  }
  EXPECT_FALSE(b.Next(&eb));
  EXPECT_EQ(count, 200);
}

TEST(SyntheticPointSourceTest, BurstAdvancesClockInJumps) {
  SyntheticPointSourceOptions options;
  options.num_events = 8;
  options.events_per_second = 1000.0;  // 1ms spacing
  options.burst = 4;
  options.out_of_order_fraction = 0.0;
  SyntheticPointSource source(options);

  std::vector<int64_t> times;
  StreamEvent event;
  while (source.Next(&event)) times.push_back(event.event_time_ms);
  EXPECT_EQ(times, (std::vector<int64_t>{0, 0, 0, 0, 4, 4, 4, 4}));
}

TEST(TableReplaySourceTest, ReplaysRowsInOrderAtConfiguredRate) {
  dfs::SimFileSystem fs(2, 4 * 1024);
  ASSERT_TRUE(fs.WriteTextFile("/t/pts.tbl", {"7\tPOINT (1 1)",
                                              "8\tPOINT (2 2)",
                                              "9\tPOINT (3 3)"})
                  .ok());
  exec::TableInput input;
  input.path = "/t/pts.tbl";
  TableReplaySource::Options options;
  options.events_per_second = 500.0;  // 2ms spacing

  auto source = TableReplaySource::Open(fs, input, options);
  ASSERT_TRUE(source.ok()) << source.status();
  EXPECT_EQ(source->num_rows(), 3);

  StreamEvent event;
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 7);
  EXPECT_EQ(event.wkt, "POINT (1 1)");
  EXPECT_EQ(event.event_time_ms, 0);
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 8);
  EXPECT_EQ(event.event_time_ms, 2);
  ASSERT_TRUE(source->Next(&event));
  EXPECT_EQ(event.id, 9);
  EXPECT_EQ(event.event_time_ms, 4);
  EXPECT_FALSE(source->Next(&event));
}

// ---------------------------------------------------------------------------
// CachedRightResolver

TEST(CachedRightResolverTest, NullCacheBuildsEveryCall) {
  CachedRightResolver resolver(nullptr);
  auto built = std::make_shared<const exec::BuiltRight>();
  int builds = 0;
  const CachedRightResolver::Builder builder = [&]() {
    ++builds;
    return Result<std::shared_ptr<const exec::BuiltRight>>(built);
  };

  bool hit = true;
  ASSERT_TRUE(resolver.GetOrBuild("k", "t", builder, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(resolver.GetOrBuild("k", "t", builder, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds, 2);
}

TEST(CachedRightResolverTest, CachesAndSingleFlightsConcurrentBuilds) {
  server::BroadcastIndexCache cache(
      {/*capacity_bytes=*/1 << 20, /*num_shards=*/1});
  CachedRightResolver resolver(&cache);
  auto built = std::make_shared<const exec::BuiltRight>();
  std::atomic<int> builds{0};
  const CachedRightResolver::Builder builder = [&]() {
    ++builds;
    return Result<std::shared_ptr<const exec::BuiltRight>>(built);
  };

  // Many threads race the same key: the flight mutex plus the re-lookup
  // under it must collapse them into a single build.
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&]() {
      bool hit = false;
      auto result = resolver.GetOrBuild("k", "t", builder, &hit);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().get(), built.get());
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);

  bool hit = false;
  ASSERT_TRUE(resolver.GetOrBuild("k", "t", builder, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(builds.load(), 1);

  // Invalidation reaps by table: the next resolve rebuilds.
  EXPECT_EQ(cache.InvalidateTable("t"), 1);
  ASSERT_TRUE(resolver.GetOrBuild("k", "t", builder, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 2);
}

// ---------------------------------------------------------------------------
// ContinuousQueryRegistry end-to-end

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : fs_(2, 16 * 1024) {
    // Right side: two unit squares far apart. Left table exists only so
    // the SQL validates; the feed replaces its rows.
    CLOUDJOIN_CHECK(
        fs_.WriteTextFile(
               "/t/right.tbl",
               {"1\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
                "2\tPOLYGON ((20 20, 30 20, 30 30, 20 30, 20 20))"})
            .ok());
    CLOUDJOIN_CHECK(
        fs_.WriteTextFile("/t/left.tbl", {"0\tPOINT (1 1)"}).ok());
    server::ServiceOptions options;
    options.num_threads = 1;
    service_ = std::make_unique<server::QueryService>(&fs_, options);
    join::TableInput left;
    left.path = "/t/left.tbl";
    join::TableInput right;
    right.path = "/t/right.tbl";
    CLOUDJOIN_CHECK(service_->RegisterTable("lt", left).ok());
    CLOUDJOIN_CHECK(service_->RegisterTable("rt", right).ok());
  }

  static std::string WithinSql() {
    return "SELECT lt.id, rt.id FROM lt SPATIAL JOIN rt WHERE " +
           join::PredicateSql(exec::SpatialPredicate::Within(), "lt", "rt");
  }

  StreamQueryOptions TumblingOptions(int64_t size_ms) {
    StreamQueryOptions options;
    options.window.size_ms = size_ms;
    options.grid.extent = geom::Envelope(0, 0, 30, 30);
    options.grid.cells_per_axis = 4;
    return options;
  }

  /// 20 ms windows sliding by 5 ms: every event lies in 4 windows.
  StreamQueryOptions FourPaneOptions() {
    StreamQueryOptions options = TumblingOptions(20);
    options.window.slide_ms = 5;
    return options;
  }

  /// The pairs a one-shot batch join of `events` against the table at
  /// `path` emits — the oracle a window's output must equal byte for byte.
  std::vector<IdPair> OneShotPairs(
      const std::vector<const StreamEvent*>& events, const std::string& path) {
    auto file = fs_.GetFile(path);
    CLOUDJOIN_CHECK(file.ok());
    exec::TableInput input;
    input.path = path;
    const exec::SpatialPredicate predicate = exec::SpatialPredicate::Within();
    Counters counters;
    auto right = exec::BuildRightFromTable(**file, input,
                                           predicate.FilterRadius(),
                                           exec::PrepareOptions(), &counters);
    CLOUDJOIN_CHECK(right.ok());
    exec::GeosProbeBatch batch;
    for (const StreamEvent* event : events) {
      auto parsed = exec::ParseGeosWkt(event->wkt);
      if (!parsed.ok()) continue;
      batch.ids.push_back(event->id);
      batch.wkt.push_back(event->wkt);
      batch.geoms.push_back(std::move(parsed).value());
    }
    std::vector<IdPair> pairs;
    exec::ProbeStats stats;
    exec::RunGeosProbes(
        batch, *right, predicate, index::ProbeOptions(),
        [&](IdPair pair) { pairs.push_back(pair); }, &stats);
    return pairs;
  }

  dfs::SimFileSystem fs_;
  std::unique_ptr<server::QueryService> service_;
};

TEST_F(RegistryTest, WindowedJoinMatchesHandComputedPairs) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok())
                                    << result.status;
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 1, "POINT (5 5)"));     // in square 1
  registry.Ingest(Event(101, 3, "POINT (25 25)"));   // in square 2
  registry.Ingest(Event(102, 12, "POINT (15 15)"));  // in neither
  registry.Ingest(Event(103, 14, "POINT (2 2)"));    // in square 1
  registry.Flush();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].window_index, 0);
  EXPECT_EQ(results[0].pairs,
            (std::vector<IdPair>{{100, 1}, {101, 2}}));
  EXPECT_EQ(results[0].window_events, 2);
  EXPECT_FALSE(results[0].on_flush);
  EXPECT_TRUE(results[1].on_flush);
  EXPECT_EQ(results[1].pairs, (std::vector<IdPair>{{103, 1}}));

  // Second window served its right side from the cache.
  EXPECT_TRUE(results[1].right_cache_hit);
  StreamStats stats = registry.GetStats();
  EXPECT_EQ(stats.counters.Get(counter::kEventsIngested), 4);
  EXPECT_EQ(stats.counters.Get(counter::kWindowsFired), 2);
  EXPECT_EQ(stats.counters.Get(counter::kPairsEmitted), 3);
  EXPECT_EQ(stats.counters.Get(counter::kRightCacheHits), 1);
  EXPECT_EQ(stats.window_probe_latency.count, 2);
}

TEST_F(RegistryTest, IncrementalAndRebuildModesAgree) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<std::vector<IdPair>> pairs[2];
  for (int arm = 0; arm < 2; ++arm) {
    StreamQueryOptions options = TumblingOptions(10);
    options.window.slide_ms = 5;  // sliding: every event in two windows
    options.incremental_index = arm == 0;
    auto id = registry.Register(WithinSql(), options,
                                [&pairs, arm](const WindowResult& result) {
                                  pairs[arm].push_back(result.pairs);
                                });
    ASSERT_TRUE(id.ok()) << id.status();
  }

  registry.Ingest(Event(100, 2, "POINT (5 5)"));
  registry.Ingest(Event(101, 7, "POINT (25 25)"));
  registry.Ingest(Event(102, 13, "POINT (8 8)"));
  registry.Ingest(Event(103, 30, "POINT (21 29)"));
  registry.Flush();

  EXPECT_GT(pairs[0].size(), 2u);
  EXPECT_EQ(pairs[0], pairs[1]);
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kGridRebuilds),
            static_cast<int64_t>(pairs[1].size()));
}

TEST_F(RegistryTest, SlidingWindowsProbeEachEventOnce) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  struct Fired {
    std::vector<IdPair> pairs;
    int64_t probed = 0;
    int64_t reused = 0;
  };
  std::vector<Fired> fired[2];
  for (int arm = 0; arm < 2; ++arm) {
    StreamQueryOptions options = FourPaneOptions();
    options.incremental_index = arm == 0;
    auto id = registry.Register(WithinSql(), options,
                                [&fired, arm](const WindowResult& result) {
                                  ASSERT_TRUE(result.status.ok());
                                  fired[arm].push_back({result.pairs,
                                                        result.probed_events,
                                                        result.reused_events});
                                });
    ASSERT_TRUE(id.ok()) << id.status();
  }

  // 40 in-order events over 80 ms: a third in square 1, a third in
  // square 2, the rest in neither, every seventh unparseable. All lie in
  // the right side's bounds, so no grid cell is pruned.
  int64_t parseable = 0;
  for (int64_t i = 0; i < 40; ++i) {
    std::string wkt;
    if (i % 7 == 3) {
      wkt = "POINT (banana)";
    } else {
      ++parseable;
      const double offset = 0.5 + static_cast<double>(i % 9);
      char buf[64];
      switch (i % 3) {
        case 0:
          std::snprintf(buf, sizeof(buf), "POINT (%g 5)", offset);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf), "POINT (25 %g)", 20.0 + offset);
          break;
        default:
          std::snprintf(buf, sizeof(buf), "POINT (15 %g)", offset);
          break;
      }
      wkt = buf;
    }
    registry.Ingest(Event(100 + i, 2 * i + 1, wkt));
  }
  registry.Flush();

  ASSERT_EQ(fired[0].size(), fired[1].size());
  ASSERT_GT(fired[0].size(), 4u);
  int64_t probed[2] = {0, 0};
  int64_t reused[2] = {0, 0};
  for (size_t w = 0; w < fired[0].size(); ++w) {
    EXPECT_EQ(fired[0][w].pairs, fired[1][w].pairs) << "window " << w;
    for (int arm = 0; arm < 2; ++arm) {
      probed[arm] += fired[arm][w].probed;
      reused[arm] += fired[arm][w].reused;
    }
  }
  // Incremental: each parseable event is refined by the first window
  // containing it and reused by its other three.
  EXPECT_EQ(probed[0], parseable);
  EXPECT_EQ(reused[0], 3 * parseable);
  // Rebuild baseline: fresh refs every window, so all four windows probe.
  EXPECT_EQ(probed[1], 4 * parseable);
  EXPECT_EQ(reused[1], 0);

  const StreamStats stats = registry.GetStats();
  EXPECT_EQ(stats.counters.Get(counter::kEventsProbed), 5 * parseable);
  EXPECT_EQ(stats.counters.Get(counter::kEventsReused), 3 * parseable);
  EXPECT_NE(stats.ToString().find("events_reused=" +
                                  std::to_string(3 * parseable)),
            std::string::npos);
  // Both arms refine against the cached right side's kept parses: no pair
  // re-parses WKT.
  EXPECT_GT(stats.counters.Get(exec::counter::kCandidates), 0);
  EXPECT_EQ(stats.counters.Get(exec::counter::kRefineReparsed), 0);
}

TEST_F(RegistryTest, LateEventIsProbedByTheNextFiring) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  StreamQueryOptions options = FourPaneOptions();
  options.window.allowed_lateness_ms = 10;
  auto id = registry.Register(WithinSql(), options,
                              [&](const WindowResult& result) {
                                ASSERT_TRUE(result.status.ok());
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok()) << id.status();
  auto window = [&](int64_t index) -> const WindowResult* {
    for (const WindowResult& result : results) {
      if (result.window_index == index) return &result;
    }
    return nullptr;
  };

  registry.Ingest(Event(100, 1, "POINT (5 5)"));    // pane 0
  registry.Ingest(Event(101, 16, "POINT (25 25)"));  // pane 3
  registry.Ingest(Event(102, 31, "POINT (6 6)"));    // fires windows <= 0
  const WindowResult* w0 = window(0);
  ASSERT_NE(w0, nullptr);  // [0,20): panes 0-3, pane 3 already probed
  EXPECT_EQ(w0->pairs, (std::vector<IdPair>{{100, 1}, {101, 2}}));
  ASSERT_EQ(window(1), nullptr);

  // Late into pane 3, whose windows 1-3 have not fired yet.
  registry.Ingest(Event(103, 17, "POINT (2 2)"));
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kLateDropped), 0);
  registry.Ingest(Event(104, 36, "POINT (7 7)"));  // fires window 1
  const WindowResult* w1 = window(1);
  ASSERT_NE(w1, nullptr);  // [5,25): panes 1-4 hold events 101 and 103
  EXPECT_EQ(w1->probed_events, 1);  // only the late arrival
  EXPECT_EQ(w1->reused_events, 1);
  EXPECT_EQ(w1->pairs, (std::vector<IdPair>{{101, 2}, {103, 1}}));
  registry.Flush();

  // Every later window containing pane 3 carries the late event's match,
  // reused rather than probed again.
  for (int64_t index : {2, 3}) {
    const WindowResult* w = window(index);
    ASSERT_NE(w, nullptr);
    EXPECT_NE(std::find(w->pairs.begin(), w->pairs.end(), IdPair{103, 1}),
              w->pairs.end())
        << "window " << index;
  }
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kEventsProbed), 5);
}

TEST_F(RegistryTest, ReplacedRightSideReprobesTheWholeWindow) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  bool replaced = false;
  int checked = 0;
  IdPair saw_105(0, 0);
  auto id = registry.Register(
      WithinSql(), FourPaneOptions(), [&](const WindowResult& result) {
        ASSERT_TRUE(result.status.ok());
        if (!replaced) return;
        if (checked++ == 0) {
          // The first firing after the swap refines all its events.
          EXPECT_EQ(result.probed_events, result.window_events);
          EXPECT_EQ(result.reused_events, 0);
          EXPECT_GT(result.window_events, 1);
        }
        EXPECT_EQ(result.pairs, OneShotPairs(*result.events, "/t/right2.tbl"))
            << "window " << result.window_index;
        for (const IdPair& pair : result.pairs) {
          if (pair.first == 105) saw_105 = pair;
        }
      });
  ASSERT_TRUE(id.ok()) << id.status();

  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Ingest(Event(101, 8, "POINT (25 25)"));
  registry.Ingest(Event(102, 14, "POINT (15 15)"));
  registry.Ingest(Event(103, 22, "POINT (2 2)"));  // fires [.., 20)
  // Re-register the right table under a new file holding one polygon
  // that covers every event, so each memo computed against the old
  // contents is now wrong and the rebuild must read the new path.
  ASSERT_TRUE(fs_.WriteTextFile("/t/right2.tbl",
                                {"7\tPOLYGON ((0 0, 30 0, 30 30, 0 30, 0 0))"})
                  .ok());
  join::TableInput right;
  right.path = "/t/right2.tbl";
  ASSERT_TRUE(service_->RegisterTable("rt", right).ok());
  replaced = true;
  registry.Ingest(Event(104, 27, "POINT (21 29)"));
  registry.Ingest(Event(105, 40, "POINT (9 9)"));
  registry.Flush();
  EXPECT_GT(checked, 3);
  EXPECT_EQ(saw_105, IdPair(105, 7));
}

TEST_F(RegistryTest, BadGeometryEventsAreDroppedNotFatal) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok());

  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  registry.Ingest(Event(101, 2, "POINT (banana)"));
  registry.Flush();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].pairs, (std::vector<IdPair>{{100, 1}}));
  EXPECT_EQ(results[0].window_events, 2);  // still a window member
  EXPECT_EQ(registry.GetStats().counters.Get(counter::kBadGeom), 1);
}

TEST_F(RegistryTest, LateEventsCountedAndExcluded) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  std::vector<WindowResult> results;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult& result) {
                                results.push_back(result);
                              });
  ASSERT_TRUE(id.ok());

  registry.Ingest(Event(100, 25, "POINT (5 5)"));  // fires [0,10), [10,20)
  registry.Ingest(Event(101, 3, "POINT (5 5)"));   // all its windows fired
  registry.Flush();

  EXPECT_EQ(registry.GetStats().counters.Get(counter::kLateDropped), 1);
  for (const WindowResult& result : results) {
    for (const IdPair& pair : result.pairs) EXPECT_NE(pair.first, 101);
  }
}

TEST_F(RegistryTest, RegisterRejectsUnsuitableQueries) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  const ContinuousQueryRegistry::Subscriber ignore =
      [](const WindowResult&) {};
  StreamQueryOptions options = TumblingOptions(10);

  // Not a spatial join.
  EXPECT_FALSE(
      registry.Register("SELECT lt.id FROM lt", options, ignore).ok());
  // Unknown table.
  EXPECT_FALSE(registry
                   .Register("SELECT zz.id, rt.id FROM zz SPATIAL JOIN rt "
                             "WHERE ST_WITHIN(zz.geom, rt.geom)",
                             options, ignore)
                   .ok());
  // Aggregation is a batch concern; the stream emits raw pairs.
  EXPECT_FALSE(registry
                   .Register("SELECT COUNT(*) AS n FROM lt SPATIAL JOIN rt "
                             "WHERE ST_WITHIN(lt.geom, rt.geom)",
                             options, ignore)
                   .ok());
  // Invalid window spec.
  options.window.slide_ms = 3;
  EXPECT_FALSE(registry.Register(WithinSql(), options, ignore).ok());
}

TEST_F(RegistryTest, UnregisterStopsDelivery) {
  ContinuousQueryRegistry registry(service_.get(), &fs_);
  int windows = 0;
  auto id = registry.Register(WithinSql(), TumblingOptions(10),
                              [&](const WindowResult&) { ++windows; });
  ASSERT_TRUE(id.ok());
  registry.Ingest(Event(100, 1, "POINT (5 5)"));
  ASSERT_TRUE(registry.Unregister(id.value()).ok());
  EXPECT_FALSE(registry.Unregister(id.value()).ok());
  registry.Ingest(Event(101, 50, "POINT (5 5)"));
  registry.Flush();
  EXPECT_EQ(windows, 0);
}

}  // namespace
}  // namespace cloudjoin::stream
