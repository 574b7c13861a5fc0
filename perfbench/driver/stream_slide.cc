// stream-slide: one thread ingests a seeded hotspot point feed through a
// sliding 800/200 ms continuous SPATIAL JOIN against census blocks. Each
// fired window is one op. The window grid takes an insert per event and
// expires a pane per slide; between those writes each window probes the
// cached right side through exec::RunGeosProbes.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "driver/report.h"
#include "driver/trace.h"
#include "driver/workloads.h"
#include "exec/geo_parse.h"
#include "exec/probe_scanner.h"
#include "exec/right_builder.h"
#include "join/isp_mc_system.h"
#include "server/query_service.h"
#include "stream/continuous_query.h"
#include "stream/counter_names.h"
#include "stream/stream_source.h"

namespace cloudjoin::perfbench {
namespace {

constexpr double kScale = 0.05;
/// Events per pass of the feed; every timed pass replays the same feed
/// through a fresh registry, so the set-up oracle covers all of them.
constexpr int64_t kFeedEvents = 20000;
/// Event-time rate of the feed: 400 events per 200 ms slide.
constexpr double kEventsPerSecond = 2000.0;
/// Events of the feed ingested by the set-up warm-up registry.
constexpr int64_t kWarmEvents = 4000;

/// Order-sensitive digest of one window's pair list.
struct WindowDigest {
  uint64_t hash = 0;
  int64_t pairs = 0;
  bool operator==(const WindowDigest&) const = default;
};

WindowDigest DigestOf(const std::vector<exec::IdPair>& pairs) {
  WindowDigest d;
  for (const exec::IdPair& pair : pairs) {
    d.hash ^= static_cast<uint64_t>(pair.first) + 0x9E3779B97F4A7C15ULL +
              (d.hash << 6) + (d.hash >> 2);
    d.hash ^= static_cast<uint64_t>(pair.second) + 0x9E3779B97F4A7C15ULL +
              (d.hash << 6) + (d.hash >> 2);
  }
  d.pairs = static_cast<int64_t>(pairs.size());
  return d;
}

/// Everything one set-up builds; the last one serves the timed phase.
struct Deployment {
  std::unique_ptr<dfs::SimFileSystem> fs;
  std::unique_ptr<server::QueryService> service;
  data::Workload workload;
};

class StreamSlide {
 public:
  StreamSlide(const RunConfig& config, BenchRun* run)
      : config_(config), run_(run) {}

  bool Run() {
    run_->scale = kScale;
    MakeFeed();
    Tracer::Get().set_enabled(config_.trace);
    for (int i = 0; i < kSetups; ++i) {
      if (!SetUp()) return false;
    }
    Tracer::Get().set_enabled(false);
    if (!ComputeReferences()) return false;

    if (!RunTimedRounds(config_, run_, /*rotate_cpu=*/true,
                        [&](int64_t round, bool traced) {
                          return RunPass(round, traced);
                        })) {
      return false;
    }
    for (const auto& [name, value] : counters_) {
      run_->values[name] = static_cast<double>(value);
    }
    return true;
  }

 private:
  stream::StreamQueryOptions QueryOptions() const {
    stream::StreamQueryOptions options;
    options.window.size_ms = 800;
    options.window.slide_ms = 200;
    options.window.allowed_lateness_ms = 100;
    options.grid.extent = feed_options_.extent;
    return options;
  }

  /// The seeded feed: hotspot-skewed pings over the census blocks' city,
  /// 5 % delivered out of order, in bursts of 64. Many small hotspots keep
  /// the probe work per event close to the same from seed to seed.
  void MakeFeed() {
    feed_options_.num_events = kFeedEvents;
    feed_options_.events_per_second = kEventsPerSecond;
    feed_options_.seed = config_.seed;
    feed_options_.extent = data::NycExtent();
    feed_options_.num_hotspots = 32;
    feed_options_.out_of_order_fraction = 0.05;
    feed_options_.max_delay_ms = 200;
    feed_options_.burst = 64;
    stream::SyntheticPointSource source(feed_options_);
    stream::StreamEvent event;
    while (source.Next(&event)) feed_.push_back(event);
  }

  std::string Sql() const {
    return "SELECT taxi.id, nycb.id FROM taxi SPATIAL JOIN nycb WHERE " +
           join::PredicateSql(deployment_.workload.predicate, "taxi", "nycb");
  }

  bool SetUp() {
    Deployment d;
    d.fs = std::make_unique<dfs::SimFileSystem>(/*num_nodes=*/10,
                                                /*block_size=*/32 * 1024);
    Stopwatch setup;
    Stopwatch phase;
    Result<data::WorkloadSuite> suite = [&] {
      Span span("data.generate");
      return data::MaterializeWorkloads(d.fs.get(), kScale, config_.seed);
    }();
    if (!suite.ok()) {
      run_->Note("MaterializeWorkloads: " + suite.status().ToString());
      return false;
    }
    run_->AddSetupPart("data.generate_s", phase.ElapsedSeconds());
    d.workload = suite->taxi_nycb;

    server::ServiceOptions options;
    options.num_threads = 1;
    d.service = std::make_unique<server::QueryService>(d.fs.get(), options);
    phase.Restart();
    {
      Span span("plan.register");
      if (!d.service->RegisterTable("taxi", d.workload.left).ok() ||
          !d.service->RegisterTable("nycb", d.workload.right).ok()) {
        run_->Note("RegisterTable failed");
        return false;
      }
    }
    run_->AddSetupPart("plan.stats_s", phase.ElapsedSeconds());

    // Warm-up: the first right-side build (into the service cache) and the
    // first panes of the feed.
    deployment_.service.reset();
    deployment_ = std::move(d);
    phase.Restart();
    {
      Span span("stream.warm");
      stream::ContinuousQueryRegistry registry(deployment_.service.get(),
                                               deployment_.fs.get());
      auto id = registry.Register(Sql(), QueryOptions(),
                                  [](const stream::WindowResult&) {});
      if (!id.ok()) {
        run_->Note("Register: " + id.status().ToString());
        return false;
      }
      for (int64_t i = 0; i < kWarmEvents; ++i) {
        registry.Ingest(feed_[static_cast<size_t>(i)]);
      }
      registry.Flush();
    }
    run_->AddSetupPart("stream.warm_s", phase.ElapsedSeconds());
    run_->setup_s.push_back(setup.ElapsedSeconds());
    return true;
  }

  /// Untimed pass: each window the registry fires is replayed through the
  /// one-shot exec::RunGeosProbes oracle, whose digest the timed passes
  /// must reproduce.
  bool ComputeReferences() {
    const data::Workload& w = deployment_.workload;
    auto file = deployment_.fs->GetFile(w.right.path);
    if (!file.ok()) return false;
    Counters counters;
    auto right = exec::BuildRightFromTable(**file, w.right,
                                           w.predicate.FilterRadius(),
                                           exec::PrepareOptions(), &counters);
    if (!right.ok()) {
      run_->Note("oracle build: " + right.status().ToString());
      return false;
    }
    stream::ContinuousQueryRegistry registry(deployment_.service.get(),
                                             deployment_.fs.get());
    auto id = registry.Register(
        Sql(), QueryOptions(), [&](const stream::WindowResult& result) {
          exec::GeosProbeBatch batch;
          for (const stream::StreamEvent* event : *result.events) {
            auto parsed = exec::ParseGeosWkt(event->wkt);
            if (!parsed.ok()) continue;
            batch.ids.push_back(event->id);
            batch.wkt.push_back(event->wkt);
            batch.geoms.push_back(std::move(parsed).value());
          }
          std::vector<exec::IdPair> expect;
          exec::ProbeStats stats;
          exec::RunGeosProbes(
              batch, *right, w.predicate, index::ProbeOptions(),
              [&](exec::IdPair pair) { expect.push_back(pair); }, &stats);
          const WindowDigest digest = DigestOf(expect);
          reference_[result.window_index] = digest;
          if (!result.status.ok() || !(DigestOf(result.pairs) == digest)) {
            ++run_->check_failures;
            run_->Note("oracle pass: window " +
                       std::to_string(result.window_index) + " mismatch");
          }
        });
    if (!id.ok()) return false;
    for (const stream::StreamEvent& event : feed_) registry.Ingest(event);
    registry.Flush();
    return true;
  }

  /// One pass of the feed through a fresh registry; each fired window is
  /// one op. Returns false when the query could not be registered.
  bool RunPass(int64_t round, bool traced) {
    Tracer& tracer = Tracer::Get();
    stream::ContinuousQueryRegistry registry(deployment_.service.get(),
                                             deployment_.fs.get());
    Stopwatch trigger;
    std::vector<int64_t> fired;
    double fired_probe_s = 0.0;
    auto id = registry.Register(
        Sql(), QueryOptions(), [&](const stream::WindowResult& result) {
          OpRecord op;
          op.kind = result.on_flush ? "flush-window" : "window";
          op.round = round;
          op.traced = traced;
          op.latency_s = trigger.ElapsedSeconds();
          auto ref = reference_.find(result.window_index);
          op.ok = result.status.ok() && ref != reference_.end() &&
                  DigestOf(result.pairs) == ref->second;
          op.rows = result.window_events;
          op.values["stream.probe_ms"] = result.probe_seconds * 1e3;
          op.values["stream.window_events"] =
              static_cast<double>(result.window_events);
          op.values["stream.cells_scanned"] =
              static_cast<double>(result.cells_scanned);
          op.values["stream.cells_pruned"] =
              static_cast<double>(result.cells_pruned);
          op.values["stream.watermark_lag_ms"] =
              static_cast<double>(result.watermark_lag_ms);
          fired.push_back(next_op_++);
          fired_probe_s += result.probe_seconds;
          run_->ops.push_back(std::move(op));
        });
    if (!id.ok()) {
      run_->Note("Register: " + id.status().ToString());
      return false;
    }

    // Spans: one "stream.ingest" per stretch of Ingest calls that ends in
    // a firing, with the fired windows' probe time as its exec child.
    int64_t chunk_start = tracer.NowNs();
    auto close_chunk = [&] {
      if (fired.empty()) return;
      if (traced) {
        const int64_t end = tracer.NowNs();
        const int64_t span =
            tracer.Record(0, fired.back(), "stream.ingest", chunk_start, end);
        int64_t cursor = chunk_start;
        tracer.RecordPhase(span, fired.back(), "exec.probe", fired_probe_s,
                           &cursor);
        chunk_start = end;
      }
      fired.clear();
      fired_probe_s = 0.0;
    };
    Stopwatch wall;
    for (const stream::StreamEvent& event : feed_) {
      trigger.Restart();
      registry.Ingest(event);
      close_chunk();
    }
    trigger.Restart();
    registry.Flush();
    close_chunk();
    const double seconds = wall.ElapsedSeconds();
    run_->rounds.push_back(
        RoundRecord{traced, seconds, static_cast<int64_t>(feed_.size())});

    const stream::StreamStats stats = registry.GetStats();
    for (const char* name :
         {stream::counter::kLateDropped, stream::counter::kEventsPruned,
          stream::counter::kGridRebuilds, stream::counter::kRightCacheHits,
          stream::counter::kRightCacheMisses}) {
      counters_[name] += stats.counters.Get(name);
    }
    return true;
  }

  const RunConfig& config_;
  BenchRun* run_;
  stream::SyntheticPointSourceOptions feed_options_;
  std::vector<stream::StreamEvent> feed_;
  Deployment deployment_;
  std::map<int64_t, WindowDigest> reference_;
  std::map<std::string, int64_t> counters_;
  int64_t next_op_ = 0;
};

}  // namespace

bool RunStreamSlide(const RunConfig& config, BenchRun* run) {
  return StreamSlide(config, run).Run();
}

}  // namespace cloudjoin::perfbench
