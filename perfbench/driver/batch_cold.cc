// batch-cold: the paper's Table 1 path, one thread, no cache. Every op
// scans text, builds its right side and refines, so exec build, the
// geosim/geom refine kernels and the index filter carry the load.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "driver/report.h"
#include "driver/trace.h"
#include "driver/workloads.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/refiner.h"
#include "exec/right_builder.h"
#include "geom/wkt.h"
#include "index/batch_prober.h"
#include "join/isp_mc_system.h"
#include "join/spatial_spark_system.h"
#include "join/standalone_mc.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace cloudjoin::perfbench {
namespace {

constexpr double kScale = 0.03;
/// RDD parallelism of the SpatialSpark runs (the Table 1 setting).
constexpr int kSparkPartitions = 64;
/// Left rows replayed per experiment through the index/geosim/geom layers
/// in traced rounds.
constexpr int64_t kReplayRows = 1500;
constexpr double kMiB = 1024.0 * 1024.0;

enum class Engine { kIspMc, kSpark, kStandalone, kPartitioned };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kIspMc:
      return "ispmc";
    case Engine::kSpark:
      return "spark";
    case Engine::kStandalone:
      return "standalone";
    case Engine::kPartitioned:
      return "partitioned";
  }
  return "?";
}

/// One experiment of the suite plus what the ops need to check and
/// extrapolate it.
struct Experiment {
  data::Workload workload;
  int64_t left_rows = 0;
  /// Point-side extrapolation to the paper's cardinality (Table 1).
  double extrapolation = 1.0;
  PairDigest reference;
};

/// Index/kernel inputs for the traced layer replay of one experiment.
struct ReplayInputs {
  std::shared_ptr<exec::BuiltRight> right;
  std::vector<std::optional<geom::Geometry>> right_geoms;
  std::vector<std::string> left_wkt;
};

template <typename Pairs>
PairDigest DigestOf(const Pairs& pairs) {
  PairDigest digest;
  for (const auto& pair : pairs) digest.Add(pair.first, pair.second);
  return digest;
}

void CopyCounters(const Counters& counters, OpRecord* op) {
  for (const char* name :
       {exec::counter::kCandidates, exec::counter::kSfilterSkipped, exec::counter::kRefineParseError,
        exec::counter::kHotTilesSplit,
        exec::counter::kPlanStrategyPartitioned}) {
    op->values[name] = static_cast<double>(counters.Get(name));
  }
}

class BatchCold {
 public:
  BatchCold(const RunConfig& config, BenchRun* run)
      : config_(config),
        run_(run),
        cluster_(sim::ClusterSpec::InHouseSingleNode()) {}

  bool Run() {
    run_->scale = kScale;
    Tracer::Get().set_enabled(config_.trace);
    for (int i = 0; i < kSetups; ++i) {
      if (!SetUp()) return false;
    }
    Tracer::Get().set_enabled(false);
    ComputeReferences();
    if (config_.trace) PrepareReplay();

    return RunTimedRounds(config_, run_, /*rotate_cpu=*/true,
                          [&](int64_t round, bool traced) {
                            RunRound(round, traced);
                            return true;
                          });
  }

 private:
  /// One round: every engine on every experiment, then the
  /// forced-partitioned op.
  void RunRound(int64_t round, bool traced) {
    RoundRecord record{traced, 0.0, 0};
    Stopwatch wall;
    for (Experiment& experiment : experiments_) {
      for (Engine engine :
           {Engine::kIspMc, Engine::kSpark, Engine::kStandalone}) {
        record.rows += RunOp(engine, experiment, round, traced);
      }
    }
    record.rows += RunOp(Engine::kPartitioned, hotspot_, round, traced);
    record.wall_s = wall.ElapsedSeconds();
    run_->rounds.push_back(record);
    if (traced) Replay();
  }

  bool SetUp() {
    auto fs = std::make_unique<dfs::SimFileSystem>(/*num_nodes=*/10,
                                                   /*block_size=*/32 * 1024);
    Stopwatch watch;
    Result<data::WorkloadSuite> suite = [&] {
      Span span("data.generate");
      return data::MaterializeWorkloads(fs.get(), kScale, config_.seed);
    }();
    const double seconds = watch.ElapsedSeconds();
    if (!suite.ok()) {
      run_->Note("MaterializeWorkloads: " + suite.status().ToString());
      return false;
    }
    run_->setup_s.push_back(seconds);
    run_->AddSetupPart("data.generate_s", seconds);
    fs_ = std::move(fs);
    const data::WorkloadSuite& s = *suite;
    const double taxi = 170e6 / static_cast<double>(s.taxi_count);
    experiments_ = {
        {s.taxi_nycb, s.taxi_count, taxi, {}},
        {s.taxi_lion_100, s.taxi_count, taxi, {}},
        {s.taxi_lion_500, s.taxi_count, taxi, {}},
        {s.g10m_wwf, s.gbif_count, 10e6 / static_cast<double>(s.gbif_count),
         {}}};
    hotspot_ = {s.hotspot_nycb, s.hotspot_count, 1.0, {}};
    return true;
  }

  /// Reference digests, outside the timed phase: the three engines must
  /// agree per experiment, and the broadcast plan of hotspot-nycb is the
  /// reference for the forced-partitioned op.
  void ComputeReferences() {
    for (Experiment& e : experiments_) {
      join::IspMcSystem isp(fs_.get());
      auto isp_run = isp.Join(e.workload.left, e.workload.right,
                              e.workload.predicate);
      join::SpatialSparkSystem spark(fs_.get(), kSparkPartitions);
      auto spark_run = spark.Join(e.workload.left, e.workload.right,
                                  e.workload.predicate);
      join::StandaloneMc standalone(fs_.get());
      auto standalone_run = standalone.Join(e.workload.left, e.workload.right,
                                            e.workload.predicate);
      if (!isp_run.ok() || !spark_run.ok() || !standalone_run.ok()) {
        ++run_->check_failures;
        run_->Note("reference run failed on " + e.workload.name);
        continue;
      }
      e.reference = DigestOf(isp_run->pairs);
      if (!(DigestOf(spark_run->pairs) == e.reference) ||
          !(DigestOf(standalone_run->pairs) == e.reference)) {
        ++run_->check_failures;
        run_->Note("engines disagree on " + e.workload.name);
      }
    }
    impala::QueryOptions broadcast;
    broadcast.join_strategy = plan::JoinStrategy::kBroadcast;
    join::IspMcSystem isp(fs_.get());
    auto run = isp.Join(hotspot_.workload.left, hotspot_.workload.right,
                        hotspot_.workload.predicate, broadcast);
    if (run.ok()) {
      hotspot_.reference = DigestOf(run->pairs);
    } else {
      ++run_->check_failures;
      run_->Note("hotspot-nycb broadcast reference failed");
    }
  }

  /// Runs one engine on one experiment as one op; returns the left rows it
  /// joined (0 when it failed).
  int64_t RunOp(Engine engine, Experiment& e, int64_t round, bool traced) {
    OpRecord op;
    op.kind = std::string(EngineName(engine)) + "/" + e.workload.name;
    op.round = round;
    op.traced = traced;
    OpScope scope(next_op_++);
    Tracer& tracer = Tracer::Get();
    PairDigest digest;
    bool ran = false;
    const std::string name = std::string("join.") + EngineName(engine);
    if (engine == Engine::kIspMc || engine == Engine::kPartitioned) {
      impala::QueryOptions options;
      if (engine == Engine::kPartitioned) {
        options.join_strategy = plan::JoinStrategy::kPartitioned;
      }
      Span span(name.c_str());
      Stopwatch wall;
      join::IspMcSystem system(fs_.get());
      auto result = system.Join(e.workload.left, e.workload.right,
                                e.workload.predicate, options);
      op.latency_s = wall.ElapsedSeconds();
      if (result.ok()) {
        ran = true;
        const impala::QueryMetrics& m = result->metrics;
        double probe = 0.0;
        for (const impala::ScanRangeTiming& task : m.scan_tasks) {
          probe += task.seconds;
        }
        for (double s : m.join_task_seconds) probe += s;
        op.values["impala.frontend_ms"] = m.frontend_seconds * 1e3;
        op.values["exec.build_ms"] = m.right_build_seconds * 1e3;
        op.values["exec.probe_cpu_ms"] = probe * 1e3;
        op.values["exec.right_mb"] = m.broadcast_bytes / kMiB;
        CopyCounters(m.counters, &op);
        int64_t cursor = span.start_ns();
        tracer.RecordPhase(span.id(), OpScope::Current(), "impala.frontend",
                           m.frontend_seconds, &cursor);
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.build",
                           m.right_build_seconds, &cursor);
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.probe", probe,
                           &cursor);
        digest = DigestOf(result->pairs);
        if (engine == Engine::kIspMc) {
          join::IspMcJoinRun scaled = *result;
          for (impala::ScanRangeTiming& task : scaled.metrics.scan_tasks) {
            task.seconds *= e.extrapolation;
          }
          for (double& s : scaled.metrics.join_task_seconds) {
            s *= e.extrapolation;
          }
          Span sim_span("sim.simulate");
          op.values["sim.table1_s"] =
              join::IspMcSystem::Simulate(scaled, cluster_, cost_,
                                          e.workload.name)
                  .simulated_seconds;
        }
      }
    } else if (engine == Engine::kSpark) {
      Span span(name.c_str());
      Stopwatch wall;
      join::SpatialSparkSystem system(fs_.get(), kSparkPartitions);
      auto result = system.Join(e.workload.left, e.workload.right,
                                e.workload.predicate);
      op.latency_s = wall.ElapsedSeconds();
      if (result.ok()) {
        ran = true;
        double stages = 0.0;
        double probe_stage = 0.0;
        int64_t tasks = 0;
        for (const spark::StageMetrics& stage : result->stages) {
          stages += stage.TotalSeconds();
          tasks += static_cast<int64_t>(stage.task_seconds.size());
          if (stage.name.rfind("spatialJoinProbe(", 0) == 0) {
            probe_stage += stage.TotalSeconds();
          }
        }
        op.values["exec.build_ms"] = result->driver_build_seconds * 1e3;
        op.values["exec.probe_cpu_ms"] = stages * 1e3;
        op.values["spark.probe_stage_ms"] = probe_stage * 1e3;
        op.values["spark.tasks"] = static_cast<double>(tasks);
        op.values["exec.right_mb"] = result->broadcast_bytes / kMiB;
        CopyCounters(result->counters, &op);
        int64_t cursor = span.start_ns();
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.build",
                           result->driver_build_seconds, &cursor);
        tracer.RecordPhase(span.id(), OpScope::Current(), "spark.stages",
                           stages - probe_stage, &cursor);
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.probe",
                           probe_stage, &cursor);
        digest = DigestOf(result->pairs);
        join::SparkJoinRun scaled = *result;
        for (spark::StageMetrics& stage : scaled.stages) {
          if (stage.name.find(e.workload.left.path) != std::string::npos) {
            for (double& s : stage.task_seconds) s *= e.extrapolation;
          }
        }
        Span sim_span("sim.simulate");
        op.values["sim.table1_s"] =
            join::SpatialSparkSystem::Simulate(scaled, cluster_, cost_,
                                               e.workload.name)
                .simulated_seconds;
      }
    } else {
      Span span(name.c_str());
      Stopwatch wall;
      join::StandaloneMc system(fs_.get());
      auto result = system.Join(e.workload.left, e.workload.right,
                                e.workload.predicate);
      op.latency_s = wall.ElapsedSeconds();
      if (result.ok()) {
        ran = true;
        double probe = 0.0;
        for (double s : result->block_seconds) probe += s;
        op.values["exec.build_ms"] = result->build_seconds * 1e3;
        op.values["exec.probe_cpu_ms"] = probe * 1e3;
        CopyCounters(result->counters, &op);
        int64_t cursor = span.start_ns();
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.build",
                           result->build_seconds, &cursor);
        tracer.RecordPhase(span.id(), OpScope::Current(), "exec.probe", probe,
                           &cursor);
        digest = DigestOf(result->pairs);
        join::StandaloneRun scaled = *result;
        for (double& s : scaled.block_seconds) s *= e.extrapolation;
        Span sim_span("sim.simulate");
        op.values["sim.table1_s"] =
            join::StandaloneMc::Simulate(scaled, cluster_, e.workload.name)
                .simulated_seconds;
      }
    }
    op.values["join.pairs"] = static_cast<double>(digest.count());
    op.ok = ran && digest == e.reference;
    op.rows = op.ok ? e.left_rows : 0;
    run_->ops.push_back(std::move(op));
    return run_->ops.back().rows;
  }

  /// Traced runs only: inputs for replaying each experiment's filter and
  /// refine phases through the index, geosim and geom layers directly.
  void PrepareReplay() {
    for (const Experiment& e : experiments_) {
      ReplayInputs inputs;
      const dfs::SimFile* right_file = *fs_->GetFile(e.workload.right.path);
      Counters counters;
      auto built = exec::BuildRightFromTable(
          *right_file, e.workload.right, e.workload.predicate.FilterRadius(),
          exec::PrepareOptions(), &counters);
      if (!built.ok()) continue;
      inputs.right = std::make_shared<exec::BuiltRight>(std::move(*built));
      for (const std::string& wkt : inputs.right->wkt) {
        auto g = geom::ReadWkt(wkt);
        inputs.right_geoms.push_back(
            g.ok() ? std::optional<geom::Geometry>(std::move(*g))
                   : std::nullopt);
      }
      const dfs::SimFile* left_file = *fs_->GetFile(e.workload.left.path);
      dfs::LineRecordReader lines(left_file->data(), 0, left_file->size());
      std::string_view line;
      while (static_cast<int64_t>(inputs.left_wkt.size()) < kReplayRows &&
             lines.Next(&line)) {
        std::vector<std::string_view> fields = StrSplit(line, '\t');
        if (fields.size() > 1) inputs.left_wkt.emplace_back(fields[1]);
      }
      replay_.push_back(std::move(inputs));
    }
  }

  /// Runs each experiment's left sample through the layers one call at a
  /// time: parse (geosim, geom), filter (index), refine (geosim, geom).
  void Replay() {
    OpScope scope(-2);
    for (size_t x = 0; x < replay_.size(); ++x) {
      const ReplayInputs& in = replay_[x];
      const exec::SpatialPredicate& predicate =
          experiments_[x].workload.predicate;
      Span span("bench.replay");
      std::vector<std::unique_ptr<geosim::Geometry>> geos;
      std::vector<std::string> geos_wkt;
      {
        Span parse("geosim.parse");
        for (const std::string& wkt : in.left_wkt) {
          auto g = exec::ParseGeosWkt(wkt);
          if (!g.ok()) continue;
          geos.push_back(std::move(*g));
          geos_wkt.push_back(wkt);
        }
      }
      std::vector<std::optional<geom::Geometry>> flat;
      {
        Span parse("geom.parse");
        for (const std::string& wkt : geos_wkt) {
          auto g = geom::ReadWkt(wkt);
          flat.push_back(g.ok() ? std::optional<geom::Geometry>(std::move(*g))
                                : std::nullopt);
        }
      }
      std::vector<std::pair<int64_t, int64_t>> candidates;
      {
        Span filter("index.filter");
        index::BatchStats stats;
        index::RunBatchedProbes(
            static_cast<int64_t>(geos.size()), *in.right->tree,
            in.right->packed.get(), index::ProbeOptions(),
            [&](int64_t i) {
              return geos[static_cast<size_t>(i)]->getEnvelopeInternal();
            },
            [&](int64_t i, int64_t slot) { candidates.emplace_back(i, slot); },
            &stats);
      }
      int64_t geos_matches = 0;
      {
        Span refine("geosim.refine");
        exec::RefineStats stats;
        for (const auto& [i, slot] : candidates) {
          geos_matches += exec::RefineGeosWkt(
              geos_wkt[static_cast<size_t>(i)],
              in.right->wkt[static_cast<size_t>(slot)], predicate, &stats);
        }
      }
      int64_t geom_matches = 0;
      {
        Span refine("geom.refine");
        for (const auto& [i, slot] : candidates) {
          const auto& left = flat[static_cast<size_t>(i)];
          const auto& right = in.right_geoms[static_cast<size_t>(slot)];
          if (left && right) {
            geom_matches += exec::RefineGeomPair(*left, *right, predicate);
          }
        }
      }
      if (geos_matches != geom_matches) {
        ++run_->check_failures;
        run_->Note("replay: geosim and geom kernels disagree on " +
                   experiments_[x].workload.name);
      }
    }
  }

  const RunConfig& config_;
  BenchRun* run_;
  const sim::ClusterSpec cluster_;
  const sim::CostModel cost_;
  std::unique_ptr<dfs::SimFileSystem> fs_;
  std::vector<Experiment> experiments_;
  Experiment hotspot_;
  std::vector<ReplayInputs> replay_;
  int64_t next_op_ = 0;
};

}  // namespace

bool RunBatchCold(const RunConfig& config, BenchRun* run) {
  return BatchCold(config, run).Run();
}

}  // namespace cloudjoin::perfbench
