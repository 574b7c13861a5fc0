// serve-hot: a closed loop of client threads, each blocking in
// QueryService::Execute, over small columnar left tables against right
// sides held warm in the broadcast-index cache. Builds drop to zero, so
// the per-query fixed costs (frontend, plan, admission, cache lookup,
// columnar scan) carry the load.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "data/convert.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "driver/report.h"
#include "driver/trace.h"
#include "driver/workloads.h"
#include "exec/counter_names.h"
#include "join/isp_mc_system.h"
#include "server/query_service.h"

namespace cloudjoin::perfbench {
namespace {

constexpr double kScale = 0.03;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Queries each client sends per round: eight blocks of the five-query mix.
/// The mix has no G10M-wwf query: its cost at serving scale swings ~3x from
/// seed to seed with a few large ecoregion polygons.
constexpr int kQueriesPerRound = 40;
constexpr double kMiB = 1024.0 * 1024.0;

/// One distinct query of the mix.
struct Query {
  std::string sql;
  join::TableInput left;
  join::TableInput right;
  join::SpatialPredicate predicate;
  int64_t left_rows = 0;
  PairDigest reference;
};

/// Everything one set-up builds; the last one serves the timed phase.
struct Deployment {
  std::unique_ptr<dfs::SimFileSystem> fs;
  std::unique_ptr<server::QueryService> service;
  std::vector<Query> queries;
};

class ServeHot {
 public:
  ServeHot(const RunConfig& config, BenchRun* run)
      : config_(config), run_(run) {}

  bool Run() {
    run_->scale = kScale;
    Tracer::Get().set_enabled(config_.trace);
    for (int i = 0; i < kSetups; ++i) {
      if (!SetUp()) return false;
    }
    Tracer::Get().set_enabled(false);
    ComputeReferences();

    server::QueryService& service = *deployment_.service;
    service.TakeIntervalStats();
    std::vector<Rng> sequences;
    for (int c = 0; c < kClients; ++c) {
      sequences.emplace_back(config_.seed * 1000003ULL + c);
    }
    std::vector<server::Session*> sessions;
    for (int c = 0; c < kClients; ++c) {
      sessions.push_back(service.CreateSession());
    }
    // Client threads start inside each round and would inherit a pinned
    // CPU, so this closed loop runs unpinned.
    RunTimedRounds(config_, run_, /*rotate_cpu=*/false,
                   [&](int64_t round, bool traced) {
                     RunRound(sessions, &sequences, round, traced);
                     return true;
                   });
    const server::ServiceStats interval = service.TakeIntervalStats();
    run_->values["server.cache_hits"] = static_cast<double>(interval.cache.hits);
    run_->values["server.cache_misses"] =
        static_cast<double>(interval.cache.misses);
    run_->values["server.cache_mb"] = interval.cache.bytes / kMiB;
    run_->values["server.rejected"] =
        static_cast<double>(interval.queries_rejected);
    return true;
  }

 private:
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

    phase.Restart();
    struct Left {
      const char* name;
      join::TableInput text;
      int64_t rows;
    };
    const std::vector<Left> lefts = {
        {"taxi", suite->taxi_nycb.left, suite->taxi_count},
        {"hotspot", suite->hotspot_nycb.left, suite->hotspot_count}};
    std::vector<join::TableInput> columnar;
    {
      Span span("dfs.convert");
      for (const Left& left : lefts) {
        auto converted = data::ConvertTextTableToColumnar(
            d.fs.get(), left.text,
            std::string("/data/") + left.name + ".columnar");
        if (!converted.ok()) {
          run_->Note("convert: " + converted.status().ToString());
          return false;
        }
        columnar.push_back(*converted);
      }
    }
    run_->AddSetupPart("dfs.convert_s", phase.ElapsedSeconds());

    server::ServiceOptions options;
    options.num_threads = kWorkers;
    options.admission.max_concurrent = kWorkers;
    options.admission.max_queue = 4 * kClients;
    options.admission.queue_timeout_seconds = 60.0;
    d.service = std::make_unique<server::QueryService>(d.fs.get(), options);

    phase.Restart();
    struct Table {
      std::string name;
      join::TableInput input;
    };
    const std::vector<Table> tables = {
        {"taxi", columnar[0]},
        {"hotspot", columnar[1]},
        {"nycb", suite->taxi_nycb.right},
        {"lion", suite->taxi_lion_100.right}};
    {
      Span span("plan.register");
      for (const Table& t : tables) {
        auto registered = d.service->RegisterTable(t.name, t.input);
        if (!registered.ok()) {
          run_->Note("RegisterTable: " + registered.status().ToString());
          return false;
        }
      }
    }
    run_->AddSetupPart("plan.stats_s", phase.ElapsedSeconds());

    auto add = [&](int left, const char* right,
                   const join::TableInput& right_input,
                   const join::SpatialPredicate& predicate) {
      const std::string l = lefts[static_cast<size_t>(left)].name;
      Query query;
      query.sql = "SELECT " + l + ".id, " + right + ".id FROM " + l +
                  " SPATIAL JOIN " + right + " WHERE " +
                  join::PredicateSql(predicate, l, right);
      query.left = columnar[static_cast<size_t>(left)];
      query.right = right_input;
      query.predicate = predicate;
      query.left_rows = lefts[static_cast<size_t>(left)].rows;
      d.queries.push_back(std::move(query));
    };
    add(0, "nycb", suite->taxi_nycb.right, suite->taxi_nycb.predicate);
    add(0, "lion", suite->taxi_lion_100.right,
        suite->taxi_lion_100.predicate);
    add(1, "nycb", suite->hotspot_nycb.right, suite->hotspot_nycb.predicate);
    add(1, "lion", suite->taxi_lion_100.right,
        suite->taxi_lion_100.predicate);
    add(0, "lion", suite->taxi_lion_500.right,
        suite->taxi_lion_500.predicate);

    phase.Restart();
    {
      Span span("server.warm");
      server::Session* session = d.service->CreateSession();
      for (const Query& query : d.queries) {
        auto response = d.service->Execute(session, query.sql);
        if (!response.ok()) {
          run_->Note("warm-up: " + response.status().ToString());
          return false;
        }
      }
    }
    run_->AddSetupPart("server.warm_s", phase.ElapsedSeconds());
    run_->setup_s.push_back(setup.ElapsedSeconds());
    // The old service must go before the file system it reads.
    deployment_.service.reset();
    deployment_ = std::move(d);
    return true;
  }

  /// Reference digests, outside the timed phase: each distinct SQL through
  /// a direct IspMcSystem::Join on the same tables.
  void ComputeReferences() {
    for (Query& query : deployment_.queries) {
      join::IspMcSystem system(deployment_.fs.get());
      auto run = system.Join(query.left, query.right, query.predicate);
      if (!run.ok()) {
        ++run_->check_failures;
        run_->Note("reference join failed: " + run.status().ToString());
        continue;
      }
      for (const join::IdPair& pair : run->pairs) {
        query.reference.Add(pair.first, pair.second);
      }
    }
  }

  /// One round: each client sends kQueriesPerRound queries, each waiting
  /// for its reply before the next.
  void RunRound(const std::vector<server::Session*>& sessions,
                std::vector<Rng>* sequences, int64_t round, bool traced) {
    std::vector<std::vector<OpRecord>> per_client(kClients);
    Stopwatch wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng& sequence = (*sequences)[static_cast<size_t>(c)];
        const size_t n = deployment_.queries.size();
        std::vector<size_t> block(n);
        for (int q = 0; q < kQueriesPerRound; ++q) {
          // Each block of n queries holds every distinct query once, in a
          // seeded order: the mix is fixed, only the order varies.
          if (q % n == 0) {
            for (size_t i = 0; i < n; ++i) block[i] = i;
            for (size_t i = n - 1; i > 0; --i) {
              std::swap(block[i], block[sequence.NextUint64() % (i + 1)]);
            }
          }
          per_client[static_cast<size_t>(c)].push_back(
              RunOp(sessions[static_cast<size_t>(c)], block[q % n], round,
                    traced));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    RoundRecord record{traced, wall.ElapsedSeconds(), 0};
    for (std::vector<OpRecord>& ops : per_client) {
      for (OpRecord& op : ops) {
        record.rows += op.rows;
        run_->ops.push_back(std::move(op));
      }
    }
    run_->rounds.push_back(record);
  }

  OpRecord RunOp(server::Session* session, size_t pick, int64_t round,
                 bool traced) {
    const Query& query = deployment_.queries[pick];
    OpRecord op;
    op.kind = "sql" + std::to_string(pick);
    op.round = round;
    op.traced = traced;
    OpScope scope(next_op_.fetch_add(1));
    Span span("server.execute");
    auto response = deployment_.service->Execute(session, query.sql);
    if (!response.ok()) return op;
    PairDigest digest;
    for (const impala::Row& row : response->result.rows) {
      digest.Add(std::get<int64_t>(row[0]), std::get<int64_t>(row[1]));
    }
    op.values["join.pairs"] = static_cast<double>(digest.count());
    op.ok = digest == query.reference;
    op.rows = op.ok ? query.left_rows : 0;
    op.latency_s = response->total_seconds;
    const impala::QueryMetrics& m = response->result.metrics;
    double probe = 0.0;
    for (const impala::ScanRangeTiming& task : m.scan_tasks) {
      probe += task.seconds;
    }
    op.values["server.queue_ms"] = response->queue_seconds * 1e3;
    op.values["server.exec_ms"] = response->exec_seconds * 1e3;
    op.values["impala.frontend_ms"] = m.frontend_seconds * 1e3;
    op.values["exec.build_ms"] = m.right_build_seconds * 1e3;
    op.values["exec.probe_cpu_ms"] = probe * 1e3;
    for (const char* name :
         {exec::counter::kCandidates, exec::counter::kSfilterSkipped, exec::counter::kRefineParseError,
          exec::counter::kScanBlocksTotal, exec::counter::kScanBlocksPruned,
          exec::counter::kScanRowsScanned,
          exec::counter::kScanRowsMaterialized,
          exec::counter::kPlanStrategyPartitioned}) {
      op.values[name] = static_cast<double>(m.counters.Get(name));
    }
    Tracer& tracer = Tracer::Get();
    int64_t cursor = span.start_ns();
    tracer.RecordPhase(span.id(), OpScope::Current(), "server.queue",
                       response->queue_seconds, &cursor);
    tracer.RecordPhase(span.id(), OpScope::Current(), "impala.frontend",
                       m.frontend_seconds, &cursor);
    tracer.RecordPhase(span.id(), OpScope::Current(), "exec.build",
                       m.right_build_seconds, &cursor);
    tracer.RecordPhase(span.id(), OpScope::Current(), "exec.probe", probe,
                       &cursor);
    return op;
  }

  const RunConfig& config_;
  BenchRun* run_;
  Deployment deployment_;
  std::atomic<int64_t> next_op_{0};
};

}  // namespace

bool RunServeHot(const RunConfig& config, BenchRun* run) {
  return ServeHot(config, run).Run();
}

}  // namespace cloudjoin::perfbench
