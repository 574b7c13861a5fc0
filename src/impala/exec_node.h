#ifndef CLOUDJOIN_IMPALA_EXEC_NODE_H_
#define CLOUDJOIN_IMPALA_EXEC_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/tiled_right.h"
#include "geosim/geometry.h"
#include "impala/analyzer.h"
#include "impala/catalog.h"
#include "impala/plan.h"
#include "impala/types.h"
#include "index/probe_options.h"

namespace cloudjoin::impala {

/// Pull-based exec operator, as in the Impala backend: Open once, then
/// GetNext fills row batches until `*eos`.
class ExecNode {
 public:
  virtual ~ExecNode() = default;

  virtual Status Open() = 0;
  /// Fills `batch` (cleared first) with up to RowBatch::kCapacity rows.
  virtual Status GetNext(RowBatch* batch, bool* eos) = 0;
  virtual void Close() {}
};

/// Scans one scan range (block-aligned byte range) of a table, producing
/// typed rows; pushed-down conjuncts filter inline. Text tables are read
/// line-by-line with malformed lines counted and dropped (matching the
/// parse-failure filtering in the paper's SpatialSpark listing).
/// Columnar tables are read block-by-block: the range owns every
/// columnar block whose header offset falls inside it, and when
/// `scan_region` is set a block whose envelope zone-map misses the
/// region is skipped whole (gated by `scan_options.zone_map`).
class HdfsScanNode final : public ExecNode {
 public:
  /// `table`, `file`, `filters`, `needed_slots`, `counters`, and
  /// `scan_region` must outlive the node. `needed_slots` (nullable = all)
  /// marks the columns the query references; unreferenced columns are not
  /// materialized (Impala's projection pushdown). `scan_region`
  /// (nullable = no pruning) bounds everything downstream can match —
  /// only safe to set when dropped rows cannot affect the result (inner
  /// spatial join against an index covering `scan_region`).
  HdfsScanNode(const TableDef* table, const dfs::SimFile* file,
               int64_t offset, int64_t length,
               const std::vector<std::unique_ptr<Expr>>* filters,
               const std::vector<bool>* needed_slots, Counters* counters,
               const geom::Envelope* scan_region = nullptr,
               const dfs::ScanOptions& scan_options = dfs::ScanOptions());

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;

 private:
  /// Parses one text line into `row`; false on malformed input.
  bool ParseLine(std::string_view line, Row* row) const;

  /// GetNext over a columnar-format table.
  Status ColumnarGetNext(RowBatch* batch, bool* eos);

  const TableDef* table_;
  const dfs::SimFile* file_;
  int64_t offset_;
  int64_t length_;
  const std::vector<std::unique_ptr<Expr>>* filters_;
  const std::vector<bool>* needed_slots_;
  Counters* counters_;
  const geom::Envelope* scan_region_;
  dfs::ScanOptions scan_options_;
  std::unique_ptr<dfs::LineRecordReader> reader_;
  // Columnar-scan state: the open reader, the decoded current block, and
  // the cursor (next block to consider / next row in the current block).
  std::unique_ptr<dfs::ColumnarTableReader> col_reader_;
  dfs::ColumnarBlock col_block_;
  int64_t col_next_block_ = 0;
  int64_t col_row_ = 0;
  bool col_block_loaded_ = false;
};

/// The broadcast right side of a join, shared (read-only) by all fragment
/// instances: the execution core's BuiltRight (WKT + STR-tree + optional
/// prepared grids and kept parses) plus the Impala-specific retention —
/// the materialized rows the join output projects from.
///
/// This models ISP-MC's behaviour: each Impala instance receives all right
/// row batches and builds an in-memory R-tree before probing starts.
struct BroadcastRight : cloudjoin::exec::BuiltRight {
  std::vector<Row> rows;
  /// Estimated serialized size (what the network broadcast ships).
  int64_t bytes = 0;

  /// Approximate resident size of the whole structure (rows + WKT + tree +
  /// cached parses + prepared grids) — what the serving tier's index cache
  /// charges against its memory budget. Contrast with `bytes`, the
  /// serialized payload the network broadcast ships.
  int64_t MemoryBytes() const;
};

/// Builds the broadcast structure by scanning the whole right table.
/// `cache_parsed` enables the geometry-reuse ablation (the build keeps its
/// parses in BuiltRight::parsed); `prepare_geometries`
/// additionally builds a `geom::PreparedPolygon` per sufficiently complex
/// right polygon so kWithin point probes refine in O(1).
Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRight(
    const TableDef* table, const dfs::SimFile* file,
    const std::vector<std::unique_ptr<Expr>>* filters,
    const std::vector<bool>* needed_slots, int geom_slot, double radius,
    bool cache_parsed, bool prepare_geometries, Counters* counters);

/// The paper's SpatialJoin exec node, for both join strategies: streams
/// left batches, probes the right side through the core's one probe driver
/// (exec::RunTiledProbes — sFilter, spatial filtering), refines candidate
/// pairs with the registered ST_* UDF, applies post-join conjuncts, and
/// emits the evaluated output expressions.
///
/// With `tiled` null the right side is broadcast: one tile, output in left
/// row order. With `tiled` set (the partitioned strategy) each probe visits
/// only the tiles its envelope touches, and replicated candidates are
/// suppressed by reference-point dedup before refinement, so the match
/// *set* equals the broadcast node's exactly (row order is tile-major — no
/// ORDER BY = no ordering contract). Per-tile compute is then metered into
/// `tile_seconds` (one slot per tile, accumulated across all fragment
/// instances); the runtime reports those as separate join tasks and
/// deducts them from the enclosing scan range's timing, which is what lets
/// a simulated cluster schedule hot tiles independently of the scan ranges
/// that produced them.
class SpatialJoinNode final : public ExecNode {
 public:
  /// `tiled` and `tile_seconds` are null for the broadcast strategy.
  SpatialJoinNode(std::unique_ptr<ExecNode> left_child,
                  const BroadcastRight* right,
                  const cloudjoin::exec::TiledRight* tiled,
                  const SpatialJoinSpec* spec,
                  const std::vector<std::unique_ptr<Expr>>* post_filters,
                  const std::vector<const Expr*>* output_exprs,
                  Counters* counters,
                  const index::ProbeOptions& probe,
                  std::vector<double>* tile_seconds);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  /// Probes one whole left row batch (parse all geometries, then the
  /// driver filters and the refinery refines owned candidates), appending
  /// join output rows to pending_.
  void ProcessLeftBatch(const RowBatch& left_rows);

  std::unique_ptr<ExecNode> left_child_;
  const BroadcastRight* right_;
  const cloudjoin::exec::TiledRight* tiled_;
  const SpatialJoinSpec* spec_;
  const std::vector<std::unique_ptr<Expr>>* post_filters_;
  const std::vector<const Expr*>* output_exprs_;
  Counters* counters_;
  index::ProbeOptions probe_;
  std::vector<double>* tile_seconds_;
  RowBatch left_batch_;
  bool left_eos_ = false;
  // Carry-over rows when a probe batch overflows the output batch.
  std::vector<Row> pending_;
  size_t pending_idx_ = 0;
  // Per-batch probe scratch, reused across batches: the rows that parsed
  // to a geometry, their WKT, and the parsed geometries themselves.
  std::vector<const Row*> probe_rows_;
  std::vector<const std::string*> probe_wkt_;
  std::vector<std::unique_ptr<geosim::Geometry>> probe_geoms_;
};

/// Nested-loop cross join against the broadcast right side (the naive
/// baseline of the paper's §II); post filters make it an inner join.
class CrossJoinNode final : public ExecNode {
 public:
  CrossJoinNode(std::unique_ptr<ExecNode> left_child,
                const BroadcastRight* right,
                const std::vector<std::unique_ptr<Expr>>* post_filters,
                const std::vector<const Expr*>* output_exprs,
                Counters* counters);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  std::unique_ptr<ExecNode> left_child_;
  const BroadcastRight* right_;
  const std::vector<std::unique_ptr<Expr>>* post_filters_;
  const std::vector<const Expr*>* output_exprs_;
  Counters* counters_;
  RowBatch left_batch_;
  int left_idx_ = 0;
  bool left_eos_ = false;
  std::vector<Row> pending_;
  size_t pending_idx_ = 0;
};

/// Evaluates output expressions over single-table rows.
class ProjectNode final : public ExecNode {
 public:
  ProjectNode(std::unique_ptr<ExecNode> child,
              const std::vector<const Expr*>* output_exprs);

  Status Open() override;
  Status GetNext(RowBatch* batch, bool* eos) override;
  void Close() override;

 private:
  std::unique_ptr<ExecNode> child_;
  const std::vector<const Expr*>* output_exprs_;
  RowBatch child_batch_;
};

// ---------------------------------------------------------------------------
// Plan-driven factories. Every exec operator is instantiated from its plan
// node through these — no other translation unit constructs one directly
// (enforced by tools/check_no_dup_scan.sh), which keeps the plan tree the
// single execution contract from parser to backend.
// ---------------------------------------------------------------------------

/// Instantiates the scan operator for plan node `scan` (kind kHdfsScan)
/// over one scan range. `table` is the catalog resolution of
/// `scan.table_name` (validated by the caller); `scan_region` is the
/// optional zone-map pruning envelope. All pointers must outlive the node.
std::unique_ptr<ExecNode> MakeScanExecNode(const PlanNode& scan,
                                           const TableDef* table,
                                           const dfs::SimFile* file,
                                           int64_t offset, int64_t length,
                                           Counters* counters,
                                           const geom::Envelope* scan_region);

/// Builds the broadcast right side described by a join plan node (`join`,
/// kind kSpatialJoin or kCrossJoin) and its right scan child
/// (`right_scan`, the exchange's input).
Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRightForPlan(
    const PlanNode& join, const PlanNode& right_scan, const TableDef* table,
    const dfs::SimFile* file, Counters* counters);

/// Instantiates the join operator for plan node `join`: the spatial join
/// for kSpatialJoin — partitioned when `tiled` is non-null, broadcast
/// otherwise — and the nested-loop cross join for kCrossJoin.
/// `output_exprs` views `join.outputs`; `tile_seconds` receives per-tile
/// compute when `tiled` is set, one slot per tile.
std::unique_ptr<ExecNode> MakeJoinExecNode(
    const PlanNode& join, std::unique_ptr<ExecNode> left_child,
    const BroadcastRight* right, const cloudjoin::exec::TiledRight* tiled,
    const std::vector<const Expr*>* output_exprs, Counters* counters,
    std::vector<double>* tile_seconds);

/// Instantiates the projection operator (plan kind kProject).
std::unique_ptr<ExecNode> MakeProjectExecNode(
    std::unique_ptr<ExecNode> child,
    const std::vector<const Expr*>* output_exprs);

}  // namespace cloudjoin::impala

#endif  // CLOUDJOIN_IMPALA_EXEC_NODE_H_
