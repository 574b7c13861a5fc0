#include "impala/exec_node.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/probe_stats.h"
#include "exec/refiner.h"
#include "exec/right_builder.h"
#include "exec/tiled_probe.h"

namespace cloudjoin::impala {

namespace {

namespace core = cloudjoin::exec;

/// Rough serialized size of a row (for broadcast cost accounting).
int64_t RowBytes(const Row& row) {
  int64_t bytes = 0;
  for (const Value& v : row) {
    bytes += 8;
    if (const auto* s = std::get_if<std::string>(&v)) {
      bytes += static_cast<int64_t>(s->size());
    }
  }
  return bytes;
}

/// The spatial-join refinement personality, for both join strategies: the
/// prepared fast path and the cached-parse ablation (a right side built
/// with its parses kept) are the core's GeosRefiner; the UDF re-parse
/// (faithful ISP-MC) is this engine's own.
class SpatialRefinery {
 public:
  SpatialRefinery(const BroadcastRight* right, const SpatialJoinSpec* spec)
      : right_(right),
        spec_(spec),
        has_distance_(spec->predicate ==
                      SpatialJoinSpec::Predicate::kNearestD),
        predicate_(PredicateOf(*spec)),
        refiner_(right, &predicate_) {}

  /// Per-probe setup (candidates arrive grouped by probe): prepares the
  /// UDF argument slots once per probe row; only the right geometry slot
  /// changes per candidate.
  void BeginProbe(const std::string& left_wkt) {
    if (!right_->parsed.empty()) return;  // kept parses: no UDF call follows
    udf_args_.resize(has_distance_ ? 3 : 2);
    udf_args_[0] = left_wkt;
    if (has_distance_) udf_args_[2] = spec_->distance;
  }

  /// Exact test for candidate pair (left_geom, right slot `id`).
  bool Refine(const geosim::Geometry& left_geom, size_t id) {
    bool match = false;
    if (!refiner_.TryParsed(left_geom, id, &refine_stats_, &match)) {
      // Faithful ISP-MC refinement: the UDF receives WKT strings and
      // parses both geometries again (the paper's third parsing site).
      // The args vector is reused across pairs (Impala passes slot
      // references, not fresh copies).
      ++refine_stats_.reparsed;
      udf_args_[1] = right_->wkt[id];
      Value v = spec_->refine_udf->fn(udf_args_);
      const bool* b = std::get_if<bool>(&v);
      match = b != nullptr && *b;
    }
    ++refinements_;
    return match;
  }

  void FlushTo(Counters* counters) {
    if (refinements_ > 0) counters->Add("join.refinements", refinements_);
    refine_stats_.FlushTo(counters);
  }

 private:
  static core::SpatialPredicate PredicateOf(const SpatialJoinSpec& spec) {
    switch (spec.predicate) {
      case SpatialJoinSpec::Predicate::kWithin:
        return core::SpatialPredicate::Within();
      case SpatialJoinSpec::Predicate::kNearestD:
        return core::SpatialPredicate::NearestD(spec.distance);
      case SpatialJoinSpec::Predicate::kIntersects:
        return core::SpatialPredicate::Intersects();
    }
    return core::SpatialPredicate::Intersects();
  }

  const BroadcastRight* right_;
  const SpatialJoinSpec* spec_;
  bool has_distance_;
  core::SpatialPredicate predicate_;
  core::GeosRefiner refiner_;
  core::RefineStats refine_stats_;
  int64_t refinements_ = 0;
  std::vector<Value> udf_args_;  // scratch, reused across pairs
};

/// Parse phase of the spatial join: materializes the batch's probe
/// geometries (the paper's second parsing site) through the core's one WKT
/// entry point, dropping null/bad geometry rows under the unified
/// left-side counters.
void ParseProbeBatch(const RowBatch& left_rows, int left_geom_slot,
                     Counters* counters, std::vector<const Row*>* probe_rows,
                     std::vector<const std::string*>* probe_wkt,
                     std::vector<std::unique_ptr<geosim::Geometry>>* geoms) {
  probe_rows->clear();
  probe_wkt->clear();
  geoms->clear();
  for (int r = 0; r < left_rows.NumRows(); ++r) {
    const Row& left_row = left_rows.row(r);
    const auto* left_wkt =
        std::get_if<std::string>(&left_row[static_cast<size_t>(left_geom_slot)]);
    if (left_wkt == nullptr) {
      counters->Add(core::counter::kLeftMalformed, 1);
      continue;
    }
    auto parsed = core::ParseGeosWkt(*left_wkt);
    if (!parsed.ok()) {
      counters->Add(core::counter::kLeftBadGeom, 1);
      continue;
    }
    probe_rows->push_back(&left_row);
    probe_wkt->push_back(left_wkt);
    geoms->push_back(std::move(parsed).value());
  }
}

/// Post-join conjuncts + output projection for one matched pair.
void EmitJoinRow(const Row& left_row, const Row& right_row,
                 const std::vector<std::unique_ptr<Expr>>& post_filters,
                 const std::vector<const Expr*>& output_exprs,
                 std::vector<Row>* pending) {
  for (const auto& filter : post_filters) {
    if (!filter->EvaluatesTrue(&left_row, &right_row)) return;
  }
  Row out;
  out.reserve(output_exprs.size());
  for (const Expr* expr : output_exprs) {
    out.push_back(expr->Evaluate(&left_row, &right_row));
  }
  pending->push_back(std::move(out));
}

}  // namespace

// ---------------------------------------------------------------- Scan ----

HdfsScanNode::HdfsScanNode(const TableDef* table, const dfs::SimFile* file,
                           int64_t offset, int64_t length,
                           const std::vector<std::unique_ptr<Expr>>* filters,
                           const std::vector<bool>* needed_slots,
                           Counters* counters,
                           const geom::Envelope* scan_region,
                           const dfs::ScanOptions& scan_options)
    : table_(table),
      file_(file),
      offset_(offset),
      length_(length),
      filters_(filters),
      needed_slots_(needed_slots),
      counters_(counters),
      scan_region_(scan_region),
      scan_options_(scan_options) {}

Status HdfsScanNode::Open() {
  if (table_->format == core::TableFormat::kColumnar) {
    if (table_->columns.size() != 2 ||
        table_->columns[0].type != ColumnType::kInt64 ||
        table_->columns[1].type != ColumnType::kString) {
      return Status::InvalidArgument(
          "columnar table must have schema (BIGINT, STRING): " +
          table_->name);
    }
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarTableReader reader,
                               dfs::ColumnarTableReader::Open(*file_));
    col_reader_ =
        std::make_unique<dfs::ColumnarTableReader>(std::move(reader));
    col_next_block_ = 0;
    col_block_loaded_ = false;
    return Status::OK();
  }
  reader_ = std::make_unique<dfs::LineRecordReader>(file_->data(), offset_,
                                                    length_);
  return Status::OK();
}

bool HdfsScanNode::ParseLine(std::string_view line, Row* row) const {
  std::vector<std::string_view> fields = StrSplit(line, table_->separator);
  if (fields.size() != table_->columns.size()) return false;
  row->clear();
  row->reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    // Projection pushdown: unreferenced columns stay NULL (never parsed or
    // copied), as in Impala's materialize-only-needed-slots scans.
    if (needed_slots_ != nullptr && !(*needed_slots_)[i]) {
      row->emplace_back();
      continue;
    }
    switch (table_->columns[i].type) {
      case ColumnType::kInt64: {
        auto v = ParseInt64(fields[i]);
        if (!v.ok()) return false;
        row->emplace_back(*v);
        break;
      }
      case ColumnType::kDouble: {
        auto v = ParseDouble(fields[i]);
        if (!v.ok()) return false;
        row->emplace_back(*v);
        break;
      }
      case ColumnType::kString:
        row->emplace_back(std::string(fields[i]));
        break;
      case ColumnType::kBool:
        row->emplace_back(fields[i] == "true" || fields[i] == "1");
        break;
    }
  }
  return true;
}

Status HdfsScanNode::ColumnarGetNext(RowBatch* batch, bool* eos) {
  batch->Clear();
  const bool need_id = needed_slots_ == nullptr || (*needed_slots_)[0];
  const bool need_wkt = needed_slots_ == nullptr || (*needed_slots_)[1];
  Row row;
  while (!batch->IsFull()) {
    if (!col_block_loaded_) {
      // Advance to the next block this range owns (header offset inside
      // [offset_, offset_+length_)) whose zone-map survives pruning.
      while (!col_block_loaded_ &&
             col_next_block_ < col_reader_->num_blocks()) {
        const int64_t b = col_next_block_++;
        const int64_t header = col_reader_->block_offset(b);
        if (header < offset_ || header >= offset_ + length_) continue;
        counters_->Add(core::counter::kScanBlocksTotal, 1);
        if (scan_region_ != nullptr && scan_options_.zone_map &&
            !col_reader_->zone_map(b).Intersects(*scan_region_)) {
          counters_->Add(core::counter::kScanBlocksPruned, 1);
          continue;
        }
        CLOUDJOIN_ASSIGN_OR_RETURN(col_block_, col_reader_->ReadBlock(b));
        col_row_ = 0;
        col_block_loaded_ = true;
      }
      if (!col_block_loaded_) {
        *eos = true;
        return Status::OK();
      }
    }
    while (!batch->IsFull() && col_row_ < col_block_.size()) {
      const size_t r = static_cast<size_t>(col_row_++);
      counters_->Add(core::counter::kScanRowsScanned, 1);
      row.clear();
      row.reserve(2);
      // Projection pushdown as in the text scan: unreferenced columns
      // stay NULL. A needed WKT column is a payload materialization.
      if (need_id) {
        row.emplace_back(col_block_.ids[r]);
      } else {
        row.emplace_back();
      }
      if (need_wkt) {
        row.emplace_back(std::string(col_block_.wkt[r]));
        counters_->Add(core::counter::kScanRowsMaterialized, 1);
      } else {
        row.emplace_back();
      }
      bool keep = true;
      for (const auto& filter : *filters_) {
        if (!filter->EvaluatesTrue(&row, nullptr)) {
          keep = false;
          break;
        }
      }
      if (keep) batch->Add(std::move(row));
      row = Row();
    }
    if (col_row_ >= col_block_.size()) col_block_loaded_ = false;
  }
  *eos = false;
  return Status::OK();
}

Status HdfsScanNode::GetNext(RowBatch* batch, bool* eos) {
  if (col_reader_ != nullptr) return ColumnarGetNext(batch, eos);
  batch->Clear();
  std::string_view line;
  Row row;
  while (!batch->IsFull()) {
    if (!reader_->Next(&line)) {
      *eos = true;
      return Status::OK();
    }
    counters_->Add("scan.lines", 1);
    if (!ParseLine(line, &row)) {
      counters_->Add("scan.malformed", 1);
      continue;
    }
    bool keep = true;
    for (const auto& filter : *filters_) {
      if (!filter->EvaluatesTrue(&row, nullptr)) {
        keep = false;
        break;
      }
    }
    if (keep) batch->Add(std::move(row));
    row = Row();
  }
  *eos = false;
  return Status::OK();
}

// ----------------------------------------------------------- Broadcast ----

Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRight(
    const TableDef* table, const dfs::SimFile* file,
    const std::vector<std::unique_ptr<Expr>>* filters,
    const std::vector<bool>* needed_slots, int geom_slot, double radius,
    bool cache_parsed, bool prepare_geometries, Counters* counters) {
  CpuTimer watch;
  auto right = std::make_unique<BroadcastRight>();
  core::PrepareOptions prepare;
  prepare.enabled = prepare_geometries;
  core::RightIndexBuilder builder(radius, prepare,
                                  /*keep_parsed=*/cache_parsed);

  if (table->format == core::TableFormat::kColumnar && geom_slot >= 0) {
    // Columnar right side: stored envelopes stream straight into the
    // builder — no WKT parse at all on the default path (the parse only
    // returns when the cached-parse ablation explicitly asks for the
    // geometries). The geometry column of a columnar table is slot 1.
    if (geom_slot != 1) {
      return Status::InvalidArgument(
          "columnar table geometry must be column 1: " + table->name);
    }
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarTableReader reader,
                               dfs::ColumnarTableReader::Open(*file));
    const bool need_id = needed_slots == nullptr || (*needed_slots)[0];
    Row row;
    for (int64_t b = 0; b < reader.num_blocks(); ++b) {
      CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarBlock block,
                                 reader.ReadBlock(b));
      for (int64_t i = 0; i < block.size(); ++i) {
        const size_t r = static_cast<size_t>(i);
        row.clear();
        row.reserve(2);
        if (need_id) {
          row.emplace_back(block.ids[r]);
        } else {
          row.emplace_back();
        }
        row.emplace_back(std::string(block.wkt[r]));
        bool keep = true;
        for (const auto& filter : *filters) {
          if (!filter->EvaluatesTrue(&row, nullptr)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        if (!builder.AddEnvelopeRecord(
                static_cast<int64_t>(right->rows.size()), block.wkt[r],
                block.RowEnvelope(i))) {
          counters->Add(core::counter::kRightBadGeom, 1);
          continue;
        }
        right->bytes += RowBytes(row);
        right->rows.push_back(std::move(row));
        row = Row();
      }
    }
    static_cast<core::BuiltRight&>(*right) = builder.Finish(counters);
    right->bytes +=
        right->tree->MemoryBytes() + right->packed->MemoryBytes();
    right->build_seconds = watch.ElapsedSeconds();
    return right;
  }

  HdfsScanNode scan(table, file, 0, file->size(), filters, needed_slots,
                    counters);
  CLOUDJOIN_RETURN_IF_ERROR(scan.Open());
  RowBatch batch;
  bool eos = false;
  while (!eos) {
    CLOUDJOIN_RETURN_IF_ERROR(scan.GetNext(&batch, &eos));
    for (Row& row : batch.rows()) {
      if (geom_slot < 0) {
        // Cross join: no geometry side-structures, just the rows.
        right->bytes += RowBytes(row);
        right->rows.push_back(std::move(row));
        continue;
      }
      const auto* wkt = std::get_if<std::string>(&row[geom_slot]);
      if (wkt == nullptr) {
        counters->Add(core::counter::kRightMalformed, 1);
        continue;
      }
      auto parsed = core::ParseGeosWkt(*wkt);
      if (!parsed.ok()) {
        counters->Add(core::counter::kRightBadGeom, 1);
        continue;
      }
      // Core build: slot = rows.size(), kept aligned by adding to the
      // builder and to `rows` in lockstep.
      builder.AddGeosRecord(static_cast<int64_t>(right->rows.size()), *wkt,
                            std::move(parsed).value());
      right->bytes += RowBytes(row);
      right->rows.push_back(std::move(row));
    }
  }
  static_cast<core::BuiltRight&>(*right) =
      builder.Finish(geom_slot >= 0 ? counters : nullptr);
  if (geom_slot < 0 && counters != nullptr) {
    counters->Add(core::counter::kRightRows,
                  static_cast<int64_t>(right->rows.size()));
  }
  right->bytes += right->tree->MemoryBytes() + right->packed->MemoryBytes();
  right->build_seconds = watch.ElapsedSeconds();
  return right;
}

int64_t BroadcastRight::MemoryBytes() const {
  int64_t total = core::BuiltRight::MemoryBytes();
  for (const Row& row : rows) {
    total += static_cast<int64_t>(sizeof(Row)) + RowBytes(row);
  }
  return total;
}

// --------------------------------------------------------- SpatialJoin ----

SpatialJoinNode::SpatialJoinNode(
    std::unique_ptr<ExecNode> left_child, const BroadcastRight* right,
    const core::TiledRight* tiled, const SpatialJoinSpec* spec,
    const std::vector<std::unique_ptr<Expr>>* post_filters,
    const std::vector<const Expr*>* output_exprs, Counters* counters, const index::ProbeOptions& probe,
    std::vector<double>* tile_seconds)
    : left_child_(std::move(left_child)),
      right_(right),
      tiled_(tiled),
      spec_(spec),
      post_filters_(post_filters),
      output_exprs_(output_exprs),
      counters_(counters),
      probe_(probe),
      tile_seconds_(tile_seconds) {}

Status SpatialJoinNode::Open() { return left_child_->Open(); }

void SpatialJoinNode::Close() { left_child_->Close(); }

void SpatialJoinNode::ProcessLeftBatch(const RowBatch& left_rows) {
  ParseProbeBatch(left_rows, spec_->left_geom_slot, counters_, &probe_rows_,
                  &probe_wkt_, &probe_geoms_);
  if (probe_rows_.empty()) return;

  // The whole row batch goes through the core's probe driver — sFilter,
  // tile routing and reference-point dedup when partitioned, columnar
  // filter per probe_ — and owned candidates come back probe-ascending
  // within each tile, so broadcast output row order matches per-row
  // execution.
  SpatialRefinery refinery(right_, spec_);
  core::ProbeStats stats;
  int64_t current_probe = -1;
  core::RunTiledProbes(
      static_cast<int64_t>(probe_geoms_.size()), *right_, tiled_, probe_,
      [&](int64_t i) -> const geom::Envelope& {
        return probe_geoms_[static_cast<size_t>(i)]->getEnvelopeInternal();
      },
      [&](int64_t i, int64_t row) {
        const size_t p = static_cast<size_t>(i);
        if (i != current_probe) {
          // First candidate of probe i in this tile: set up the per-probe
          // refinement state (candidates arrive grouped by probe).
          current_probe = i;
          refinery.BeginProbe(*probe_wkt_[p]);
        }
        if (!refinery.Refine(*probe_geoms_[p], static_cast<size_t>(row))) {
          return false;
        }
        EmitJoinRow(*probe_rows_[p], right_->rows[static_cast<size_t>(row)],
                    *post_filters_, *output_exprs_, &pending_);
        return true;
      },
      &stats, tile_seconds_);
  // Post-join conjuncts decide the output rows, so Impala reports its
  // refinements (join.refinements) rather than refine matches.
  stats.matches = 0;
  stats.FlushTo(counters_);
  refinery.FlushTo(counters_);
}

Status SpatialJoinNode::GetNext(RowBatch* batch, bool* eos) {
  batch->Clear();
  while (!batch->IsFull()) {
    if (pending_idx_ < pending_.size()) {
      batch->Add(std::move(pending_[pending_idx_++]));
      continue;
    }
    pending_.clear();
    pending_idx_ = 0;
    if (left_eos_) break;
    CLOUDJOIN_RETURN_IF_ERROR(left_child_->GetNext(&left_batch_, &left_eos_));
    ProcessLeftBatch(left_batch_);
  }
  *eos = pending_idx_ >= pending_.size() && left_eos_;
  return Status::OK();
}

// ----------------------------------------------------------- CrossJoin ----

CrossJoinNode::CrossJoinNode(
    std::unique_ptr<ExecNode> left_child, const BroadcastRight* right,
    const std::vector<std::unique_ptr<Expr>>* post_filters,
    const std::vector<const Expr*>* output_exprs, Counters* counters)
    : left_child_(std::move(left_child)),
      right_(right),
      post_filters_(post_filters),
      output_exprs_(output_exprs),
      counters_(counters) {}

Status CrossJoinNode::Open() { return left_child_->Open(); }

void CrossJoinNode::Close() { left_child_->Close(); }

Status CrossJoinNode::GetNext(RowBatch* batch, bool* eos) {
  batch->Clear();
  while (!batch->IsFull()) {
    if (pending_idx_ < pending_.size()) {
      batch->Add(std::move(pending_[pending_idx_++]));
      continue;
    }
    pending_.clear();
    pending_idx_ = 0;
    if (left_idx_ < left_batch_.NumRows()) {
      const Row& left_row = left_batch_.row(left_idx_++);
      for (const Row& right_row : right_->rows) {
        counters_->Add("join.pairs", 1);
        bool keep = true;
        for (const auto& filter : *post_filters_) {
          if (!filter->EvaluatesTrue(&left_row, &right_row)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        Row out;
        out.reserve(output_exprs_->size());
        for (const Expr* expr : *output_exprs_) {
          out.push_back(expr->Evaluate(&left_row, &right_row));
        }
        pending_.push_back(std::move(out));
      }
      continue;
    }
    if (left_eos_) break;
    CLOUDJOIN_RETURN_IF_ERROR(left_child_->GetNext(&left_batch_, &left_eos_));
    left_idx_ = 0;
  }
  *eos = pending_idx_ >= pending_.size() &&
         left_idx_ >= left_batch_.NumRows() && left_eos_;
  return Status::OK();
}

// ------------------------------------------------------------- Project ----

ProjectNode::ProjectNode(std::unique_ptr<ExecNode> child,
                         const std::vector<const Expr*>* output_exprs)
    : child_(std::move(child)), output_exprs_(output_exprs) {}

Status ProjectNode::Open() { return child_->Open(); }

void ProjectNode::Close() { child_->Close(); }

Status ProjectNode::GetNext(RowBatch* batch, bool* eos) {
  batch->Clear();
  bool child_eos = false;
  CLOUDJOIN_RETURN_IF_ERROR(child_->GetNext(&child_batch_, &child_eos));
  for (const Row& row : child_batch_.rows()) {
    Row out;
    out.reserve(output_exprs_->size());
    for (const Expr* expr : *output_exprs_) {
      out.push_back(expr->Evaluate(&row, nullptr));
    }
    batch->Add(std::move(out));
  }
  *eos = child_eos;
  return Status::OK();
}

// --------------------------------------------- Plan-driven factories ----

std::unique_ptr<ExecNode> MakeScanExecNode(
    const PlanNode& scan, const TableDef* table, const dfs::SimFile* file,
    int64_t offset, int64_t length, Counters* counters,
    const geom::Envelope* scan_region) {
  return std::make_unique<HdfsScanNode>(table, file, offset, length,
                                        &scan.filters, &scan.needed_slots,
                                        counters, scan_region,
                                        scan.scan_options);
}

Result<std::unique_ptr<BroadcastRight>> BuildBroadcastRightForPlan(
    const PlanNode& join, const PlanNode& right_scan, const TableDef* table,
    const dfs::SimFile* file, Counters* counters) {
  int geom_slot = -1;
  double radius = 0.0;
  bool cache_parsed = false;
  bool prepare_geometries = false;
  if (join.kind == PlanNode::Kind::kSpatialJoin) {
    geom_slot = join.spatial.right_geom_slot;
    if (join.spatial.predicate == SpatialJoinSpec::Predicate::kNearestD) {
      radius = join.spatial.distance;
    }
    cache_parsed = join.cache_parsed_geometries;
    prepare_geometries = join.prepare_geometries;
  }
  return BuildBroadcastRight(table, file, &right_scan.filters,
                             &right_scan.needed_slots, geom_slot, radius,
                             cache_parsed, prepare_geometries, counters);
}

std::unique_ptr<ExecNode> MakeJoinExecNode(
    const PlanNode& join, std::unique_ptr<ExecNode> left_child,
    const BroadcastRight* right, const cloudjoin::exec::TiledRight* tiled,
    const std::vector<const Expr*>* output_exprs, Counters* counters,
    std::vector<double>* tile_seconds) {
  if (join.kind == PlanNode::Kind::kSpatialJoin) {
    return std::make_unique<SpatialJoinNode>(
        std::move(left_child), right, tiled, &join.spatial,
        &join.post_filters, output_exprs, counters, join.probe, tiled != nullptr ? tile_seconds : nullptr);
  }
  return std::make_unique<CrossJoinNode>(std::move(left_child), right,
                                         &join.post_filters, output_exprs,
                                         counters);
}

std::unique_ptr<ExecNode> MakeProjectExecNode(
    std::unique_ptr<ExecNode> child,
    const std::vector<const Expr*>* output_exprs) {
  return std::make_unique<ProjectNode>(std::move(child), output_exprs);
}

}  // namespace cloudjoin::impala
