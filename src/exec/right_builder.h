#ifndef CLOUDJOIN_EXEC_RIGHT_BUILDER_H_
#define CLOUDJOIN_EXEC_RIGHT_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/prepare_options.h"
#include "exec/table_input.h"
#include "geosim/geometry.h"
#include "index/str_tree.h"

namespace cloudjoin::exec {

/// The one path from right-side input records to a built right side:
/// envelope expansion by the predicate's filter radius, STR-tree +
/// packed-SoA layout, and (when enabled) prepared-geometry grids under the
/// shared preparability rule. Engine shells feed it records — from an RDD
/// collect, a line scan, or an Impala row batch — and personality stays in
/// the shell while the build semantics live here, once.
class RightIndexBuilder {
 public:
  /// `keep_parsed` fills BuiltRight::parsed in place of BuiltRight::wkt,
  /// so GEOS-role refinement reads the kept geometries instead of
  /// re-parsing WKT per pair.
  RightIndexBuilder(double radius, const PrepareOptions& prepare,
                    bool keep_parsed = false);

  /// Geom-kernel record (already parsed, flat kernel). Preparation is
  /// deferred to Finish() so it can run on the PrepareOptions pool.
  void AddGeomRecord(IdGeometry record);

  /// Wholesale geom-kernel ingest: moves `records` in (only valid while
  /// the builder is empty — the broadcast engines' collect-then-build).
  void AddGeomRecords(std::vector<IdGeometry> records);

  /// GEOS-kernel record: `parsed` is the scanned geometry (drives the
  /// envelope and the preparability rule); the builder retains it when it
  /// keeps parses, else `wkt` for per-pair re-parse refinement. Grids are
  /// built inline while streaming.
  void AddGeosRecord(int64_t id, std::string_view wkt,
                     std::unique_ptr<geosim::Geometry> parsed);

  /// GEOS-kernel record from columnar storage: the envelope comes from
  /// the stored envelope column, so no geometry parse happens on this
  /// path unless the builder keeps parses (one GEOS-role parse to keep)
  /// or preparation is enabled (one flat parse for the grid — exactly
  /// what the text path pays too). `envelope` must be the raw
  /// (un-expanded) envelope the scan kernel would compute from `wkt`.
  /// Returns false, adding nothing, when a parse to keep fails.
  bool AddEnvelopeRecord(int64_t id, std::string_view wkt,
                         geom::Envelope envelope);

  /// Records added so far (== the slot the next Add receives).
  int64_t size() const { return built_.size(); }

  /// Builds tree + packed layout (and, geom flavour, the prepared grids —
  /// in parallel when PrepareOptions carries a pool), emits
  /// join.right_rows / join.prepared_records to `counters` (optional),
  /// and moves the artifact out. `prepare_seconds` (optional) receives
  /// the wall clock spent building grids.
  BuiltRight Finish(Counters* counters = nullptr,
                    double* prepare_seconds = nullptr);

 private:
  double radius_;
  PrepareOptions prepare_;
  bool keep_parsed_;
  BuiltRight built_;
  std::vector<index::StrTree::Entry> entries_;
};

/// The canonical GEOS-kernel right-side build from a delimited text file
/// (the ISP-MC standalone build phase): line scan, field split, id/WKT
/// parse with unified join.right_malformed / join.right_bad_geom
/// accounting, then RightIndexBuilder (`keep_parsed` as there; a columnar
/// row whose WKT fails the parse to keep counts as join.right_bad_geom).
/// `built.build_seconds` measures the whole scan + index build.
Result<BuiltRight> BuildRightFromTable(const dfs::SimFile& file,
                                       const TableInput& input, double radius,
                                       const PrepareOptions& prepare,
                                       Counters* counters,
                                       bool keep_parsed = false);

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_RIGHT_BUILDER_H_
