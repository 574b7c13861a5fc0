#ifndef CLOUDJOIN_EXEC_BUILT_RIGHT_H_
#define CLOUDJOIN_EXEC_BUILT_RIGHT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/id_geometry.h"
#include "geom/prepared.h"
#include "geosim/geometry.h"
#include "index/packed_str_tree.h"
#include "index/sfilter.h"
#include "index/str_tree.h"

namespace cloudjoin::exec {

/// The one reusable build artifact of an indexed right side — everything a
/// probe phase reads, whichever engine built it. Build once, probe from
/// anywhere (probe access is const and thread-safe), so a serving layer
/// can retain it across runs.
///
/// Two record flavours share the struct (each engine fills exactly one):
///  - *geom kernel* (SpatialSpark, in-memory broadcast): `records` holds
///    parsed flat geometries; `ids`/`wkt` stay empty.
///  - *GEOS kernel* (ISP-MC, standalone, streaming): `ids` + `wkt` hold
///    the text records for per-pair re-parse refinement; `records` stays
///    empty. A build that keeps its parses fills `parsed` instead of
///    `wkt`, and refinement reads those with no re-parse.
///
/// Engine-specific retentions (Impala rows) live in subclasses; this core
/// owns the index, the grids and the kept parses.
struct BuiltRight {
  /// Geom-kernel flavour: parsed (id, geometry) records, slot-ordered.
  std::vector<IdGeometry> records;
  /// GEOS-kernel flavour: record ids and retained WKT text, slot-ordered;
  /// `wkt` stays empty when `parsed` is filled.
  std::vector<int64_t> ids;
  std::vector<std::string> wkt;
  /// GEOS-kernel flavour: slot-aligned parsed geometries, filled only by
  /// builds that keep them (Impala's cached-parse ablation, the stream's
  /// right sides); empty = the paper's per-pair WKT re-parse of `wkt`.
  std::vector<std::unique_ptr<geosim::Geometry>> parsed;
  /// Slot-aligned prepared grids; empty when preparation is disabled,
  /// nullptr per slot for records below the vertex threshold.
  std::vector<std::unique_ptr<geom::PreparedPolygon>> prepared;
  std::unique_ptr<index::StrTree> tree;
  /// Columnar layout pass over `tree`, retained (and cached) with it so a
  /// warmed serving path never rebuilds the SoA columns.
  std::unique_ptr<index::PackedStrTree> packed;
  /// Spatial membership bitmap over the (radius-expanded) entry envelopes
  /// — the sFilter probes consult before batch descent. nullptr when the
  /// tree is empty.
  std::unique_ptr<index::SFilter> sfilter;
  /// Measured wall-clock of the build that produced this artifact.
  double build_seconds = 0.0;

  /// Number of indexed right-side records.
  int64_t size() const {
    return static_cast<int64_t>(records.empty() ? ids.size()
                                                : records.size());
  }

  /// Number of slots carrying a prepared grid (0 when disabled).
  int64_t NumPrepared() const {
    int64_t n = 0;
    for (const auto& p : prepared) n += p != nullptr ? 1 : 0;
    return n;
  }

  /// Approximate resident size (records/ids/WKT + kept parses + grids +
  /// tree + packed layout), for broadcast payloads and cache memory
  /// accounting. Always >= the sum of the component MemoryBytes() walks.
  int64_t MemoryBytes() const;
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_BUILT_RIGHT_H_
