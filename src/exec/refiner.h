#ifndef CLOUDJOIN_EXEC_REFINER_H_
#define CLOUDJOIN_EXEC_REFINER_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/probe_stats.h"
#include "exec/spatial_predicate.h"
#include "geom/geometry.h"
#include "geom/predicates.h"
#include "geom/prepared.h"
#include "geosim/geometry.h"

namespace cloudjoin::exec {

/// The refinement layer: ONE switch per geometry kernel over
/// SpatialOperator, and ONE prepared-grid fast path per kernel. Every
/// engine's candidate refinement dispatches through this header — the
/// JTS-vs-GEOS contrast the paper measures lives here and nowhere else.
///
/// Both refiners are concrete (no virtual calls): hot loops instantiate
/// them directly, so refinement inlines into the probe drivers.

/// Evaluates `predicate` between two flat-kernel (JTS-role) geometries.
inline bool RefineGeomPair(const geom::Geometry& left,
                           const geom::Geometry& right,
                           const SpatialPredicate& predicate) {
  switch (predicate.op) {
    case SpatialOperator::kWithin:
      return geom::Within(left, right);
    case SpatialOperator::kNearestD:
      return geom::WithinDistance(left, right, predicate.distance);
    case SpatialOperator::kIntersects:
      return geom::Intersects(left, right);
  }
  return false;
}

/// Evaluates `predicate` between two parsed GEOS-role geometries.
inline bool RefineGeosPair(const geosim::Geometry& left,
                           const geosim::Geometry& right,
                           const SpatialPredicate& predicate) {
  switch (predicate.op) {
    case SpatialOperator::kWithin:
      return left.within(&right);
    case SpatialOperator::kNearestD:
      return left.isWithinDistance(&right, predicate.distance);
    case SpatialOperator::kIntersects:
      return left.intersects(&right);
  }
  return false;
}

/// GEOS-role refinement straight from WKT: parses BOTH sides per call —
/// the paper's per-pair allocation churn (ISP-MC's refine UDF re-parses
/// its arguments on every invocation). Counts the pair in
/// `stats->reparsed` (non-null `stats`). A WKT that fails to re-parse is a
/// non-match, counted in `stats->refine_parse_errors` (this was a silent
/// drop before the exec layer).
bool RefineGeosWkt(const std::string& left_wkt, const std::string& right_wkt,
                   const SpatialPredicate& predicate, RefineStats* stats);

/// Flat-kernel (JTS-role) refiner over an indexed right side: prepared
/// grid point-in-polygon when available for kWithin point probes, exact
/// predicate otherwise. Views, does not own.
class JtsRefiner {
 public:
  JtsRefiner(const std::vector<IdGeometry>* records,
             const std::vector<std::unique_ptr<geom::PreparedPolygon>>*
                 prepared)
      : records_(records), prepared_(prepared) {}

  /// Refines `probe` against right slot `slot`. `stats` must be non-null.
  bool Refine(const geom::Geometry& probe, size_t slot,
              const SpatialPredicate& predicate, RefineStats* stats) const {
    if (!prepared_->empty() && predicate.op == SpatialOperator::kWithin &&
        probe.type() == geom::GeometryType::kPoint && !probe.IsEmpty()) {
      const geom::PreparedPolygon* prep = (*prepared_)[slot].get();
      if (prep != nullptr) {
        ++stats->prepared_hits;
        bool fallback = false;
        bool contained = prep->Contains(probe.FirstPoint(), &fallback);
        if (fallback) ++stats->boundary_fallbacks;
        return contained;
      }
    }
    return RefineGeomPair(probe, (*records_)[slot].geometry, predicate);
  }

 private:
  const std::vector<IdGeometry>* records_;
  const std::vector<std::unique_ptr<geom::PreparedPolygon>>* prepared_;
};

/// GEOS-role refiner over an indexed right side: prepared grid fast path
/// for kWithin point probes, then the right side's kept parses when its
/// build kept them (streaming, Impala's cached-parse ablation), else the
/// per-pair WKT re-parse of ISP-MC / standalone. Views, does not own.
class GeosRefiner {
 public:
  GeosRefiner(const BuiltRight* right, const SpatialPredicate* predicate)
      : right_(right), predicate_(predicate) {}

  /// Prepared-grid fast path: when it applies to (`left_geom`, `slot`),
  /// stores the containment verdict in `*match` and returns true; the
  /// caller skips its own (UDF / cached-geometry / WKT) refinement.
  bool TryPrepared(const geosim::Geometry& left_geom, size_t slot,
                   RefineStats* stats, bool* match) const {
    if (right_->prepared.empty() ||
        predicate_->op != SpatialOperator::kWithin ||
        left_geom.getGeometryTypeId() != geosim::GeometryTypeId::kPoint) {
      return false;
    }
    const geom::PreparedPolygon* prep = right_->prepared[slot].get();
    if (prep == nullptr) return false;
    ++stats->prepared_hits;
    const auto* point = static_cast<const geosim::PointImpl*>(&left_geom);
    bool fallback = false;
    *match = prep->Contains(geom::Point{point->getX(), point->getY()},
                            &fallback);
    if (fallback) ++stats->boundary_fallbacks;
    return true;
  }

  /// Refinement without a WKT re-parse, when the right side allows it:
  /// the prepared fast path, else `left_geom` against the kept parse of
  /// `slot`. Stores the verdict in `*match` and returns true; returns
  /// false when neither applies and the caller must re-parse.
  bool TryParsed(const geosim::Geometry& left_geom, size_t slot,
                 RefineStats* stats, bool* match) const {
    if (TryPrepared(left_geom, slot, stats, match)) return true;
    if (right_->parsed.empty()) return false;
    *match = RefineGeosPair(left_geom, *right_->parsed[slot], *predicate_);
    return true;
  }

  /// Full refinement of one candidate: TryParsed, else per-pair WKT
  /// re-parse through the GEOS-role kernel.
  bool Refine(const geosim::Geometry& left_geom, const std::string& left_wkt,
              size_t slot, RefineStats* stats) const {
    bool match = false;
    if (TryParsed(left_geom, slot, stats, &match)) return match;
    return RefineGeosWkt(left_wkt, right_->wkt[slot], *predicate_, stats);
  }

 private:
  const BuiltRight* right_;
  const SpatialPredicate* predicate_;
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_REFINER_H_
