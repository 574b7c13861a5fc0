#ifndef CLOUDJOIN_EXEC_PROBE_SCANNER_H_
#define CLOUDJOIN_EXEC_PROBE_SCANNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "dfs/columnar_block.h"
#include "dfs/sim_file_system.h"
#include "exec/built_right.h"
#include "exec/counter_names.h"
#include "exec/geo_parse.h"
#include "exec/id_geometry.h"
#include "exec/probe_stats.h"
#include "exec/refiner.h"
#include "exec/spatial_predicate.h"
#include "exec/table_input.h"
#include "exec/tiled_probe.h"
#include "geosim/geometry.h"
#include "index/probe_options.h"

namespace cloudjoin::exec {

/// One row batch of parsed GEOS-kernel probes: ids, retained WKT (for the
/// per-pair re-parse refinement), and the parsed geometries (for the
/// envelope filter). Clear + refill per block; steady state reuses the
/// buffers.
struct GeosProbeBatch {
  std::vector<int64_t> ids;
  std::vector<std::string> wkt;
  std::vector<std::unique_ptr<geosim::Geometry>> geoms;

  void Clear() {
    ids.clear();
    wkt.clear();
    geoms.clear();
  }
  int64_t size() const { return static_cast<int64_t>(ids.size()); }
};

/// The one left-side record scan: splits each line of a block, parses
/// id + WKT, and accounts malformed rows and bad geometries under the
/// unified join.left_malformed / join.left_bad_geom counters. Every
/// GEOS-kernel engine shell (standalone blocks, Impala scan ranges) feeds
/// its probe phase through this scan or its row-level equivalent.
class ProbeScanner {
 public:
  ProbeScanner(const TableInput& input, Counters* counters)
      : input_(input), counters_(counters) {}

  /// Appends every well-formed record in file[offset, offset+length) to
  /// `batch` (which is NOT cleared — callers own batch lifecycle).
  void ScanBlock(const dfs::SimFile& file, int64_t offset, int64_t length,
                 GeosProbeBatch* batch) const;

 private:
  TableInput input_;
  Counters* counters_;
};

/// Columnar left-scan accounting, accumulated locally and flushed to a
/// `Counters` once per scan (same pattern as ProbeStats).
struct ColumnarScanStats {
  /// Blocks whose zone-map was consulted.
  int64_t blocks_total = 0;
  /// Blocks skipped entirely: zone-map disjoint from the scan region, no
  /// column chunk decoded.
  int64_t blocks_pruned = 0;
  /// Rows whose stored envelopes entered the filter phase.
  int64_t rows_scanned = 0;
  /// Rows whose WKT payload was parsed because a filter candidate
  /// survived (the lazy-materialization hit count).
  int64_t rows_materialized = 0;

  void MergeFrom(const ColumnarScanStats& other) {
    blocks_total += other.blocks_total;
    blocks_pruned += other.blocks_pruned;
    rows_scanned += other.rows_scanned;
    rows_materialized += other.rows_materialized;
  }

  /// Adds the non-zero fields to `counters` under the scan.* names
  /// (no-op on nullptr).
  void FlushTo(Counters* counters) const;
};

/// The columnar left-scan + probe driver: streams one columnar table
/// through the shared two-phase filter using the *stored* envelope
/// columns, pruning whole blocks whose zone-map misses the right side's
/// overall MBR (when `scan_options.zone_map` is on), and parsing a row's
/// WKT only when its first filter candidate arrives. Emits exactly the
/// pairs — in exactly the order — that the text scan path
/// (ProbeScanner::ScanBlock + RunGeosProbes over the same rows) emits.
///
/// `on_block(block_index, seconds)` (optional, pass nullptr-like no-op)
/// receives per-columnar-block wall timing so engines can keep their
/// per-task duration accounting.
template <typename Emit, typename OnBlock>
Status RunColumnarGeosProbes(const dfs::ColumnarTableReader& reader,
                             const BuiltRight& right,
                             const SpatialPredicate& predicate,
                             const index::ProbeOptions& probe_options,
                             const dfs::ScanOptions& scan_options,
                             Counters* counters, Emit&& emit,
                             ProbeStats* stats, ColumnarScanStats* scan_stats,
                             OnBlock&& on_block);

/// Accessor-based form of the GEOS-kernel broadcast probe, for probe sets
/// that are not laid out as a `GeosProbeBatch` (e.g. the streaming window
/// grid, which owns its parsed geometries inside per-cell entries and
/// cannot hand them to a batch without cloning). `get_geom(i)` must return
/// the parsed GEOS-role geometry (convertible to `const geosim::Geometry&`),
/// `get_wkt(i)` the retained WKT text (`const std::string&` — read only
/// when `right` keeps no parses, where the refiner re-parses both sides
/// per pair, the ISP-MC / standalone trait), and `get_id(i)` the probe
/// record id. Runs the one probe driver (exec/tiled_probe.h) over the
/// broadcast tile and refines through GeosRefiner — on `get_geom(i)` and
/// the kept right parse when `right` holds them (the stream's cached
/// right sides) — emitting `emit(IdPair)` for every match in probe order;
/// `stats` must be non-null. The batch overload below delegates here.
template <typename GetGeom, typename GetWkt, typename GetId, typename Emit>
void RunGeosProbes(int64_t count, GetGeom&& get_geom, GetWkt&& get_wkt,
                   GetId&& get_id, const BuiltRight& right,
                   const SpatialPredicate& predicate,
                   const index::ProbeOptions& probe_options, Emit&& emit,
                   ProbeStats* stats) {
  const GeosRefiner refiner(&right, &predicate);
  RunTiledProbes(
      count, right, /*tiled=*/nullptr, probe_options,
      [&](int64_t i) -> const geom::Envelope& {
        const geosim::Geometry& g = get_geom(i);
        return g.getEnvelopeInternal();
      },
      [&](int64_t i, int64_t row) {
        const geosim::Geometry& g = get_geom(i);
        if (!refiner.Refine(g, get_wkt(i), static_cast<size_t>(row),
                            &stats->refine)) {
          return false;
        }
        emit(IdPair(get_id(i), right.ids[static_cast<size_t>(row)]));
        return true;
      },
      stats);
}

/// Runs one parsed probe batch through the one probe driver (broadcast
/// tile, GeosRefiner), calling `emit(IdPair)` for every match in probe
/// order. `stats` must be non-null.
template <typename Emit>
void RunGeosProbes(const GeosProbeBatch& probes, const BuiltRight& right,
                   const SpatialPredicate& predicate,
                   const index::ProbeOptions& probe_options, Emit&& emit,
                   ProbeStats* stats) {
  RunGeosProbes(
      probes.size(),
      [&](int64_t i) -> const geosim::Geometry& {
        return *probes.geoms[static_cast<size_t>(i)];
      },
      [&](int64_t i) -> const std::string& {
        return probes.wkt[static_cast<size_t>(i)];
      },
      [&](int64_t i) { return probes.ids[static_cast<size_t>(i)]; }, right,
      predicate, probe_options, std::forward<Emit>(emit), stats);
}

template <typename Emit, typename OnBlock>
Status RunColumnarGeosProbes(const dfs::ColumnarTableReader& reader,
                             const BuiltRight& right,
                             const SpatialPredicate& predicate,
                             const index::ProbeOptions& probe_options,
                             const dfs::ScanOptions& scan_options,
                             Counters* counters, Emit&& emit,
                             ProbeStats* stats,
                             ColumnarScanStats* scan_stats,
                             OnBlock&& on_block) {
  const GeosRefiner refiner(&right, &predicate);
  // The scan region: everything the right index can possibly match. Tree
  // entries are already expanded by the predicate's filter radius, so a
  // block whose zone-map misses `region` cannot contribute a candidate.
  const geom::Envelope& region = right.tree->bounds();

  // Per-block lazy-materialization scratch, reused across blocks.
  std::vector<std::unique_ptr<geosim::Geometry>> geoms;
  std::vector<std::string> wkt;
  std::vector<char> attempted;

  for (int64_t b = 0; b < reader.num_blocks(); ++b) {
    Stopwatch block_watch;
    ++scan_stats->blocks_total;
    if (scan_options.zone_map && !reader.zone_map(b).Intersects(region)) {
      // Zone-map prune: not a single byte of this block's column chunks
      // is decoded, let alone its WKT payload parsed.
      ++scan_stats->blocks_pruned;
      on_block(b, block_watch.ElapsedSeconds());
      continue;
    }
    CLOUDJOIN_ASSIGN_OR_RETURN(dfs::ColumnarBlock block, reader.ReadBlock(b));
    const int64_t n = block.size();
    scan_stats->rows_scanned += n;
    geoms.clear();
    geoms.resize(static_cast<size_t>(n));
    wkt.assign(static_cast<size_t>(n), std::string());
    attempted.assign(static_cast<size_t>(n), 0);

    // The driver filters the stored envelope column (sFilter, then tree);
    // a row's WKT is parsed only when its first candidate arrives, so rows
    // the sFilter or the tree reject are never materialized.
    RunTiledProbes(
        n, right, /*tiled=*/nullptr, probe_options,
        [&](int64_t i) { return block.RowEnvelope(i); },
        [&](int64_t i, int64_t row) {
          const size_t s = static_cast<size_t>(i);
          if (!attempted[s]) {
            // First candidate of this row: materialize the WKT column now
            // (the text path parsed it before the filter ever ran).
            attempted[s] = 1;
            auto parsed = ParseGeosWkt(block.wkt[s]);
            if (parsed.ok()) {
              geoms[s] = std::move(parsed).value();
              wkt[s] = std::string(block.wkt[s]);
              ++scan_stats->rows_materialized;
            } else if (counters != nullptr) {
              counters->Add(counter::kLeftBadGeom, 1);
            }
          }
          if (geoms[s] == nullptr) {
            // A row whose WKT does not parse is a dropped input row, not a
            // probe: the text scan never lets it reach the filter, so take
            // back the candidate the driver counted.
            --stats->candidates;
            return false;
          }
          if (!refiner.Refine(*geoms[s], wkt[s], static_cast<size_t>(row),
                              &stats->refine)) {
            return false;
          }
          emit(IdPair(block.ids[s], right.ids[static_cast<size_t>(row)]));
          return true;
        },
        stats);
    on_block(b, block_watch.ElapsedSeconds());
  }
  return Status::OK();
}

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_PROBE_SCANNER_H_
