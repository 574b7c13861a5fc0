#ifndef CLOUDJOIN_EXEC_TILED_PROBE_H_
#define CLOUDJOIN_EXEC_TILED_PROBE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "exec/built_right.h"
#include "exec/probe_stats.h"
#include "exec/tiled_right.h"
#include "geom/envelope.h"
#include "index/batch_prober.h"
#include "index/probe_options.h"
#include "index/spatial_partitioner.h"

namespace cloudjoin::exec {

/// The one filter-then-refine probe driver behind every join engine.
///
/// The driver sees a right side as a list of tiles, each an index over
/// tile-local slots. Broadcast is the one-tile case: the tile is the
/// BuiltRight's own tree, slot == row, and no dedup runs. A partitioned
/// side (exec::TiledRight) has one tree per spatial tile; records spanning
/// several tiles are replicated, and a candidate is kept only by the tile
/// owning its reference point (SpatialPartitioner::OwnerTileOf), so every
/// strategy reports each matching pair exactly once.
///
/// Per call the driver, in this order:
///  1. drops probes the right side's sFilter proves candidate-free (when
///     `options.sfilter` is on and the build carries one; counted in
///     `stats->sfilter_skipped`);
///  2. routes each surviving probe to the tiles its envelope touches;
///  3. filters each tile's probes through index::RunBatchedProbes;
///  4. counts every filter candidate in `stats->candidates` (before dedup),
///     then suppresses replicas the tile does not own;
///  5. calls `refine(i, row)` for the owned candidates only — `i` the
///     caller's probe index, `row` the BuiltRight record row — counting a
///     `true` return in `stats->matches`;
///  6. merges the filter phase's BatchStats into `stats` and, when
///     `tile_seconds` is given, adds each tile's thread-CPU seconds to its
///     slot.
///
/// Candidates reach `refine` tile-major, probes ascending within a tile,
/// per-probe candidates in tree emit order — for the one broadcast tile
/// that is exactly left-major probe order, for every ProbeOptions knob.
/// `envelope_at(i)` returns probe i's filter envelope; the refine callback
/// owns refinement and emission, so each engine keeps its own refiner
/// (GeosRefiner, JtsRefiner, Impala's UDF re-parse, columnar lazy
/// materialization). `stats` must be non-null.

namespace internal {

/// Step 1: the probe indices in [0, count) that survive `right`'s sFilter,
/// ascending. A dropped probe had provably zero candidates, so skipping it
/// cannot change output.
template <typename EnvelopeAt>
std::vector<int64_t> SFilterSurvivors(int64_t count, const BuiltRight& right,
                                      const index::ProbeOptions& options,
                                      EnvelopeAt& envelope_at,
                                      ProbeStats* stats) {
  const index::SFilter* sfilter =
      options.sfilter ? right.sfilter.get() : nullptr;
  std::vector<int64_t> survivors;
  survivors.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    if (sfilter == nullptr || sfilter->MightIntersect(envelope_at(i))) {
      survivors.push_back(i);
    }
  }
  stats->sfilter_skipped += count - static_cast<int64_t>(survivors.size());
  return survivors;
}

/// Steps 3-6 for one tile. `row_if_owned(i, slot)` maps a candidate to its
/// record row, or to -1 when the tile does not own the pair.
template <typename EnvelopeAt, typename RowIfOwned, typename Refine>
void ProbeTile(const index::StrTree& tree, const index::PackedStrTree* packed,
               const std::vector<int64_t>& probes,
               const index::ProbeOptions& options, EnvelopeAt& envelope_at,
               RowIfOwned&& row_if_owned, Refine& refine, ProbeStats* stats,
               double* seconds) {
  CpuTimer tile_watch;
  index::BatchStats filter_stats;
  index::RunBatchedProbes(
      static_cast<int64_t>(probes.size()), tree, packed, options,
      [&](int64_t k) -> geom::Envelope {
        return envelope_at(probes[static_cast<size_t>(k)]);
      },
      [&](int64_t k, int64_t slot) {
        ++stats->candidates;
        const int64_t i = probes[static_cast<size_t>(k)];
        const int64_t row = row_if_owned(i, slot);
        if (row >= 0 && refine(i, row)) ++stats->matches;
      },
      &filter_stats);
  stats->AddFilter(filter_stats);
  if (seconds != nullptr) *seconds += tile_watch.ElapsedSeconds();
}

}  // namespace internal

/// Probes `count` probes against `right`, or — when `tiled` (built from
/// `right` by BuildTiledRight) is non-null — against its tiles.
/// `tile_seconds` (optional) must hold one slot per tile: one for
/// broadcast, `tiled->num_tiles()` otherwise.
template <typename EnvelopeAt, typename Refine>
void RunTiledProbes(int64_t count, const BuiltRight& right,
                    const TiledRight* tiled,
                    const index::ProbeOptions& options,
                    EnvelopeAt&& envelope_at, Refine&& refine,
                    ProbeStats* stats,
                    std::vector<double>* tile_seconds = nullptr) {
  const std::vector<int64_t> probes =
      internal::SFilterSurvivors(count, right, options, envelope_at, stats);
  if (tiled == nullptr) {
    CLOUDJOIN_CHECK(tile_seconds == nullptr || tile_seconds->size() == 1);
    internal::ProbeTile(
        *right.tree, right.packed.get(), probes, options, envelope_at,
        [](int64_t, int64_t slot) { return slot; }, refine, stats,
        tile_seconds != nullptr ? tile_seconds->data() : nullptr);
    return;
  }
  const int num_tiles = tiled->num_tiles();
  CLOUDJOIN_CHECK(tile_seconds == nullptr ||
                  static_cast<int>(tile_seconds->size()) == num_tiles);
  const index::SpatialPartitioner& partitioner = tiled->partitioner();
  // Step 2, the partitioned join's shuffle. A probe outside every tile
  // lies outside the right tree's bounds and matches nothing, as in the
  // broadcast descent.
  std::vector<std::vector<int64_t>> tile_probes(
      static_cast<size_t>(num_tiles));
  std::vector<int> tiles;
  for (int64_t i : probes) {
    partitioner.TilesFor(envelope_at(i), &tiles);
    for (int t : tiles) tile_probes[static_cast<size_t>(t)].push_back(i);
  }
  for (int t = 0; t < num_tiles; ++t) {
    const std::vector<int64_t>& probes_t = tile_probes[static_cast<size_t>(t)];
    if (probes_t.empty() || tiled->tree(t).num_entries() == 0) continue;
    const std::vector<TiledRight::Slot>& slots = tiled->slots(t);
    internal::ProbeTile(
        tiled->tree(t), &tiled->packed(t), probes_t, options, envelope_at,
        [&](int64_t i, int64_t slot) -> int64_t {
          const TiledRight::Slot& s = slots[static_cast<size_t>(slot)];
          return partitioner.OwnerTileOf(envelope_at(i), s.envelope) == t
                     ? s.row
                     : -1;
        },
        refine, stats,
        tile_seconds != nullptr
            ? &(*tile_seconds)[static_cast<size_t>(t)]
            : nullptr);
  }
}

/// The same driver over one tile whose probes were routed upstream (the
/// SpatialSpark shuffle): `tile_right` is that tile's own build (slot ==
/// row), and `owner`'s tile `tile` keeps a candidate only when it owns the
/// pair's reference point. `slot_envelope(row)` returns the record's
/// filter-expanded envelope, as indexed.
template <typename SlotEnvelope, typename EnvelopeAt, typename Refine>
void RunOwnedTileProbes(int64_t count, const BuiltRight& tile_right,
                        const index::SpatialPartitioner& owner, int tile,
                        SlotEnvelope&& slot_envelope,
                        const index::ProbeOptions& options,
                        EnvelopeAt&& envelope_at, Refine&& refine,
                        ProbeStats* stats) {
  const std::vector<int64_t> probes = internal::SFilterSurvivors(
      count, tile_right, options, envelope_at, stats);
  internal::ProbeTile(
      *tile_right.tree, tile_right.packed.get(), probes, options, envelope_at,
      [&](int64_t i, int64_t slot) -> int64_t {
        return owner.OwnerTileOf(envelope_at(i), slot_envelope(slot)) == tile
                   ? slot
                   : -1;
      },
      refine, stats, /*seconds=*/nullptr);
}

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_TILED_PROBE_H_
