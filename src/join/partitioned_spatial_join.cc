#include "join/partitioned_spatial_join.h"

#include <algorithm>
#include <memory>

#include "exec/right_builder.h"
#include "exec/tiled_probe.h"
#include "exec/tiled_right.h"

namespace cloudjoin::join {

std::vector<IdPair> PartitionedSpatialJoin(const std::vector<IdGeometry>& left,
                                           const std::vector<IdGeometry>& right,
                                           const SpatialPredicate& predicate,
                                           int num_tiles, Counters* counters) {
  exec::RightIndexBuilder builder(predicate.FilterRadius(), PrepareOptions());
  builder.AddGeomRecords(right);
  const exec::BuiltRight built = builder.Finish();
  exec::TiledRightOptions options;
  options.num_tiles = num_tiles;
  options.adaptive = false;
  const std::unique_ptr<exec::TiledRight> tiled =
      exec::BuildTiledRight(built, options, counters);
  // No tiling: the right side is empty or every right geometry is, and an
  // empty geometry matches nothing.
  if (tiled == nullptr) return {};

  const exec::JtsRefiner refiner(&built.records, &built.prepared);
  std::vector<IdPair> out;
  ProbeStats stats;
  exec::RunTiledProbes(
      static_cast<int64_t>(left.size()), built, tiled.get(), ProbeOptions(),
      [&](int64_t i) -> const geom::Envelope& {
        return left[static_cast<size_t>(i)].geometry.envelope();
      },
      [&](int64_t i, int64_t row) {
        const IdGeometry& probe = left[static_cast<size_t>(i)];
        if (!refiner.Refine(probe.geometry, static_cast<size_t>(row),
                            predicate, &stats.refine)) {
          return false;
        }
        out.emplace_back(probe.id,
                         built.records[static_cast<size_t>(row)].id);
        return true;
      },
      &stats);
  stats.FlushTo(counters);
  // Canonical (sorted) output order; reference-point dedup already made
  // every pair unique.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cloudjoin::join
