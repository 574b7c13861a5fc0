#include "exec/tiled_right.h"

#include <algorithm>
#include <utility>

#include "exec/counter_names.h"

namespace cloudjoin::exec {

std::unique_ptr<TiledRight> BuildTiledRight(const BuiltRight& right,
                                            const TiledRightOptions& options,
                                            Counters* counters) {
  // An empty right side — or one whose every geometry is empty, leaving
  // the tree bounds empty — can match nothing and has no extent to tile.
  if (right.tree == nullptr || right.tree->bounds().IsEmpty()) {
    return nullptr;
  }
  const std::vector<index::StrTree::Entry>& entries = right.tree->entries();

  // Tiling extent: the tree bounds, padded when degenerate so the
  // partitioner always has area to split.
  geom::Envelope extent = right.tree->bounds();
  if (!(extent.Width() > 0.0) || !(extent.Height() > 0.0)) {
    extent.ExpandBy(1.0);
  }

  // BSP over the (expanded) entry centers, then adaptive hot splitting
  // steered by the probe sample — LocationSpark's skew repartitioner.
  std::vector<geom::Point> build_centers;
  build_centers.reserve(entries.size());
  for (const index::StrTree::Entry& e : entries) {
    build_centers.push_back(e.envelope.Center());
  }
  auto tiled = std::unique_ptr<TiledRight>(new TiledRight());
  tiled->partitioner_ = std::make_unique<index::SpatialPartitioner>(
      extent, build_centers, std::max(1, options.num_tiles));
  if (options.adaptive) {
    static const std::vector<geom::Point> kNoSample;
    const std::vector<geom::Point>& probe =
        options.probe_sample != nullptr ? *options.probe_sample : kNoSample;
    const int max_tiles =
        std::max(1, options.num_tiles) * std::max(1, options.max_tiles_factor);
    std::vector<geom::Envelope> build_envelopes;
    build_envelopes.reserve(entries.size());
    for (const index::StrTree::Entry& e : entries) {
      build_envelopes.push_back(e.envelope);
    }
    tiled->hot_tiles_split_ = tiled->partitioner_->SplitHotTiles(
        probe, build_envelopes, options.skew_factor, max_tiles);
    if (counters != nullptr && tiled->hot_tiles_split_ > 0) {
      counters->Add(counter::kHotTilesSplit, tiled->hot_tiles_split_);
    }
  }

  // Replicate each entry into every tile its expanded envelope touches and
  // build the per-tile trees. Entry indices in a tile tree are slot
  // positions; the slot records the original row for record access and the
  // expanded envelope for reference-point dedup.
  const index::SpatialPartitioner& partitioner = *tiled->partitioner_;
  tiled->tiles_.resize(partitioner.tiles().size());
  std::vector<int> tiles;
  for (const index::StrTree::Entry& e : entries) {
    partitioner.TilesFor(e.envelope, &tiles);
    for (int t : tiles) {
      tiled->tiles_[static_cast<size_t>(t)].slots.push_back(
          TiledRight::Slot{e.envelope, e.id});
    }
  }
  for (TiledRight::Tile& tile : tiled->tiles_) {
    std::vector<index::StrTree::Entry> tile_entries;
    tile_entries.reserve(tile.slots.size());
    for (size_t s = 0; s < tile.slots.size(); ++s) {
      tile_entries.push_back(index::StrTree::Entry{
          tile.slots[s].envelope, static_cast<int64_t>(s)});
    }
    tile.tree = std::make_unique<index::StrTree>(std::move(tile_entries));
    tile.packed = std::make_unique<index::PackedStrTree>(*tile.tree);
  }
  return tiled;
}

}  // namespace cloudjoin::exec
