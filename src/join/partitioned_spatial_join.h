#ifndef CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_
#define CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_

#include <vector>

#include "common/counters.h"
#include "join/broadcast_spatial_join.h"

namespace cloudjoin::join {

/// SpatialHadoop-style partitioned spatial join — the alternative to
/// broadcasting that both prototype papers point to when the right side
/// outgrows worker memory (our extension beyond the paper's broadcast-only
/// prototypes).
///
/// A thin wrapper over the execution core: the right side is built once
/// (exec::RightIndexBuilder), sharded into BSP tiles balanced on its
/// envelope centers (exec::BuildTiledRight, records spanning several tiles
/// replicated), and probed through the one probe driver
/// (exec::RunTiledProbes), which routes each left record to the tiles it
/// touches and keeps a candidate only in the tile owning the pair's
/// reference point (the lower-left corner of the envelope intersection) —
/// before any exact geometry test, and with no global dedup pass. Results
/// equal BroadcastSpatialJoin exactly, sorted.
///
/// `num_tiles` controls parallel granularity (≈ number of reduce tasks in
/// the HadoopGIS analogy).
std::vector<IdPair> PartitionedSpatialJoin(const std::vector<IdGeometry>& left,
                                           const std::vector<IdGeometry>& right,
                                           const SpatialPredicate& predicate,
                                           int num_tiles,
                                           Counters* counters = nullptr);

}  // namespace cloudjoin::join

#endif  // CLOUDJOIN_JOIN_PARTITIONED_SPATIAL_JOIN_H_
