#include "exec/broadcast_index.h"

#include <utility>

#include "exec/right_builder.h"

namespace cloudjoin::exec {

BroadcastIndex::BroadcastIndex(std::vector<IdGeometry> records, double radius,
                               const PrepareOptions& prepare)
    : refiner_(&core_.records, &core_.prepared) {
  RightIndexBuilder builder(radius, prepare);
  builder.AddGeomRecords(std::move(records));
  core_ = builder.Finish(/*counters=*/nullptr, &prepare_seconds_);
  num_prepared_ = core_.NumPrepared();
}

void BroadcastIndex::Probe(const IdGeometry& probe,
                           const SpatialPredicate& predicate,
                           std::vector<IdPair>* out,
                           Counters* counters) const {
  ProbeBatch(std::span<const IdGeometry>(&probe, 1), predicate, out, counters);
}

void BroadcastIndex::ProbeBatch(std::span<const IdGeometry> probes,
                                const SpatialPredicate& predicate,
                                std::vector<IdPair>* out, Counters* counters,
                                const index::ProbeOptions& probe_options)
    const {
  ProbeStats stats;
  ProbeRangeVisit(probes, predicate, probe_options,
                  [out](const IdPair& pair) { out->push_back(pair); }, &stats);
  stats.FlushTo(counters);
}

}  // namespace cloudjoin::exec
