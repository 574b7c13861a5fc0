#ifndef CLOUDJOIN_EXEC_BROADCAST_INDEX_H_
#define CLOUDJOIN_EXEC_BROADCAST_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/counters.h"
#include "exec/built_right.h"
#include "exec/id_geometry.h"
#include "exec/prepare_options.h"
#include "exec/probe_stats.h"
#include "exec/refiner.h"
#include "exec/spatial_predicate.h"
#include "exec/tiled_probe.h"
#include "index/packed_str_tree.h"
#include "index/probe_options.h"
#include "index/str_tree.h"

namespace cloudjoin::exec {

/// The broadcast side of the join: the right-side records plus the STR-tree
/// over their (radius-expanded) envelopes, and — when prepared refinement
/// is enabled — a grid accelerator per sufficiently complex polygon.
/// Build once, probe from anywhere (probes are const and thread-safe).
///
/// This is the flat-kernel (JTS-role) face of the shared core: the build
/// goes through RightIndexBuilder and every candidate refines through
/// JtsRefiner, so engines stacked on top (SpatialSpark stages, partitioned
/// tiles, the kernel serving path) share one build and one refinement.
class BroadcastIndex {
 public:
  /// Builds the index; `radius` expands every envelope (NearestD filter).
  /// `prepare` controls prepared-geometry refinement (off = exact).
  BroadcastIndex(std::vector<IdGeometry> records, double radius,
                 const PrepareOptions& prepare = PrepareOptions());

  /// Refines `probe` against every filtered candidate, appending matches
  /// (probe_id, right_id) to `out` — a one-element ProbeBatch. Counters
  /// (optional): filter candidates, refinement tests, and prepared/fallback
  /// refinement counts.
  void Probe(const IdGeometry& probe, const SpatialPredicate& predicate,
             std::vector<IdPair>* out, Counters* counters = nullptr) const;

  /// Probes a contiguous range through the one probe driver
  /// (exec/tiled_probe.h) over the broadcast tile — sFilter, batched
  /// filter, JtsRefiner — calling `emit(pair)` for every match in probe
  /// order, identically for every knob combination. `stats` must be
  /// non-null.
  template <typename Emit>
  void ProbeRangeVisit(std::span<const IdGeometry> probes,
                       const SpatialPredicate& predicate,
                       const index::ProbeOptions& probe_options, Emit&& emit,
                       ProbeStats* stats) const {
    RunTiledProbes(
        static_cast<int64_t>(probes.size()), core_, /*tiled=*/nullptr,
        probe_options,
        [&](int64_t i) -> const geom::Envelope& {
          return probes[static_cast<size_t>(i)].geometry.envelope();
        },
        [&](int64_t i, int64_t row) {
          const IdGeometry& probe = probes[static_cast<size_t>(i)];
          if (!refiner_.Refine(probe.geometry, static_cast<size_t>(row),
                               predicate, &stats->refine)) {
            return false;
          }
          emit(IdPair(probe.id, core_.records[static_cast<size_t>(row)].id));
          return true;
        },
        stats);
  }

  /// Row-batch probe (mirrors ISP-MC's vectorized execution): probes every
  /// record of `probes` in order, appending matches to `out`; counter
  /// updates are amortized over the whole batch instead of per record.
  /// Runs the columnar path per `probe_options` (default: on).
  void ProbeBatch(std::span<const IdGeometry> probes,
                  const SpatialPredicate& predicate, std::vector<IdPair>* out,
                  Counters* counters = nullptr,
                  const index::ProbeOptions& probe_options =
                      index::ProbeOptions()) const;

  int64_t size() const { return core_.size(); }
  const index::StrTree& tree() const { return *core_.tree; }
  const index::PackedStrTree& packed() const { return *core_.packed; }

  /// The shared built-right core (records + tree + grids).
  const BuiltRight& core() const { return core_; }

  /// Number of right-side records carrying a prepared grid (0 when
  /// preparation is disabled).
  int64_t num_prepared() const { return num_prepared_; }

  /// Wall-clock spent building prepared grids (0 when disabled).
  double prepare_seconds() const { return prepare_seconds_; }

  /// Approximate broadcast payload size (records + tree).
  int64_t MemoryBytes() const { return core_.MemoryBytes(); }

 private:
  BuiltRight core_;
  JtsRefiner refiner_;
  int64_t num_prepared_ = 0;
  double prepare_seconds_ = 0.0;
};

}  // namespace cloudjoin::exec

#endif  // CLOUDJOIN_EXEC_BROADCAST_INDEX_H_
