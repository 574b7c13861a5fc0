#include "join/broadcast_spatial_join.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace cloudjoin::join {

std::vector<IdPair> BroadcastSpatialJoin(const std::vector<IdGeometry>& left,
                                         std::vector<IdGeometry> right,
                                         const SpatialPredicate& predicate,
                                         Counters* counters,
                                         const PrepareOptions& prepare,
                                         const ProbeOptions& probe) {
  BroadcastIndex index(std::move(right), predicate.FilterRadius(), prepare);
  std::vector<IdPair> out;
  index.ProbeBatch(std::span<const IdGeometry>(left.data(), left.size()),
                   predicate, &out, counters, probe);
  return out;
}

std::vector<IdPair> ParallelBroadcastSpatialJoin(
    const std::vector<IdGeometry>& left, std::vector<IdGeometry> right,
    const SpatialPredicate& predicate, int num_threads,
    const PrepareOptions& prepare, Counters* counters,
    const ProbeOptions& probe) {
  CLOUDJOIN_CHECK(num_threads >= 1);
  ThreadPool pool(num_threads);
  PrepareOptions pooled_prepare = prepare;
  if (pooled_prepare.enabled && pooled_prepare.pool == nullptr) {
    pooled_prepare.pool = &pool;
  }
  BroadcastIndex index(std::move(right), predicate.FilterRadius(),
                       pooled_prepare);

  // Contiguous shards, several per thread so a skewed shard cannot
  // serialize the run; per-shard output buffers concatenated in shard
  // order reproduce the serial left-major output byte for byte.
  const int64_t n = static_cast<int64_t>(left.size());
  const int64_t num_shards =
      std::min<int64_t>(n, static_cast<int64_t>(num_threads) * 8);
  std::vector<IdPair> out;
  if (num_shards <= 0) return out;
  const int64_t shard_size = (n + num_shards - 1) / num_shards;
  std::vector<std::vector<IdPair>> shard_out(
      static_cast<size_t>(num_shards));
  std::vector<ProbeStats> shard_stats(static_cast<size_t>(num_shards));
  ParallelFor(&pool, num_shards, [&](int64_t shard) {
    // Trailing shards may start past the end when n does not divide
    // evenly; they probe an empty range.
    const int64_t begin = std::min(n, shard * shard_size);
    const int64_t end = std::min(n, begin + shard_size);
    auto* shard_pairs = &shard_out[static_cast<size_t>(shard)];
    ProbeStats* stats = &shard_stats[static_cast<size_t>(shard)];
    // Each shard runs the columnar path over its contiguous range; the
    // driver restores probe order within the shard, so concatenating the
    // shard buffers still reproduces the serial output byte for byte.
    index.ProbeRangeVisit(
        std::span<const IdGeometry>(left.data() + begin,
                                    static_cast<size_t>(end - begin)),
        predicate, probe,
        [shard_pairs](const IdPair& pair) { shard_pairs->push_back(pair); },
        stats);
  });

  ProbeStats total;
  size_t total_pairs = 0;
  for (const auto& shard : shard_out) total_pairs += shard.size();
  out.reserve(total_pairs);
  for (size_t shard = 0; shard < shard_out.size(); ++shard) {
    out.insert(out.end(), shard_out[shard].begin(), shard_out[shard].end());
    total.MergeFrom(shard_stats[shard]);
  }
  total.FlushTo(counters);
  return out;
}

std::vector<IdPair> NestedLoopSpatialJoin(const std::vector<IdGeometry>& left,
                                          const std::vector<IdGeometry>& right,
                                          const SpatialPredicate& predicate) {
  std::vector<IdPair> out;
  for (const IdGeometry& l : left) {
    for (const IdGeometry& r : right) {
      if (RefinePair(l.geometry, r.geometry, predicate)) {
        out.emplace_back(l.id, r.id);
      }
    }
  }
  return out;
}

}  // namespace cloudjoin::join
