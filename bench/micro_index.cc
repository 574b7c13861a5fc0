// Index microbenchmarks (google-benchmark): STR-tree bulk load and query
// versus its packed (columnar SoA) layout and brute-force filtering — the
// spatial-filtering side of the paper's filter/refine decomposition.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "geom/envelope_batch.h"
#include "index/packed_str_tree.h"
#include "index/str_tree.h"

namespace cloudjoin {
namespace {

using index::StrTree;

std::vector<StrTree::Entry> MakeEntries(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<StrTree::Entry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    double x = rng.Uniform(0, 10000);
    double y = rng.Uniform(0, 10000);
    double w = rng.Uniform(1, 20);
    entries.push_back(
        StrTree::Entry{geom::Envelope(x, y, x + w, y + w), i});
  }
  return entries;
}

geom::Envelope RandomQuery(Rng* rng) {
  double x = rng->Uniform(0, 10000);
  double y = rng->Uniform(0, 10000);
  double w = rng->Uniform(10, 100);
  return geom::Envelope(x, y, x + w, y + w);
}

void BM_StrTreeBuild(benchmark::State& state) {
  auto entries = MakeEntries(state.range(0), 11);
  for (auto _ : state) {
    StrTree tree(entries);
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StrTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StrTreeQuery(benchmark::State& state) {
  StrTree tree(MakeEntries(state.range(0), 13));
  Rng rng(17);
  int64_t hits = 0;
  for (auto _ : state) {
    geom::Envelope q = RandomQuery(&rng);
    tree.Query(q, [&hits](int64_t) { ++hits; });
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_StrTreeQuery)->Arg(10000)->Arg(100000);

void BM_PackedStrTreeBuild(benchmark::State& state) {
  StrTree tree(MakeEntries(state.range(0), 11));
  for (auto _ : state) {
    index::PackedStrTree packed(tree);
    benchmark::DoNotOptimize(packed.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackedStrTreeBuild)->Arg(10000)->Arg(100000);

void BM_PackedStrTreeQuery(benchmark::State& state) {
  StrTree tree(MakeEntries(state.range(0), 13));
  index::PackedStrTree packed(tree);
  Rng rng(17);
  int64_t hits = 0;
  for (auto _ : state) {
    geom::Envelope q = RandomQuery(&rng);
    packed.VisitQuery(q, [&hits](int64_t) { ++hits; });
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PackedStrTreeQuery)->Arg(10000)->Arg(100000);

void BM_PackedStrTreeBatchQuery(benchmark::State& state) {
  StrTree tree(MakeEntries(state.range(0), 13));
  index::PackedStrTree packed(tree);
  Rng rng(17);
  geom::EnvelopeBatch batch;
  index::PairSink sink;
  for (auto _ : state) {
    state.PauseTiming();
    batch.Clear();
    for (int i = 0; i < 256; ++i) batch.Add(RandomQuery(&rng));
    state.ResumeTiming();
    sink.Clear();
    benchmark::DoNotOptimize(packed.BatchQuery(batch, &sink));
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_PackedStrTreeBatchQuery)->Arg(10000)->Arg(100000);

void BM_BruteForceQuery(benchmark::State& state) {
  auto entries = MakeEntries(state.range(0), 13);
  Rng rng(17);
  int64_t hits = 0;
  for (auto _ : state) {
    geom::Envelope q = RandomQuery(&rng);
    for (const auto& e : entries) {
      if (e.envelope.Intersects(q)) ++hits;
    }
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_BruteForceQuery)->Arg(10000);

void BM_StrTreeNearest(benchmark::State& state) {
  StrTree tree(MakeEntries(state.range(0), 13));
  Rng rng(19);
  for (auto _ : state) {
    geom::Point p{rng.Uniform(0, 10000), rng.Uniform(0, 10000)};
    benchmark::DoNotOptimize(tree.NearestEnvelope(p));
  }
}
BENCHMARK(BM_StrTreeNearest)->Arg(100000);

}  // namespace
}  // namespace cloudjoin

BENCHMARK_MAIN();
