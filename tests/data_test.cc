#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>

#include "common/rng.h"
#include "common/strings.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "dfs/sim_file_system.h"
#include "geom/predicates.h"
#include "geom/wkt.h"

namespace cloudjoin::data {
namespace {

/// Parses "id \t wkt \t attr" and returns the geometry.
geom::Geometry ParseLineGeometry(const std::string& line) {
  auto fields = StrSplit(line, '\t');
  CLOUDJOIN_CHECK(fields.size() == 3u);
  auto g = geom::ReadWkt(fields[1]);
  CLOUDJOIN_CHECK(g.ok()) << g.status();
  return std::move(g).value();
}

/// Signed area of a closed ring (last vertex repeats the first), by the
/// shoelace formula.
double ShoelaceArea(std::span<const geom::Point> ring) {
  double sum = 0.0;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    sum += ring[i].x * ring[i + 1].y - ring[i + 1].x * ring[i].y;
  }
  return sum * 0.5;
}

TEST(GeneratorsTest, Deterministic) {
  EXPECT_EQ(GenerateTaxiTrips(100, 42), GenerateTaxiTrips(100, 42));
  EXPECT_NE(GenerateTaxiTrips(100, 42), GenerateTaxiTrips(100, 43));
  EXPECT_EQ(GenerateEcoregions(20, 1), GenerateEcoregions(20, 1));
}

TEST(GeneratorsTest, IdsEqualLineNumbers) {
  auto lines = GenerateTaxiTrips(50, 9);
  for (size_t i = 0; i < lines.size(); ++i) {
    auto fields = StrSplit(lines[i], '\t');
    EXPECT_EQ(*ParseInt64(fields[0]), static_cast<int64_t>(i));
  }
}

TEST(GeneratorsTest, TaxiPointsMostlyInExtent) {
  auto lines = GenerateTaxiTrips(2000, 11);
  ASSERT_EQ(lines.size(), 2000u);
  geom::Envelope extent = NycExtent();
  int inside = 0;
  for (const auto& line : lines) {
    geom::Geometry g = ParseLineGeometry(line);
    ASSERT_EQ(g.type(), geom::GeometryType::kPoint);
    if (extent.Contains(g.FirstPoint())) ++inside;
  }
  EXPECT_GT(inside, 1600);  // ~80 %+ inside; noise outside is intended
}

TEST(GeneratorsTest, TaxiPointsAreSkewed) {
  // Hotspot clustering: the densest 10% of the extent should hold far
  // more than 10% of the points.
  auto lines = GenerateTaxiTrips(5000, 13);
  geom::Envelope manhattan(970000, 180000, 1020000, 265000);
  int hot = 0;
  for (const auto& line : lines) {
    if (manhattan.Contains(ParseLineGeometry(line).FirstPoint())) ++hot;
  }
  double hot_fraction = static_cast<double>(hot) / 5000;
  double area_fraction = manhattan.Area() / NycExtent().Area();
  EXPECT_GT(hot_fraction, 2.0 * area_fraction);
}

TEST(GeneratorsTest, CensusBlocksTileTheExtent) {
  // The tiling property: every random interior point falls in >= 1 block,
  // and (except for shared boundaries) exactly one.
  auto lines = GenerateCensusBlocks(12, 12, 17);
  ASSERT_EQ(lines.size(), 144u);
  std::vector<geom::Geometry> blocks;
  int64_t total_vertices = 0;
  for (const auto& line : lines) {
    blocks.push_back(ParseLineGeometry(line));
    EXPECT_EQ(blocks.back().type(), geom::GeometryType::kPolygon);
    total_vertices += blocks.back().NumCoords();
  }
  // ~9 vertices per polygon (8 + closing), as in the paper's nycb.
  EXPECT_NEAR(static_cast<double>(total_vertices) / 144.0, 9.0, 0.01);

  Rng rng(3);
  geom::Envelope extent = NycExtent();
  for (int trial = 0; trial < 300; ++trial) {
    geom::Point p{rng.Uniform(extent.min_x() + 1000, extent.max_x() - 1000),
                  rng.Uniform(extent.min_y() + 1000, extent.max_y() - 1000)};
    int count = 0;
    for (const auto& block : blocks) {
      if (geom::PointInPolygon(p, block)) ++count;
    }
    EXPECT_GE(count, 1) << "gap at " << p.x << "," << p.y;
    EXPECT_LE(count, 2) << "overlap at " << p.x << "," << p.y;
  }
}

TEST(GeneratorsTest, StreetsAreShortPolylines) {
  auto lines = GenerateStreets(500, 23);
  ASSERT_EQ(lines.size(), 500u);
  for (const auto& line : lines) {
    geom::Geometry g = ParseLineGeometry(line);
    EXPECT_EQ(g.type(), geom::GeometryType::kLineString);
    EXPECT_GE(g.NumCoords(), 2);
    EXPECT_LE(g.NumCoords(), 5);
  }
}

TEST(GeneratorsTest, EcoregionVertexStatistics) {
  auto lines = GenerateEcoregions(400, 29, /*mean_vertices=*/279);
  int64_t total_vertices = 0;
  for (const auto& line : lines) {
    geom::Geometry g = ParseLineGeometry(line);
    EXPECT_EQ(g.type(), geom::GeometryType::kPolygon);
    total_vertices += g.NumCoords() - 1;  // exclude closing vertex
  }
  double mean = static_cast<double>(total_vertices) / 400.0;
  EXPECT_GT(mean, 279 * 0.7);
  EXPECT_LT(mean, 279 * 1.3);
}

TEST(GeneratorsTest, EcoregionsAreValidSimplePolygons) {
  auto lines = GenerateEcoregions(50, 31);
  for (const auto& line : lines) {
    geom::Geometry g = ParseLineGeometry(line);
    // Star-shaped construction => the centroid is interior.
    geom::Point c = g.envelope().Center();
    // Not asserting containment of the box center (concave shapes), but
    // the ring must close and have positive area.
    auto ring = g.Ring(0, 0);
    EXPECT_EQ(ring.front(), ring.back());
    EXPECT_GT(std::abs(ShoelaceArea(ring)), 0.0);
    (void)c;
  }
}

TEST(GeneratorsTest, SpeciesOccurrencesLandOnEcoregions) {
  // The join must be non-degenerate: a healthy fraction of occurrences
  // fall inside at least one ecoregion.
  auto point_lines = GenerateSpeciesOccurrences(500, 37);
  auto region_lines = GenerateEcoregions(2000, 41);
  std::vector<geom::Geometry> regions;
  for (const auto& line : region_lines) {
    regions.push_back(ParseLineGeometry(line));
  }
  int matched = 0;
  for (const auto& line : point_lines) {
    geom::Point p = ParseLineGeometry(line).FirstPoint();
    for (const auto& region : regions) {
      if (geom::PointInPolygon(p, region)) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GT(matched, 100) << "join would be degenerate";
}

TEST(WorkloadsTest, MaterializeWritesAllFiles) {
  dfs::SimFileSystem fs(4, 32 * 1024);
  auto suite = MaterializeWorkloads(&fs, 0.05, 5);
  ASSERT_TRUE(suite.ok()) << suite.status();
  for (const char* path : {"/data/taxi.tsv", "/data/nycb.tsv",
                           "/data/lion.tsv", "/data/g10m.tsv",
                           "/data/wwf.tsv"}) {
    EXPECT_TRUE(fs.Exists(path)) << path;
  }
  EXPECT_EQ(suite->taxi_nycb.left.path, "/data/taxi.tsv");
  EXPECT_EQ(suite->taxi_lion_500.predicate.distance, 500.0);
  EXPECT_EQ(suite->g10m_wwf.predicate.op, join::SpatialOperator::kWithin);
  EXPECT_GT(suite->taxi_count, 0);
}

TEST(WorkloadsTest, ScaleControlsPointCounts) {
  dfs::SimFileSystem fs(2, 64 * 1024);
  auto small = MaterializeWorkloads(&fs, 0.02, 5);
  ASSERT_TRUE(small.ok());
  dfs::SimFileSystem fs2(2, 64 * 1024);
  auto large = MaterializeWorkloads(&fs2, 0.08, 5);
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->taxi_count, small->taxi_count);
  EXPECT_GT(large->gbif_count, small->gbif_count);
}

TEST(WorkloadsTest, RejectsNonPositiveScale) {
  dfs::SimFileSystem fs(2);
  EXPECT_FALSE(MaterializeWorkloads(&fs, 0.0, 5).ok());
  EXPECT_FALSE(MaterializeWorkloads(&fs, -1.0, 5).ok());
}

}  // namespace
}  // namespace cloudjoin::data
