#include <gtest/gtest.h>

#include <cmath>

#include "geom/envelope.h"
#include "geom/geometry.h"

namespace cloudjoin::geom {
namespace {

TEST(EnvelopeTest, EmptyByDefault) {
  Envelope e;
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_FALSE(e.Intersects(Envelope(0, 0, 1, 1)));
  EXPECT_FALSE(e.Contains(Point{0, 0}));
  EXPECT_EQ(e.Area(), 0.0);
}

TEST(EnvelopeTest, ExpandToIncludePoints) {
  Envelope e;
  e.ExpandToInclude(Point{1, 2});
  e.ExpandToInclude(Point{-3, 5});
  EXPECT_EQ(e.min_x(), -3);
  EXPECT_EQ(e.max_x(), 1);
  EXPECT_EQ(e.min_y(), 2);
  EXPECT_EQ(e.max_y(), 5);
  EXPECT_EQ(e.Width(), 4);
  EXPECT_EQ(e.Height(), 3);
}

TEST(EnvelopeTest, IntersectsAndContains) {
  Envelope a(0, 0, 10, 10);
  Envelope b(5, 5, 15, 15);
  Envelope c(11, 11, 12, 12);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(Point{10, 10}));  // boundary inclusive
  EXPECT_FALSE(a.Contains(Point{10.001, 10}));
  EXPECT_TRUE(a.Contains(Envelope(1, 1, 9, 9)));
  EXPECT_FALSE(a.Contains(b));
}

TEST(EnvelopeTest, TouchingEdgesIntersect) {
  Envelope a(0, 0, 1, 1);
  Envelope b(1, 0, 2, 1);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(EnvelopeTest, ExpandBy) {
  Envelope e(0, 0, 2, 2);
  e.ExpandBy(1.5);
  EXPECT_EQ(e.min_x(), -1.5);
  EXPECT_EQ(e.max_y(), 3.5);
}

TEST(EnvelopeTest, DistanceToPoint) {
  Envelope e(0, 0, 10, 10);
  EXPECT_EQ(e.Distance(Point{5, 5}), 0.0);
  EXPECT_EQ(e.Distance(Point{13, 5}), 3.0);
  EXPECT_DOUBLE_EQ(e.Distance(Point{13, 14}), 5.0);  // 3-4-5
}

TEST(EnvelopeTest, DistanceToEnvelope) {
  Envelope a(0, 0, 1, 1);
  Envelope b(4, 5, 6, 7);
  EXPECT_DOUBLE_EQ(a.Distance(b), 5.0);  // dx=3, dy=4
  EXPECT_EQ(a.Distance(Envelope(0.5, 0.5, 2, 2)), 0.0);
}

TEST(GeometryTest, PointStructure) {
  Geometry p = Geometry::MakePoint(3, 4);
  EXPECT_EQ(p.type(), GeometryType::kPoint);
  EXPECT_EQ(p.NumCoords(), 1);
  EXPECT_EQ(p.NumParts(), 1);
  EXPECT_EQ(p.FirstPoint().x, 3);
  EXPECT_EQ(p.envelope(), Envelope(3, 4, 3, 4));
}

TEST(GeometryTest, LineStringStructure) {
  Geometry l = Geometry::MakeLineString({{0, 0}, {1, 1}, {2, 0}});
  EXPECT_EQ(l.type(), GeometryType::kLineString);
  EXPECT_EQ(l.NumCoords(), 3);
  EXPECT_EQ(l.Ring(0, 0).size(), 3u);
}

TEST(GeometryTest, PolygonAutoCloses) {
  Geometry poly = Geometry::MakePolygon({{{0, 0}, {4, 0}, {4, 4}, {0, 4}}});
  EXPECT_EQ(poly.NumCoords(), 5);  // closing vertex added
  auto ring = poly.Ring(0, 0);
  EXPECT_EQ(ring.front(), ring.back());
}

TEST(GeometryTest, PolygonWithHoles) {
  Geometry poly = Geometry::MakePolygon(
      {{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
       {{2, 2}, {4, 2}, {4, 4}, {2, 4}}});
  EXPECT_EQ(poly.NumParts(), 1);
  EXPECT_EQ(poly.NumRings(0), 2);
  EXPECT_EQ(poly.Ring(0, 1).size(), 5u);
}

TEST(GeometryTest, MultiPolygonStructure) {
  Geometry mp = Geometry::MakeMultiPolygon(
      {{{{0, 0}, {1, 0}, {1, 1}}}, {{{5, 5}, {6, 5}, {6, 6}}}});
  EXPECT_EQ(mp.type(), GeometryType::kMultiPolygon);
  EXPECT_EQ(mp.NumParts(), 2);
  EXPECT_EQ(mp.NumRings(0), 1);
  EXPECT_EQ(mp.NumRings(1), 1);
}

TEST(GeometryTest, EmptyGeometry) {
  Geometry g(GeometryType::kPolygon);
  EXPECT_TRUE(g.IsEmpty());
  EXPECT_TRUE(g.envelope().IsEmpty());
  EXPECT_EQ(g.NumParts(), 0);
}

TEST(GeometryTest, Equality) {
  Geometry a = Geometry::MakePoint(1, 2);
  Geometry b = Geometry::MakePoint(1, 2);
  Geometry c = Geometry::MakePoint(1, 3);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace cloudjoin::geom
