#include "exec/built_right.h"

#include "geom/point.h"

namespace cloudjoin::exec {

int64_t BuiltRight::MemoryBytes() const {
  int64_t total = static_cast<int64_t>(sizeof(*this)) +
                  static_cast<int64_t>(ids.size() * sizeof(int64_t));
  for (const IdGeometry& r : records) {
    total += 16 + r.geometry.NumCoords() *
                      static_cast<int64_t>(sizeof(geom::Point));
  }
  for (const std::string& s : wkt) {
    total += static_cast<int64_t>(sizeof(std::string) + s.capacity());
  }
  for (const auto& g : parsed) {
    // Heap coordinate sequence plus virtual-object overhead.
    total += 64 + static_cast<int64_t>(g->getNumPoints()) * 24;
  }
  for (const auto& p : prepared) {
    if (p != nullptr) total += p->MemoryBytes();
  }
  if (tree != nullptr) total += tree->MemoryBytes();
  if (packed != nullptr) total += packed->MemoryBytes();
  if (sfilter != nullptr) total += sfilter->MemoryBytes();
  return total;
}

}  // namespace cloudjoin::exec
