#include "stream/window_grid.h"

#include <algorithm>
#include <cmath>

namespace cloudjoin::stream {

WindowGrid::WindowGrid(const WindowGridOptions& options)
    : options_(options),
      cells_per_axis_(options.extent.IsEmpty()
                          ? 1
                          : std::max(options.cells_per_axis, 1)),
      cell_width_(options.extent.Width() / cells_per_axis_),
      cell_height_(options.extent.Height() / cells_per_axis_) {}

int WindowGrid::CellFor(const geom::Envelope& envelope) const {
  if (cells_per_axis_ == 1 || envelope.IsEmpty()) return 0;
  const geom::Point c = envelope.Center();
  if (!std::isfinite(c.x) || !std::isfinite(c.y)) return 0;
  // Assign by center so every event lives in exactly one cell; the cell's
  // content envelope absorbs any overhang, keeping pruning exact.
  const auto clamp_axis = [this](double offset, double step) {
    if (step <= 0.0) return 0;
    const int i = static_cast<int>(std::floor(offset / step));
    return std::clamp(i, 0, cells_per_axis_ - 1);
  };
  const int cx = clamp_axis(c.x - options_.extent.min_x(), cell_width_);
  const int cy = clamp_axis(c.y - options_.extent.min_y(), cell_height_);
  return cy * cells_per_axis_ + cx;
}

void WindowGrid::Insert(int64_t pane, EventRef ref) {
  PaneGrid& grid = panes_[pane];
  if (grid.cells.empty()) {
    grid.cells.resize(static_cast<size_t>(cells_per_axis_) *
                      static_cast<size_t>(cells_per_axis_));
  }
  const geom::Envelope& envelope = ref.geom->getEnvelopeInternal();
  Cell& cell = grid.cells[static_cast<size_t>(CellFor(envelope))];
  cell.bounds.ExpandToInclude(envelope);
  cell.events.push_back(std::move(ref));
  ++live_events_;
}

int64_t WindowGrid::ExpirePane(int64_t pane) {
  auto it = panes_.find(pane);
  if (it == panes_.end()) return 0;
  int64_t dropped = 0;
  for (const Cell& cell : it->second.cells) {
    dropped += static_cast<int64_t>(cell.events.size());
  }
  panes_.erase(it);
  live_events_ -= dropped;
  return dropped;
}

void WindowGrid::Gather(int64_t first_pane, int64_t last_pane,
                        const geom::Envelope& region,
                        std::vector<EventRef*>* out, GatherStats* stats) {
  for (auto it = panes_.lower_bound(first_pane);
       it != panes_.end() && it->first <= last_pane; ++it) {
    for (Cell& cell : it->second.cells) {
      if (cell.events.empty()) continue;
      ++stats->cells_scanned;
      if (!cell.bounds.Intersects(region)) {
        // Content envelope misses the probe region: the filter phase
        // would reject every one of these, so skipping is output-neutral.
        ++stats->cells_pruned;
        stats->events_pruned += static_cast<int64_t>(cell.events.size());
        continue;
      }
      for (EventRef& ref : cell.events) out->push_back(&ref);
    }
  }
  std::sort(out->begin(), out->end(),
            [](const EventRef* a, const EventRef* b) {
              return a->seq < b->seq;
            });
}

}  // namespace cloudjoin::stream
