#ifndef CLOUDJOIN_STREAM_WINDOW_GRID_H_
#define CLOUDJOIN_STREAM_WINDOW_GRID_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geom/envelope.h"
#include "geosim/geometry.h"
#include "stream/stream_event.h"

namespace cloudjoin::stream {

struct WindowGridOptions {
  /// Cells per axis of each pane's uniform grid (GeoFlink's fixed grid).
  /// cells_per_axis^2 cells per live pane; 16 keeps a pane's directory a
  /// few KB while giving streets-scale feeds real pruning.
  int cells_per_axis = 16;
  /// Spatial extent the grid covers. Events outside (or with non-finite /
  /// empty envelopes) fall into the clamped edge cells — never dropped.
  /// Empty extent degrades to a single cell (no pruning, still correct).
  geom::Envelope extent;
};

/// The incremental uniform-grid index over live window contents
/// (GeoFlink's core idea): events are inserted into their cell once on
/// arrival — parsed once, placed once — and leave in O(pane) when the
/// watermark expires their pane, instead of the window index being
/// rebuilt from scratch for every firing. Organized per pane so sliding
/// windows share storage: window w gathers panes [w, w + P - 1], and
/// expiry is pane-granular exactly like the WindowManager's.
///
/// Each cell tracks the envelope of its *contents* (not its nominal
/// bounds), so gathering for a probe region can skip whole cells whose
/// contents cannot reach it — output-neutral, because the batched filter
/// would reject every candidate in them anyway.
///
/// Not thread-safe; the registry serializes access. Mutation of this
/// index outside src/stream is a tripwire violation
/// (tools/check_no_dup_scan.sh).
class WindowGrid {
 public:
  /// One indexed event: identity, the arrival-parsed geometry and the
  /// event's memoized join result. `event` points into the WindowManager's
  /// pane storage and shares its lifetime (both expire on the same pane
  /// boundary), and so does the memo.
  struct EventRef {
    int64_t seq = 0;
    int64_t id = 0;
    const StreamEvent* event = nullptr;
    std::unique_ptr<geosim::Geometry> geom;
    /// Right ids this event matched, in probe emit order — valid only
    /// while `right_epoch` equals the owning query's right-side epoch.
    /// Epochs start at 1, so a fresh ref (0) is always unprobed.
    std::vector<int64_t> matches;
    int64_t right_epoch = 0;
  };

  struct GatherStats {
    /// Non-empty cells consulted.
    int64_t cells_scanned = 0;
    /// Non-empty cells skipped by the content-envelope test.
    int64_t cells_pruned = 0;
    /// Events inside skipped cells.
    int64_t events_pruned = 0;
  };

  explicit WindowGrid(const WindowGridOptions& options);

  /// Indexes one arrival into pane `pane` (O(1): one cell append plus a
  /// content-envelope expand).
  void Insert(int64_t pane, EventRef ref);

  /// Releases every event of `pane`; returns how many were dropped.
  int64_t ExpirePane(int64_t pane);

  /// Collects the refs of panes [first_pane, last_pane] whose cell
  /// contents can intersect `region`, appending to `out` and restoring
  /// global arrival order (sort by seq). An empty `region` gathers
  /// nothing — the right side is empty, so no probe can match. The refs
  /// are mutable so the caller can refresh their memos.
  void Gather(int64_t first_pane, int64_t last_pane,
              const geom::Envelope& region, std::vector<EventRef*>* out,
              GatherStats* stats);

  int64_t live_events() const { return live_events_; }
  int64_t live_panes() const { return static_cast<int64_t>(panes_.size()); }

 private:
  struct Cell {
    std::vector<EventRef> events;
    /// Envelope of the contents' envelopes (grows on insert; never
    /// shrinks — pruning stays conservative within a pane's lifetime).
    geom::Envelope bounds;
  };
  struct PaneGrid {
    std::vector<Cell> cells;
  };

  /// Cell index for an event envelope (clamped into the grid).
  int CellFor(const geom::Envelope& envelope) const;

  WindowGridOptions options_;
  int cells_per_axis_;
  double cell_width_;
  double cell_height_;
  std::map<int64_t, PaneGrid> panes_;
  int64_t live_events_ = 0;
};

}  // namespace cloudjoin::stream

#endif  // CLOUDJOIN_STREAM_WINDOW_GRID_H_
