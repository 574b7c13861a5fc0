#!/usr/bin/env bash
# Duplication tripwire for the shared execution core (src/exec/).
#
# PR 5 collapsed four near-identical right-side build loops and three
# refinement dispatch switches into src/exec/. This check fails CI if a
# copy creeps back in:
#
#   1. WKTReader (the GEOS-role parser) may be used only by the kernel
#      itself (src/geosim/) and the core's one entry point
#      (src/exec/geo_parse.*). An engine shell parsing WKT directly is a
#      second scan loop in the making.
#   2. StrTree::Entry construction (the right-side index build) may appear
#      only in the index layer (src/index/) and the core's builder
#      (src/exec/). An engine shell assembling tree entries is a second
#      right-build loop.
#
# Engines must route through exec::ParseGeosWkt / exec::ParseGeometryText
# and exec::RightIndexBuilder instead.
#
# PR 6 added the columnar block format. The storage layer now has exactly
# two sanctioned scan entry points — dfs::LineRecordReader (text) and
# dfs::ColumnarTableReader (columnar blocks) — so two more tripwires:
#
#   3. The columnar wire format (magic, header arithmetic) is decoded only
#      in src/dfs/columnar_block.*. A second decoder is a format fork.
#   4. ColumnarTableReader / LineRecordReader may be used only by the
#      storage layer itself, the execution core, and the sanctioned engine
#      scan shells listed below. Any other module growing a scan loop must
#      route through exec:: (probe scanner / right builder) instead.
#
# PR 7 added the streaming window index. Its mutation surface is
# deliberately tiny — insert on arrival, expire on watermark advance,
# both inside the registry — so:
#
#   5. WindowGrid (the live-window uniform grid) may be touched only by
#      src/stream/. Another layer mutating or even gathering from the
#      window index would bypass the windowing/watermark discipline that
#      makes streamed output byte-identical to per-window batch joins.
#
# PR 9 added the sFilter probe pre-filter and the planner's table stats:
#
#   6. BuildSFilter (the membership bitmap construction over packed R-tree
#      leaves) runs only in the index layer and the core's right builder.
#      An engine building its own bitmap would drift from the one
#      conservative construction the byte-identical guarantee rests on.
#   7. src/plan/table_stats reads tables through the two sanctioned scan
#      entry points (it is a sampling scan, not a new loop), so it joins
#      the reader allowlists.
#
# PR 10 made the serialized plan the execution contract: exec nodes are
# instantiated only from plan nodes, by the factories in
# src/impala/exec_node.cc. So:
#
#   8. Exec-node construction (make_unique<HdfsScanNode / SpatialJoinNode /
#      CrossJoinNode / ProjectNode>) may appear only in
#      src/impala/exec_node.cc. Any other site building an exec object
#      directly from AST or options bypasses the plan — its queries would
#      execute something EXPLAIN and the serialized plan do not describe,
#      breaking capture/replay.
#
# The probe side has one driver, src/exec/tiled_probe.h: broadcast is its
# one-tile case, the partitioned strategies its many-tile case. So:
#
#   9. index::RunBatchedProbes (the batched filter) is called only by the
#      driver; a second call site is a second filter-then-refine loop.
#  10. SpatialPartitioner::OwnerTileOf (reference-point dedup) runs only in
#      the driver, where it is applied before refinement on every
#      partitioned path.
set -u
cd "$(dirname "$0")/.."

fail=0

check() {
  local label="$1" pattern="$2" allowed="$3"
  local hits
  hits=$(grep -rln "$pattern" src --include='*.cc' --include='*.h' |
    grep -Ev "$allowed" || true)
  if [ -n "$hits" ]; then
    echo "FAIL: $label found outside the execution core:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    echo "Route through src/exec/ (see tools/check_no_dup_scan.sh)." >&2
    fail=1
  fi
}

check "WKTReader usage" \
  "WKTReader" \
  "^src/(exec/geo_parse|geosim/)"

check "right-side StrTree::Entry build" \
  "StrTree::Entry" \
  "^src/(exec/|index/)"

check "columnar wire-format decoding" \
  "kColumnarMagic" \
  "^src/dfs/columnar_block"

check "columnar scan entry point" \
  "ColumnarTableReader" \
  "^src/(dfs/columnar_block|exec/|data/convert|impala/exec_node|join/(standalone_mc|isp_mc_system)|plan/table_stats)"

check "text scan entry point" \
  "LineRecordReader" \
  "^src/(dfs/|exec/|data/convert|impala/exec_node|join/isp_mc_system|spark/rdd|plan/table_stats)"

check "sFilter construction" \
  "BuildSFilter" \
  "^src/(index/|exec/)"

# WindowGridOptions (plain configuration) is fine anywhere; the index
# type itself is what must stay inside src/stream/.
check "streaming window-grid index" \
  "WindowGrid[^O]" \
  "^src/stream/"

check "direct exec-node construction (bypasses the plan contract)" \
  "make_unique<\(HdfsScanNode\|SpatialJoinNode\|CrossJoinNode\|ProjectNode\)>" \
  "^src/impala/exec_node\.cc"

check "batched filter call (second probe loop)" \
  "RunBatchedProbes" \
  "^src/(index/|exec/tiled_probe\.h)"

check "reference-point dedup (second tile loop)" \
  "OwnerTileOf" \
  "^src/(index/|exec/tiled_probe\.h)"

if [ "$fail" -eq 0 ]; then
  echo "check_no_dup_scan: OK (one scan loop, one parse entry point)"
fi
exit "$fail"
