"""Turns one driver run (its JSON report and span TSV) into metrics.

Kept free of I/O beyond parsing so the benchmark's own tests can exercise
every rule: percentile choice, span self time, metric names, whole-run
throughput and the result line.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

# Layers the traced run attributes self time to, one per module (plus the
# benchmark's own glue, "bench").
OP_LAYERS = ("bench", "exec", "geom", "geosim", "impala", "index", "join",
             "server", "sim", "spark", "stream")
SETUP_LAYERS = ("data", "dfs", "plan", "server", "stream")
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def validate_name(name):
    """Raises ValueError unless `name` is a valid metric name."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError("bad metric name: %r" % (name,))
    return name


def _rank(n, p):
    """1-based nearest rank of percentile `p` among `n` sorted samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n):
    """Highest percentile of the ladder with at least ten samples beyond it
    among `n` samples, or None when even the median has fewer."""
    for p in PERCENTILE_LADDER:
        if n - _rank(n, p) >= 10:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile; requires ten samples beyond `p`."""
    best = tail_percentile(len(values))
    if best is None or p > best:
        raise ValueError("p%g needs >= 10 samples beyond it, have %d samples"
                         % (p, len(values)))
    return sorted(values)[_rank(len(values), p) - 1]


def rows_per_s(rounds):
    """Whole-run throughput: total rows over total timed wall."""
    wall = sum(r["wall_s"] for r in rounds)
    if wall <= 0:
        raise ValueError("no timed wall")
    return sum(r["rows"] for r in rounds) / wall


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-layer self time in ns, split into set-up (op -1) and timed spans.

    A span's self time is its duration minus the part of it covered by its
    direct children. Returns ({layer: ns} for set-up, {layer: ns} for the
    timed phase).
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    setup, timed = {}, {}
    for s in spans:
        own = s["end"] - s["start"]
        own -= covered_ns(children.get(s["id"], []), s["start"], s["end"])
        layer = s["name"].split(".", 1)[0]
        target = setup if s["op"] == -1 else timed
        target[layer] = target.get(layer, 0) + own
    return setup, timed


def parse_spans(text):
    spans = []
    for line in text.splitlines():
        if not line.strip():
            continue
        sid, parent, op, name, start, end = line.split("\t")
        spans.append({"id": int(sid), "parent": int(parent), "op": int(op),
                      "name": name, "start": int(start), "end": int(end)})
    return spans


def emit_result(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps name -> (value,
    unit)."""
    out = {}
    for name, (value, unit) in metrics.items():
        validate_name(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % name)
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out},
                      sort_keys=False)


def parse_result(line):
    """Parses and checks a result line; returns the decoded object."""
    obj = json.loads(line)
    if tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError("result keys %s" % sorted(obj))
    if not isinstance(obj["attempted"], int) or obj["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in obj["metrics"].items():
        validate_name(name)
        if sorted(metric) != ["unit", "value"]:
            raise ValueError("metric %s keys %s" % (name, sorted(metric)))
    return obj


# ---------------------------------------------------------------------------
# Driver report -> metrics.


def _ratio(num, den):
    return num / den if den else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _ops_with(ops, key):
    return [op for op in ops if key in op["values"]]


def _sum(ops, key):
    return sum(op["values"].get(key, 0.0) for op in ops)


def _median_of(ops, key):
    return _median([op["values"][key] for op in _ops_with(ops, key)])


def _tail(values, p):
    """`percentile` when the samples allow it, else their maximum."""
    best = tail_percentile(len(values))
    if best is not None and best >= p:
        return percentile(values, p)
    return max(values, default=0.0)


def _setup_part(report, name):
    return _median(report["setup_parts"].get(name, []))


def check_counts(report):
    """(attempted, failed): every timed op plus every failed set-up check."""
    ops = report["ops"]
    failures = report["check_failures"]
    attempted = len(ops) + failures
    failed = sum(1 for op in ops if not op["ok"]) + failures
    return attempted, failed


def end_to_end(report):
    """Metrics of an untraced run: {name: (value, unit)}."""
    ops = report["ops"]
    latencies = [op["latency_s"] * 1e3 for op in ops]
    attempted, failed = check_counts(report)
    return {
        "rows_per_s": (rows_per_s(report["rounds"]), "rows/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p95_ms": (percentile(latencies, 95.0), "ms"),
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "peak_rss_mb": (report["values"]["peak_rss_mb"], "MiB"),
        "ok_frac": (_ratio(attempted - failed, attempted), "ratio"),
    }


def _engine(op):
    return op["kind"].split("/", 1)[0]


def per_layer(report, spans):
    """Metrics of a traced run: {name: (value, unit)}. Timings come from
    the traced rounds, counts from every op."""
    ops = report["ops"]
    traced = [op for op in ops if op["traced"]]
    values = report["values"]
    m = {}

    m["host.memloop_s"] = (values["host.memloop_s"], "s")
    m["host.steal_frac"] = (values["host.steal_frac"], "ratio")

    m["data.generate_s"] = (_setup_part(report, "data.generate_s"), "s")
    m["dfs.convert_s"] = (_setup_part(report, "dfs.convert_s"), "s")
    m["dfs.blocks_pruned_frac"] = (_ratio(
        _sum(ops, "scan.blocks_pruned"), _sum(ops, "scan.blocks_total")),
        "ratio")
    m["dfs.rows_materialized_frac"] = (_ratio(
        _sum(ops, "scan.rows_materialized"), _sum(ops, "scan.rows_scanned")),
        "ratio")

    rounds = max(1, len(report["rounds"]))
    partitioned = [op for op in ops
                   if op["values"].get("plan.strategy_partitioned", 0) >= 1]
    m["plan.stats_s"] = (_setup_part(report, "plan.stats_s"), "s")
    m["plan.partitioned_ops"] = (len(partitioned) / rounds, "count")
    m["join.hot_tiles_split"] = (_ratio(
        _sum(partitioned, "join.hot_tiles_split"), len(partitioned)), "count")

    isp = [op for op in traced if "impala.frontend_ms" in op["values"]]
    m["impala.frontend_ms"] = (_median_of(isp, "impala.frontend_ms"), "ms")
    m["impala.exec_ms"] = (_median([
        op["latency_s"] * 1e3 - op["values"]["impala.frontend_ms"]
        - op["values"].get("server.queue_ms", 0.0) for op in isp]), "ms")

    m["exec.build_ms"] = (_median_of(traced, "exec.build_ms"), "ms")
    builds = [op["values"]["exec.build_ms"] for op in _ops_with(
        ops, "exec.build_ms")]
    m["exec.build_ms_min"] = (min(builds, default=0.0), "ms")
    m["exec.build_ms_max"] = (max(builds, default=0.0), "ms")
    m["exec.probe_cpu_ms"] = (_median_of(traced, "exec.probe_cpu_ms"), "ms")
    m["exec.right_mb"] = (_median_of(ops, "exec.right_mb"), "MiB")

    probed = _ops_with(ops, "join.candidates")
    candidates = _sum(probed, "join.candidates")
    m["index.candidates_per_row"] = (_ratio(
        candidates, sum(op["rows"] for op in probed)), "count")
    m["index.match_frac"] = (_ratio(_sum(probed, "join.pairs"),
                                    candidates), "ratio")
    m["index.sfilter_skip_frac"] = (_ratio(
        _sum(probed, "join.sfilter_skipped"),
        sum(op["rows"] for op in probed)), "ratio")

    geos = [op for op in _ops_with(traced, "join.candidates")
            if _engine(op) != "spark"]
    spark = [op for op in traced if _engine(op) == "spark"]
    m["geosim.refine_us"] = (1e3 * _ratio(
        _sum(geos, "exec.probe_cpu_ms"), _sum(geos, "join.candidates")), "us")
    m["geom.refine_us"] = (1e3 * _ratio(
        _sum(spark, "spark.probe_stage_ms"), _sum(spark, "join.candidates")),
        "us")
    m["join.refine_parse_error"] = (_sum(ops, "join.refine_parse_error"),
                                    "count")

    for engine in ("ispmc", "spark", "standalone", "partitioned"):
        mine = [op for op in traced if _engine(op) == engine]
        m["join.%s_ms" % engine] = (_median(
            [op["latency_s"] * 1e3 for op in mine]), "ms")
    for engine in ("ispmc", "spark", "standalone"):
        mine = [op for op in ops if _engine(op) == engine]
        m["join.%s_rows_per_s" % engine] = (_ratio(
            sum(op["rows"] for op in mine),
            sum(op["latency_s"] for op in mine)), "rows/s")
    all_spark = [op for op in ops if _engine(op) == "spark"]
    m["spark.tasks_per_op"] = (_ratio(_sum(all_spark, "spark.tasks"),
                                      len(all_spark)), "count")

    table1 = {}
    for engine in ("ispmc", "spark", "standalone"):
        kinds = sorted({op["kind"] for op in ops
                        if _engine(op) == engine
                        and "sim.table1_s" in op["values"]})
        table1[engine] = sum(
            _median([op["values"]["sim.table1_s"] for op in ops
                     if op["kind"] == kind]) for kind in kinds)
        m["sim.table1_%s_s" % engine] = (table1[engine], "s")
    m["sim.ispmc_over_spark"] = (_ratio(table1["ispmc"], table1["spark"]),
                                 "ratio")

    served = _ops_with(traced, "server.queue_ms")
    queue = [op["values"]["server.queue_ms"] for op in served]
    m["server.queue_ms_p50"] = (_median(queue), "ms")
    m["server.queue_ms_p95"] = (_tail(queue, 95.0), "ms")
    m["server.exec_ms_p50"] = (_median_of(served, "server.exec_ms"), "ms")
    hits = values.get("server.cache_hits", 0.0)
    m["server.cache_hit_frac"] = (_ratio(
        hits, hits + values.get("server.cache_misses", 0.0)), "ratio")
    m["server.cache_mb"] = (values.get("server.cache_mb", 0.0), "MiB")
    m["server.rejected"] = (values.get("server.rejected", 0.0), "count")
    m["server.warm_s"] = (_setup_part(report, "server.warm_s"), "s")

    windows = _ops_with(ops, "stream.probe_ms")
    traced_windows = _ops_with(traced, "stream.probe_ms")
    stream_rounds = [r for r in report["rounds"] if r["traced"]]
    events = sum(r["rows"] for r in stream_rounds) if windows else 0
    probe_s = _sum(traced_windows, "stream.probe_ms") / 1e3
    m["stream.ingest_us"] = (1e6 * _ratio(
        sum(r["wall_s"] for r in stream_rounds) - probe_s, events)
        if windows else 0.0, "us")
    probe_ms = [op["values"]["stream.probe_ms"] for op in traced_windows]
    m["stream.probe_ms_p50"] = (_median(probe_ms), "ms")
    m["stream.probe_ms_p95"] = (_tail(probe_ms, 95.0), "ms")
    m["stream.cells_pruned_frac"] = (_ratio(
        _sum(windows, "stream.cells_pruned"),
        _sum(windows, "stream.cells_scanned")), "ratio")
    m["stream.events_pruned_frac"] = (_ratio(
        values.get("stream.events_pruned", 0.0),
        _sum(windows, "stream.window_events")), "ratio")
    m["stream.right_cache_hit_frac"] = (_ratio(
        values.get("stream.right_cache_hit", 0.0),
        values.get("stream.right_cache_hit", 0.0)
        + values.get("stream.right_cache_miss", 0.0)), "ratio")
    passes = len(report["rounds"]) if windows else 1
    m["stream.grid_rebuilds"] = (values.get("stream.grid_rebuilds", 0.0)
                                 / passes, "count")
    m["stream.late_dropped"] = (values.get("stream.late_dropped", 0.0)
                                / passes, "count")
    lags = [op["values"]["stream.watermark_lag_ms"] for op in windows
            if op["kind"] == "window"]
    m["stream.watermark_lag_ms_mean"] = (
        statistics.fmean(lags) if lags else 0.0, "ms")
    m["stream.watermark_lag_ms_max"] = (max(lags, default=0.0), "ms")
    m["stream.warm_s"] = (_setup_part(report, "stream.warm_s"), "s")

    untraced = [r for r in report["rounds"] if not r["traced"]]
    traced_rounds = [r for r in report["rounds"] if r["traced"]]
    m["trace.overhead_frac"] = (
        1.0 - rows_per_s(traced_rounds) / rows_per_s(untraced)
        if untraced and traced_rounds else 0.0, "ratio")
    setup_self, op_self = self_times(spans)
    setups = max(1, len(report["setup_s"]))
    for layer in SETUP_LAYERS:
        m["trace.setup_self_ms.%s" % layer] = (
            setup_self.get(layer, 0) / 1e6 / setups, "ms")
    for layer in OP_LAYERS:
        m["trace.op_self_ms.%s" % layer] = (
            _ratio(op_self.get(layer, 0) / 1e6, len(traced)), "ms")
    return m
