#!/usr/bin/env python3
"""CloudJoin layer-separated benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Builds the driver (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, checks its outputs
and prints the metrics; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones from a traced run. Exits
non-zero when the build fails, the driver fails, or an output check fails.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("batch-cold", "serve-hot", "stream-slide")
# A run must end within 180 s once the driver is built; the first build in
# a fresh checkout is allowed to take longer and is not counted.
DRIVER_TIMEOUT_S = 165.0


def log(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def build(build_root):
    """Configures (once) and builds the driver; returns its path or None."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_driver",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    driver = build(build_root)
    if driver is None or not os.path.exists(driver):
        log("build failed")
        return 1

    runs = os.path.join(build_root, "perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-%d-%d" % (args.workload, args.seed,
                                            args.trace))
    out, spans_path = stem + ".json", stem + ".spans.tsv"
    for path in (out, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out, "--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    if proc.returncode != 0:
        log("driver exited with %d" % proc.returncode)
        return 1

    with open(out) as f:
        report = json.load(f)
    for note in report["notes"]:
        log(note)
    if args.trace:
        with open(spans_path) as f:
            spans = metrics.parse_spans(f.read())
        result = metrics.per_layer(report, spans)
    else:
        result = metrics.end_to_end(report)
    attempted, failed = metrics.check_counts(report)
    print("host: memloop_s=%.4f steal_frac=%.4f scale=%g rounds=%d ops=%d"
          % (report["values"]["host.memloop_s"],
             report["values"]["host.steal_frac"], report["scale"],
             len(report["rounds"]), len(report["ops"])))
    line = metrics.emit_result(failed == 0, attempted, failed, result)
    metrics.parse_result(line)
    print(line, flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
