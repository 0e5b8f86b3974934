#!/usr/bin/env python3
"""End-to-end benchmark of the pgl layout system.

Run from the repository root:

    python3 perfbench/run.py --workload genome_parts_ml --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-check

The first call builds the `pglbench` harness (perfbench/pglbench.cpp) and
the `pgl` library from source into $CARGO_TARGET_DIR (default
.bench_build). Each run generates its inputs from --seed in .bench_work/,
measures one workload for --seconds, checks the outputs, and prints two
JSON lines: a detailed record (host, input, every metric with its sample
count, drift and failures), then the result line
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md
for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK = os.path.join(REPO, ".bench_work")
BINARY = os.path.join(BUILD, "pglbench")
NPROC = len(os.sched_getaffinity(0))
RUN_TIMEOUT_S = 170

# --- workloads ---------------------------------------------------------------
# Sizes are (full, tiny); tiny is the self-check's size.

GENOME = {"components": (8, 3), "scale": (0.00005, 0.00001), "sub": (4, 2)}
SERVE = {"backbone": (300, 40), "paths": (8, 4), "jobs": (120, 24), "iters": (30, 4)}


def size(pair, tiny):
    return pair[1] if tiny else pair[0]


def gen_args(workload, tiny):
    d = WORK
    if workload == "genome_parts_ml":
        return ["gen-genome", "--out", f"{d}/genome.gfa"] + [
            a for k, v in GENOME.items() for a in (f"--{k}", size(v, tiny))]
    return ["gen-serve", "--small", f"{d}/small.gfa", "--large", f"{d}/large.gfa",
            "--backbone", size(SERVE["backbone"], tiny),
            "--paths", size(SERVE["paths"], tiny)]


def run_args(workload, seed, seconds, trace, tiny, first=True):
    d = WORK
    common = ["--dir", d, "--seconds", seconds, "--trace", trace]
    if workload == "genome_parts_ml":
        return ["run-genome", "--graph", f"{d}/genome.gfa", "--seed", seed,
                "--min-reps", 2 if trace else 1, "--quality", int(first)] + common
    return ["run-serve", "--small", f"{d}/small.gfa", "--large", f"{d}/large.gfa",
            "--seed", seed, "--jobs", size(SERVE["jobs"], tiny),
            "--iters", size(SERVE["iters"], tiny)] + common


WORKLOADS = ("genome_parts_ml", "serve_mixed")
GENOME_ONLY = ("genome_parts_ml",)
SERVE_ONLY = ("serve_mixed",)
ALL = WORKLOADS

# --- metrics -------------------------------------------------------------------


def incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by Lentz's continued
    fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - incomplete_beta(b, a, 1.0 - x)
    front = math.exp(math.log(x) * a + math.log1p(-x) * b - math.lgamma(a)
                     - math.lgamma(b) + math.lgamma(a + b)) / a
    tiny = 1e-30
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            return front * (f - 1.0)
    raise ArithmeticError("incomplete beta did not converge")


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics. Unlike the sample quantile it moves smoothly when the
    samples fall into two modes."""
    v = sorted(values)
    n = len(v)
    if n == 1:
        return v[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [incomplete_beta(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v[i] for i in range(n))


def median_of(key):
    return quantile_of(key, 0.5)


def quantile_of(key, q):
    def f(rec):
        v = rec["samples"].get(key, [])
        return (quantile(v, q), len(v)) if v else (0.0, 0)
    return f


def throughput(rec):
    done = rec["samples"].get("jobs_done", [])
    wall = rec["samples"].get("jobs_wall_s", [])
    return (sum(done) / sum(wall), len(wall)) if wall else (0.0, 0)


def count_of(key):
    def f(rec):
        v = rec["counts"].get(key, [])
        return (v[0], len(v)) if v else (0.0, 0)
    return f


def peak_rss(rec):
    return rec["peak_rss_mb"], 1


# name -> (unit, reducer, workloads on which it must have samples)
END_TO_END = {
    "layout_s": ("s", median_of("layout_s"), ALL),
    "stress": ("1", median_of("stress"), ALL),
    "setup_s": ("s", median_of("setup_s"), ALL),
    "peak_rss_mb": ("MiB", peak_rss, ALL),
    "jobs_per_s": ("1/s", throughput, ALL),
    "job_latency_p50_s": ("s", quantile_of("job_latency_s", 0.5), ALL),
    "job_latency_p90_s": ("s", quantile_of("job_latency_s", 0.9), ALL),
}

SPAN_LAYERS = ("graph", "io", "core", "metrics", "partition", "multilevel", "serve",
               "check")

PER_LAYER = {
    "core.run_s": ("s", median_of("core.run_s"), ALL),
    "core.init_s": ("s", median_of("core.init_s"), ALL),
    "core.updates_per_s": ("1/s", median_of("core.updates_per_s"), ALL),
    "core.iteration_s_p50": ("s", median_of("core.iteration_s_p50"), ALL),
    "core.pool_barrier_wait_s": ("s", median_of("core.pool_barrier_wait_s"), ALL),
    "core.pool_dispatch_wait_s": ("s", median_of("core.pool_dispatch_wait_s"), ALL),
    "core.pool_dispatches": ("count", median_of("core.pool_dispatches"), ALL),
    "core.updates": ("count", count_of("core.updates"), ALL),
    "core.skip_ratio": ("ratio", median_of("core.skip_ratio"), ALL),
    "core.bytes_moved_computed": ("B", count_of("core.bytes_moved_computed"), ALL),
    "metrics.stress_s": ("s", median_of("metrics.stress_s"), ALL),
    "metrics.stress_terms_per_s": ("1/s", median_of("metrics.stress_terms_per_s"), ALL),
    "graph.ingest_s": ("s", median_of("graph.ingest_s"), GENOME_ONLY),
    "graph.ingest_mb_per_s": ("MiB/s", median_of("graph.ingest_mb_per_s"),
                              GENOME_ONLY),
    "io.lay_write_s": ("s", median_of("io.lay_write_s"), ALL),
    "partition.decompose_s": ("s", median_of("partition.decompose_s"),
                              GENOME_ONLY),
    "partition.makespan_s": ("s", median_of("partition.makespan_s"),
                             GENOME_ONLY),
    "partition.component_s_max": ("s", median_of("partition.component_s_max"),
                                  GENOME_ONLY),
    "partition.imbalance": ("ratio", median_of("partition.imbalance"),
                            GENOME_ONLY),
    "partition.stitch_s": ("s", median_of("partition.stitch_s"), GENOME_ONLY),
    "partition.components": ("count", count_of("partition.components"),
                             GENOME_ONLY),
    "multilevel.coarsen_s": ("s", median_of("multilevel.coarsen_s"),
                             GENOME_ONLY),
    "multilevel.coarse_layout_s": ("s", median_of("multilevel.coarse_layout_s"),
                                   GENOME_ONLY),
    "multilevel.interpolate_s": ("s", median_of("multilevel.interpolate_s"),
                                 GENOME_ONLY),
    "multilevel.refine_s": ("s", median_of("multilevel.refine_s"), GENOME_ONLY),
    "multilevel.node_ratio": ("ratio", count_of("multilevel.node_ratio"),
                              GENOME_ONLY),
    "serve.daemon_start_s": ("s", median_of("serve.daemon_start_s"), SERVE_ONLY),
    "serve.queue_wait_s_p50": ("s", quantile_of("serve.queue_wait_s", 0.5),
                               SERVE_ONLY),
    "serve.queue_wait_s_p90": ("s", quantile_of("serve.queue_wait_s", 0.9),
                               SERVE_ONLY),
    "serve.run_s_p50": ("s", quantile_of("serve.run_s", 0.5), SERVE_ONLY),
    "serve.run_s_p90": ("s", quantile_of("serve.run_s", 0.9), SERVE_ONLY),
    "serve.wire_s_p50": ("s", quantile_of("serve.wire_s", 0.5), SERVE_ONLY),
    "serve.cache_hit_ratio": ("ratio", count_of("serve.cache_hit_ratio"),
                              SERVE_ONLY),
    "serve.dedup_joins": ("count", median_of("serve.dedup_joins"), SERVE_ONLY),
    # Filled from the span tree by trace_report().
    "trace.overhead_ratio": ("ratio", None, ALL),
    "trace.wall_s": ("s", None, ALL),
    "trace.unattributed_share": ("ratio", None, ALL),
}
for _layer, _where in (("graph", ALL), ("io", ALL), ("core", ALL), ("metrics", ALL),
                       ("partition", GENOME_ONLY), ("multilevel", GENOME_ONLY),
                       ("serve", SERVE_ONLY), ("check", ALL)):
    PER_LAYER[f"{_layer}.self_share"] = ("ratio", None, _where)

# Counts that must repeat exactly across the repetitions of one seed.
DRIFT_CHECKED = ("digest", "core.updates", "core.bytes_moved_computed",
                 "partition.components", "multilevel.node_ratio",
                 "serve.cache_hit_ratio")

# --- host --------------------------------------------------------------------------


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def host_record():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = read(f"{base}/{idx}/level")
        kind = read(f"{base}/{idx}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = read(f"{base}/{idx}/size")
    nodes_dir = "/sys/devices/system/node"
    numa = sorted(n for n in os.listdir(nodes_dir)
                  if n.startswith("node")) if os.path.isdir(nodes_dir) else []
    return {"nproc": NPROC, "cpuset": sorted(os.sched_getaffinity(0)),
            "numa_nodes": len(numa) or 1, "caches": caches}


# --- build and run -------------------------------------------------------------------


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")):
        fail("no repository sources next to perfbench/; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pglbench", "-j", str(NPROC)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def harness(args, timeout):
    cmd = [BINARY] + [str(a) for a in args]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if p.returncode != 0:
        fail(f"exit code {p.returncode}: {' '.join(cmd)}")
    return p.stdout


def cpu_times():
    """Aggregate (busy + idle, steal) jiffies from /proc/stat, or None."""
    fields = (read("/proc/stat") or "").split("\n")[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:]]
    return sum(values[:8]), values[7]


def merge(parts):
    """Pools the records of the harness processes of one run."""
    rec = {"samples": {}, "counts": {}, "units": [], "spans": [], "nested": [],
           "input": parts[0]["input"],
           "peak_rss_mb": max(p["peak_rss_mb"] for p in parts)}
    for p in parts:
        for kind in ("samples", "counts"):
            for k, v in p[kind].items():
                rec[kind].setdefault(k, []).extend(v)
        for kind in ("units", "spans", "nested"):
            rec[kind].extend(p[kind])
    return rec


def run_workload(workload, seed, seconds, trace, tiny):
    """Generates the inputs and measures them. An untraced genome_parts_ml
    run starts a fresh harness process for every run_layout call until
    --seconds have passed, so the samples are independent of one process's
    allocator and scheduler state."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        harness(gen_args(workload, tiny), deadline - time.monotonic())
        before = cpu_times()
        if trace or workload == "serve_mixed":
            parts = [json.loads(harness(run_args(workload, seed, seconds, trace, tiny),
                                        deadline - time.monotonic()))]
        else:
            parts = []
            start = time.monotonic()
            while not parts or time.monotonic() - start < seconds:
                out = harness(run_args(workload, seed, 0, 0, tiny, first=not parts),
                              deadline - time.monotonic())
                parts.append(json.loads(out))
        after = cpu_times()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    rec = merge(parts)
    # Share of CPU time the hypervisor stole while the harness ran: the
    # record's explanation for a run that is slow with no code change.
    if before and after and after[0] > before[0]:
        rec["steal_share"] = (after[1] - before[1]) / (after[0] - before[0])
    rec["processes"] = len(parts)
    return rec


# --- traces ------------------------------------------------------------------------


def union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def trace_report(rec):
    """Self time per layer from the harness's span tree, and the tree's
    structural errors (one run id, one root, children inside parents).

    A span's self time is its duration minus the part its children cover.
    Spans of one layer under one parent that run at the same time (the
    serve clients' requests) count once, as the union of their intervals.
    Reference spans (the untraced repetitions behind trace.overhead_ratio)
    and everything under them are left out of the shares and of the wall
    time. Nested layer time the harness read from the library's histograms
    moves from the layer it ran inside to its own layer. The shares and
    trace.unattributed_share (the harness's own glue) sum to 1."""
    spans = sorted(rec["spans"], key=lambda s: s["id"])
    errors = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] == 0]
    if len(roots) != 1:
        errors.append(f"{len(roots)} root spans, expected 1")
    if len({s["run"] for s in spans}) != 1:
        errors.append("spans carry more than one run id")
    children, left_out, reference_s = {}, set(), 0.0
    for s in spans:
        if s["parent"] == 0:
            continue
        p = by_id.get(s["parent"])
        if p is None:
            errors.append(f"span {s['name']} has no parent {s['parent']}")
            continue
        if s["start_s"] < p["start_s"] - 1e-6 or s["end_s"] > p["end_s"] + 1e-6:
            errors.append(f"span {s['name']} escapes its parent {p['name']}")
        children.setdefault(s["parent"], []).append(s)
        # A parent's id is smaller than its children's, so it is marked first.
        if s["parent"] in left_out:
            left_out.add(s["id"])
        elif s["layer"] == "reference":
            left_out.add(s["id"])
            reference_s += s["end_s"] - s["start_s"]

    def clipped(group, parent):
        return [(max(c["start_s"], parent["start_s"]), min(c["end_s"], parent["end_s"]))
                for c in group]

    def covered(s):
        return union_length(clipped(children.get(s["id"], []), s))

    self_s = {}
    groups = {}
    for s in spans:
        if s["parent"] == 0:
            self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + (
                s["end_s"] - s["start_s"] - covered(s))
        elif s["id"] not in left_out and s["parent"] in by_id:
            groups.setdefault((s["parent"], s["layer"]), []).append(s)
    for (parent, layer), group in groups.items():
        self_s[layer] = self_s.get(layer, 0.0) + union_length(
            clipped(group, by_id[parent])) - sum(covered(s) for s in group)
    nested_n = {}
    for n in rec["nested"]:
        self_s[n["layer"]] = self_s.get(n["layer"], 0.0) + n["seconds"]
        self_s[n["within"]] = self_s.get(n["within"], 0.0) - n["seconds"]
        nested_n[n["layer"]] = nested_n.get(n["layer"], 0) + 1

    wall = roots[0]["end_s"] - roots[0]["start_s"] - reference_s if roots else 0.0
    report = {"trace.wall_s": (wall, len(spans) - len(left_out))}
    for layer in SPAN_LAYERS:
        n = sum(1 for s in spans if s["layer"] == layer and s["id"] not in left_out)
        report[f"{layer}.self_share"] = (self_s.get(layer, 0.0) / wall if wall else 0.0,
                                         n + nested_n.get(layer, 0))
    report["trace.unattributed_share"] = (
        self_s.get("bench", 0.0) / wall if wall else 0.0,
        sum(1 for s in spans if s["layer"] == "bench" and s["id"] not in left_out))
    unknown = set(self_s) - set(SPAN_LAYERS) - {"bench"}
    if unknown:
        errors.append(f"spans of unknown layers {sorted(unknown)}")
    if wall > 0:
        total = sum(self_s.values()) / wall
        if abs(total - 1.0) > 0.01:
            errors.append(f"self times account for {total:.4f} of the wall time, not 1")
        negative = sorted(k for k, v in self_s.items() if v < -1e-3 * wall)
        if negative:
            errors.append(f"negative self time of {negative}")
    traced = rec["samples"].get("rep_traced_s", [])
    untraced = rec["samples"].get("rep_untraced_s", [])
    report["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced)
        if traced and untraced else 0.0, min(len(traced), len(untraced)))
    return report, errors


# --- one run ---------------------------------------------------------------------


def measure(workload, seed, seconds, trace, tiny=False):
    rec = run_workload(workload, seed, seconds, trace, tiny)
    table = PER_LAYER if trace else END_TO_END
    failures = [f"{u['what']}: {e}" for u in rec["units"] for e in u["errors"]]
    attempted = len(rec["units"])
    failed = sum(1 for u in rec["units"] if u["errors"])

    drift = {}
    for key in DRIFT_CHECKED:
        values = rec["counts"].get(key)
        if values:
            attempted += 1
            if len(set(values)) > 1:
                failed += 1
                drift[key] = values
                failures.append(f"{key} drifts across repetitions: {values}")

    derived = {}
    if trace:
        derived, tree_errors = trace_report(rec)
        attempted += 1
        if tree_errors:
            failed += 1
            failures.extend(tree_errors)

    detail = {}
    for name, (unit, reduce, _) in table.items():
        value, n = derived[name] if reduce is None else reduce(rec)
        detail[name] = {"value": value, "unit": unit, "samples": n}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "host": dict(host_record(), steal_share=rec.get("steal_share")),
              "processes": rec["processes"],
              "input": rec["input"], "metrics": detail,
              "drift": drift, "failures": failures,
              "failed_ratio": failed / attempted if attempted else 1.0}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in detail.items()}}
    return record, result, rec


# --- self-check ----------------------------------------------------------------------


def self_check():
    """Runs tiny inputs once per workload and trace mode, and asserts that
    every metric named in BENCHMARK.json is emitted with its unit, that the
    metrics mapped to a workload have samples there, that outputs pass their
    checks, and that a traced run's spans nest under one run id."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        if {k: v[0] for k, v in table.items()} != declared[trace]:
            problems.append(f"trace {trace}: run.py metrics differ from BENCHMARK.json")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload list differs from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, result, rec = measure(workload, 1, 1, trace, tiny=True)
            tag = f"{workload} --trace {trace}"
            if not result["correct"]:
                problems.append(f"{tag}: failed checks {record['failures']}")
            table = PER_LAYER if trace else END_TO_END
            for name, (unit, _, where) in table.items():
                m = record["metrics"].get(name)
                if m is None or result["metrics"][name]["unit"] != unit:
                    problems.append(f"{tag}: {name} missing or without unit {unit}")
                elif workload in where and m["samples"] < 1:
                    problems.append(f"{tag}: {name} has no samples")
            if trace:
                _, tree_errors = trace_report(rec)
                problems.extend(f"{tag}: {e}" for e in tree_errors)
            print(f"self-check {tag}: {len(rec['spans'])} spans, "
                  f"{result['attempted']} attempted, {result['failed']} failed",
                  file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_check:
        return self_check()
    record, result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
