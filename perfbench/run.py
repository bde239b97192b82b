#!/usr/bin/env python3
"""Client-side vadalogd benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds an optimized tree of the repository
(vadalogd plus perfbench/driver.cc) under $CARGO_TARGET_DIR or
.bench_build/, runs the driver, and prints a report followed, as the
last line, by one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. Workloads, seeds and predictions: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("owl_chase", "owl_linear_warm", "owl_linear_evict",
             "graph_ingest")
BUILD_TYPE = "Release"
DRIVER_TIMEOUT_S = 165


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tree = build_dir / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    log_path = tree / "build.log"
    with open(log_path, "w") as log:
        for command in (
                ["cmake", "-S", str(root / "perfbench"), "-B", str(tree),
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                ["cmake", "--build", str(tree), "--target", "vadalogd",
                 "perfbench_driver", "-j", str(len(os.sched_getaffinity(0)))]):
            if subprocess.run(command, stdout=log, stderr=log).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    cache = (tree / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=%s\n" % BUILD_TYPE not in cache:
        fail("the build tree is not a %s build" % BUILD_TYPE)
    return tree / "vadalog" / "tools" / "vadalogd", tree / "perfbench_driver"


def source_id(root):
    """The commit when there is a git checkout, else a digest of the
    sources the benchmark builds."""
    if (root / ".git").exists():
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += [p for p in (root / top).rglob("*") if p.is_file()
                  and p.suffix in (".cc", ".cpp", ".h", ".in", ".txt")]
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_driver(daemon, driver, args):
    command = [str(driver), "--daemon", str(daemon), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
    # Own process group, so a timeout also stops the daemon it spawned.
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
        process.kill()
        process.communicate()
    finally:
        # Whatever the driver left running (a daemon, if it crashed).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if out is None:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if process.returncode != 0:
        fail("driver exited with %d" % process.returncode)
    return json.loads(out.decode().strip().splitlines()[-1])


def pooled(phases, key):
    return [x for p in phases for x in p[key]]


def rate(phases):
    ops = sum(len(p["queries"]) + len(p["add_facts"]) for p in phases)
    return ops / sum(p["elapsed_s"] for p in phases)


def end_to_end(raw):
    """Pools the phases of an untraced run, each on its own daemon."""
    phases = raw["phases"]
    rtt = [row[0] for row in pooled(phases, "queries")]
    return {
        "setup_s": (stats.median(raw["setup_s"]), "s"),
        "query_p50_ms": (stats.percentile(rtt, 50) / 1000.0, "ms"),
        "query_p95_ms": (stats.percentile(rtt, 95) / 1000.0, "ms"),
        "ops_per_s": (rate(phases), "1/s"),
        "peak_rss_mib": (stats.median(
            [p["peak_rss_kib"] for p in phases]) / 1024.0, "MiB"),
    }


def write_latency(writes):
    """ADD_FACTS round trips; 0 on the read-only workloads."""
    if not writes:
        return {"add_facts_p50_ms": (0.0, "ms"),
                "add_facts_p95_ms": (0.0, "ms")}
    return {
        "add_facts_p50_ms": (stats.percentile(writes, 50) / 1000.0, "ms"),
        "add_facts_p95_ms": (stats.percentile(writes, 95) / 1000.0, "ms"),
    }


def unit_of(layer_metric):
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mib", "MiB")):
        if layer_metric.endswith(suffix):
            return unit
    return "count"


def per_layer(raw):
    """Untraced and traced phases alternate; spans pool over the traced
    ones and their METRICS deltas add up."""
    untraced, traced = raw["phases"][0::2], raw["phases"][1::2]
    rows = pooled(traced, "queries")
    rtt, queue, parse, _, search, encode, total = zip(*rows)
    # In-session time outside the parse/search/encode spans: the cache
    # lock wait span plus the shared data-lock acquisition, which the
    # server does not time on its own.
    lock_wait = [t - p - s - e
                 for t, p, s, e in zip(total, parse, search, encode)]
    ops = len(rows) + len(pooled(traced, "add_facts"))

    def delta(name, **labels):
        return sum(stats.metric_delta(p["metrics_before"], p["metrics_after"],
                                      name, **labels) for p in traced)

    def last_generation(name):
        # Probe gauges restart at 0 with every cache generation: over one
        # generation take the phase's delta, else the last generation's.
        count = 0
        for p in traced:
            before, after = p["metrics_before"], p["metrics_after"]
            if stats.metric_delta(before, after,
                                  "vadalog_session_cache_evictions_total",
                                  session="bench"):
                count += stats.metric_value(after, name, session="bench")
            else:
                count += stats.metric_delta(before, after, name,
                                            session="bench")
        return count

    queries = delta("vadalog_session_queries_total", session="bench")

    def per_query(name, **labels):
        return (stats.ratio(delta(name, **labels), queries), "count")

    linear = {"session": "bench", "engine": "linear"}
    metrics = {
        "server.queue_wait_us.p50": (stats.percentile(queue, 50), "us"),
        "server.queue_wait_us.p95": (stats.percentile(queue, 95), "us"),
        "server.wire_us.p50": (
            stats.percentile(stats.wire_us(rtt, total), 50), "us"),
        "server.loop_iterations_per_op": (stats.ratio(
            delta("vadalogd_loop_iterations_total"), ops), "count"),
        "server.wakeups_per_op": (stats.ratio(
            delta("vadalogd_wakeups_total"), ops), "count"),
        "session.parse_us.p50": (stats.percentile(parse, 50), "us"),
        "session.lock_wait_us.p95": (stats.percentile(lock_wait, 95), "us"),
        "session.queries_waited_frac": (stats.ratio(delta(
            "vadalog_session_queries_waited_total", session="bench"),
            queries), "ratio"),
        "session.search_us.p50": (stats.percentile(search, 50), "us"),
        "session.encode_us.p50": (stats.percentile(encode, 50), "us"),
        "session.total_us.p50": (stats.percentile(total, 50), "us"),
        "session.cache_evictions_per_query": per_query(
            "vadalog_session_cache_evictions_total", session="bench"),
        "session.cache_probe_hit_ratio": (stats.ratio(
            last_generation("vadalog_session_cache_probe_hits"),
            last_generation("vadalog_session_cache_lookups")), "ratio"),
        "session.cache_mib_end": (stats.median([stats.metric_value(
            p["metrics_after"], "vadalog_session_cache_bytes",
            session="bench") for p in traced]) / 2.0**20, "MiB"),
        "engine.searches_per_query": per_query("vadalog_search_total",
                                               **linear),
        "engine.states_expanded_per_query": per_query(
            "vadalog_search_states_expanded_total", **linear),
        "engine.cache_hits_per_query": per_query(
            "vadalog_search_cache_hits_total", **linear),
        "engine.subsumed_per_query": per_query(
            "vadalog_search_subsumed_total", **linear),
        "trace.overhead_frac": (1.0 - rate(traced) / rate(untraced), "ratio"),
    }
    metrics.update(write_latency(pooled(untraced, "add_facts")))
    for name, value in raw["layers"].items():
        if isinstance(value, list):
            value = stats.median(value)
        metrics[name] = (value, unit_of(name))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/vadalogd.cpp"):
        if not (root / needed).is_file():
            fail("%s is missing: run from a full checkout" % needed)
    started = time.monotonic()
    daemon, driver = build(root)
    build_s = time.monotonic() - started
    raw = run_driver(daemon, driver, args)

    try:
        metrics = per_layer(raw) if args.trace else end_to_end(raw)
    except stats.NotEnoughSamples as error:
        fail("too few samples: %s" % error)
    attempted = int(raw["attempted"])
    failed = int(sum(raw["failures"].values()))

    print("perfbench %s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  build: %s, %s, nproc=%d, %s (build step %.1f s)" %
          (raw["build_type"], raw["compiler"], len(os.sched_getaffinity(0)),
           source_id(root), build_s))
    phases = raw["phases"][1::2] if args.trace else raw["phases"]
    writes = pooled(phases, "add_facts")
    print("  samples: %d QUERY, %d ADD_FACTS over %d daemon(s); "
          "error_rate %d/%d = %.4f %s" %
          (sum(len(p["queries"]) for p in phases), len(writes), len(phases),
           failed, attempted, stats.ratio(failed, attempted),
           raw["failures"] or ""))
    if not args.trace:
        for name, (value, unit) in sorted(write_latency(writes).items()):
            if value:
                print("  %-36s %14.4f %s" % (name, value, unit))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.4f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
