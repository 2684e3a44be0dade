#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a checkout. The first call configures and builds the
benchmark binary (the repository's CMake project plus perfbench/src) under
.perfbench/build; every call then generates the workload's inputs for the
seed under .perfbench/inputs, runs the workload, and prints its metrics. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer ones,
in manifest order; a per-layer metric the workload does not exercise reads
0). The exit code is 1 when any check of the run failed.

--write-benchmark-json writes BENCHMARK.json at the checkout root from the
manifest below, which is the single definition of workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".perfbench", "build")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = [
    ("paper-mix",
     "the paper's experiment shape: six planted dataset stand-ins, BU/TD/GD "
     "cold then warm per (d, s), so lattice search and the d-CC kernel "
     "dominate"),
    ("rmat-skewed",
     "mmap'd MLG1 R-MAT graph with heavy-tailed degrees: cost moves to "
     "ingest, preprocessing and kernel peeling; holds the known TD RefineC "
     "fault"),
    ("churn-subscribe",
     "writes beside reads: open-loop update batches, standing BU/TD "
     "subscriptions and a polling client over a GraphStore tracking d = 4"),
    ("service-small",
     "four closed-loop clients on warm 1-20 ms queries through one engine, "
     "so admission, pinning, caches and lane budgeting are a visible share"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_query_p50_ms", "ms", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("cover_vertices", "count", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("format.load_ms", "ms", "lower"),
    ("format.mapped_mb", "MB", "higher"),
    ("store.init_ms", "ms", "lower"),
    ("store.apply_p50_ms", "ms", "lower"),
    ("store.apply_p90_ms", "ms", "lower"),
    ("store.core_changes", "count", "lower"),
    ("store.incremental_layers", "count", "higher"),
    ("store.full_recomputes", "count", "lower"),
    ("engine.snapshot_pin_ms", "ms", "lower"),
    ("engine.admission_wait_p50_ms", "ms", "lower"),
    ("engine.admission_wait_p90_ms", "ms", "lower"),
    ("ledger.e2e_ms", "ms", "lower"),
    ("ledger.layer_sum_ms", "ms", "lower"),
    ("query.unaccounted_ms", "ms", "lower"),
    ("query.p99_ms", "ms", "lower"),
    ("engine.preprocess_hits", "count", "higher"),
    ("engine.preprocess_misses", "count", "lower"),
    ("engine.base_core_hits", "count", "higher"),
    ("engine.seed_hits", "count", "higher"),
    ("engine.index_hits", "count", "higher"),
    ("engine.base_core_layers_reused", "count", "higher"),
    ("engine.base_core_store_served", "count", "higher"),
    ("subs.revisions_emitted", "count", "lower"),
    ("subs.unchanged_skipped", "count", "higher"),
    ("subs.coalesced", "count", "lower"),
    ("subs.reeval_ms", "ms", "lower"),
    ("subs.delivery_ms", "ms", "lower"),
    ("subs.revision_lag_p50_ms", "ms", "lower"),
    ("preprocess.ms", "ms", "lower"),
    ("preprocess.active_share", "ratio", "lower"),
    ("index.build_ms", "ms", "lower"),
    ("seeds.ms", "ms", "lower"),
    ("search.bu_ms", "ms", "lower"),
    ("search.td_ms", "ms", "lower"),
    ("search.gd_ms", "ms", "lower"),
    ("search.nodes_visited", "count", "lower"),
    ("search.candidates_generated", "count", "lower"),
    ("search.pruned_eq1", "count", "higher"),
    ("search.pruned_order", "count", "higher"),
    ("search.pruned_layer", "count", "higher"),
    ("search.pruned_potential", "count", "higher"),
    ("search.updates_accepted", "count", "lower"),
    ("search.speculative_evals", "count", "lower"),
    ("search.speculative_useful_ratio", "ratio", "higher"),
    ("cover.ms", "ms", "lower"),
    ("kernel.dcc_calls", "count", "lower"),
    ("kernel.dcc_edges_per_s", "edges/s", "higher"),
    ("kernel.bz_edges_per_s", "edges/s", "higher"),
    ("kernel.bz_ratio", "ratio", "higher"),
    ("kernel.dcore_ms", "ms", "lower"),
]

RUN_SECONDS = 15


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        done = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], 300)
        if done.returncode != 0:
            fail("configure failed:\n" + done.stdout[-4000:])
    done = run(["cmake", "--build", BUILD_DIR, "-j", jobs], 850)
    if done.returncode != 0:
        fail("build failed:\n" + done.stdout[-4000:])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return
    if args.workload not in [n for n, _ in WORKLOADS]:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    gen = run([BINARY, "gen", "--workload", args.workload,
               "--seed", str(args.seed), "--root", ROOT], 170)
    if gen.returncode != 0:
        fail("input generation failed:\n" + gen.stdout[-4000:])
    done = run([BINARY, "run", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--root", ROOT], 170)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("run failed (exit %d):\n%s" % (done.returncode,
                                            done.stdout[-4000:]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line:\n" + done.stdout[-4000:])
    result["metrics"] = in_manifest_order(result["metrics"], args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if done.returncode != 0 or result["correct"] is not True:
        fail("a check failed (see the error line above)")


def in_manifest_order(measured, trace):
    """The run's metrics in manifest order. Every end-to-end metric must be
    measured; per-layer metrics of layers the workload does not exercise
    read 0."""
    defs = PER_LAYER if trace else END_TO_END
    units = {n: u for n, u, *_ in defs}
    unknown = [n for n in measured if n not in units]
    if unknown:
        fail("metrics not in the manifest: %s" % unknown)
    for name, metric in measured.items():
        if metric["unit"] != units[name]:
            fail("%s is in %s, the manifest says %s"
                 % (name, metric["unit"], units[name]))
    if not trace and len(measured) != len(defs):
        fail("end-to-end metrics missing: %s"
             % [n for n in units if n not in measured])
    return {n: measured.get(n, {"value": 0, "unit": u})
            for n, u, *_ in defs}


if __name__ == "__main__":
    main()
