"""Benchmark of lyfam, end to end and per layer.

    python3 perfbench/run.py --workload cohomology --seed 0
    python3 perfbench/run.py --workload deform --trace 1
    python3 perfbench/run.py              # every workload, one process each
    python3 perfbench/run.py --smoke      # tiny inputs, a few seconds

Run it from the root of a source checkout: it imports lyfam from `src/`.
With `--trace 0` a run alternates set-ups and whole passes until `--seconds`
(by default `run_seconds` of BENCHMARK.json) would be exceeded; `setup_s` and
`wall_s` are medians of times scaled to a fixed host speed (see
`hostspeed.py`), and the raw medians are printed beside them.  With
`--trace 1` it makes one untraced pass and one pass with span recorders on
the library's public functions, and reports per-layer metrics.  The last
line of the output is a JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from hostspeed import Clock, host_time, scale
from spans import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-ups are repeated, before each pass, until they take this long
SETUP_SLOT_S = 0.5
MODULES = ["linalg", "semigroup", "ly", "rbfamily", "nsfamily", "omega",
           "cohomology", "serialize", "cli"]


def import_lyfam():
    """A fresh import of every lyfam module, as a namespace of modules."""
    for name in [m for m in sys.modules
                 if m == "lyfam" or m.startswith("lyfam.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("lyfam." + name)
            for name in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError("lyfam was not imported from %s" % SRC)
    return argparse.Namespace(**mods)


def measure(set_up, seconds):
    """Set-up slots and whole passes, in turns, until another turn would end
    after `seconds`.  The host's speed drifts over seconds, so set-ups are
    spread over the run, between the passes.  Garbage of earlier work is
    collected before each timed step.  Returns the set-ups as (scaled, raw)
    seconds and the passes as (clock, result); set-ups are scaled by the
    kernel times before and after their slot (see hostspeed)."""
    setups, passes = [], []
    start = perf_counter()
    before = host_time()
    while True:
        slot, raw = perf_counter(), []
        while perf_counter() - slot < SETUP_SLOT_S:  # at least once
            gc.collect()
            t0 = perf_counter()
            workload = set_up()
            raw.append(perf_counter() - t0)
        gc.collect()
        clock = Clock()
        factor = scale(before, clock.first)
        setups += [(factor * t, t) for t in raw]
        result = workload.run_pass(clock)
        clock.close()
        passes.append((clock, result))
        before = clock.last
        turn = (perf_counter() - start) / len(passes)
        if perf_counter() - start + turn > seconds:
            return setups, passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(name, workdir, args):
    def set_up():
        return WORKLOADS[name](import_lyfam(), workdir, args.seed, args.smoke)

    set_up()  # warm-up: first imports and file creation stay out of setup_s
    setups, passes = measure(set_up, args.seconds)
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    npass = "%d pass(es)" % len(passes)
    nsetup = "%d set-ups" % len(setups)
    lines = [
        ("setup_s", statistics.median(s for s, _ in setups), "s", nsetup),
        ("wall_s", statistics.median(c.scaled for c, _ in passes), "s",
         npass),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "1 process"),
        ("error_rate", failed / attempted, "ratio",
         "%d operations" % attempted),
        ("setup_raw_s", statistics.median(t for _, t in setups), "s", nsetup),
        ("wall_raw_s", statistics.median(c.raw for c, _ in passes), "s",
         npass),
        ("host_scale", statistics.median(c.scaled / c.raw for c, _ in passes),
         "ratio", npass),
    ]
    if name == "cohomology":
        for key in ("h1_s", "h23_s"):
            lines.append((key, statistics.median(c.sums[key]
                                                 for c, _ in passes),
                          "s", npass))
    if name == "deform":
        lat = [1000.0 * x for c, _ in passes for x in c.samples["query"]]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        for key, value in (("query_p50_ms", deciles[4]),
                           ("query_p90_ms", deciles[8])):
            lines.append((key, value, "ms", "%d queries" % len(lat)))
    for key, value, unit, n in lines:
        print("  %-16s %14.6f %-5s  n=%s" % (key, value, unit, n))
    if name == "cohomology":
        print("  dims (H^1, H^(2,3)): %s" % json.dumps(passes[0][1]["dims"]))
    gated = {"setup_s", "wall_s", "peak_rss_mb"}
    return attempted, failed, {key: metric(value, unit)
                               for key, value, unit, _ in lines
                               if key in gated}


def run_traced(name, workdir, args):
    tracer = Tracer()
    lib = import_lyfam()
    tracer.install()
    workload = WORKLOADS[name](lib, workdir, args.seed, args.smoke)
    tracer.uninstall()
    gc.collect()
    plain_clock = Clock()
    plain = workload.run_pass(plain_clock)
    plain_clock.close()
    gc.collect()
    tracer.install()
    traced_clock = Clock()
    traced = workload.run_pass(traced_clock)
    traced_clock.close()
    tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = metric(
        traced_clock.scaled / plain_clock.scaled - 1.0, "ratio")
    for key, m in metrics.items():
        print("  %-34s %16.6f %s" % (key, m["value"], m["unit"]))
    path = os.path.join(OUT, "trace-%s-seed%d%s.jsonl"
                        % (name, args.seed, "-smoke" if args.smoke else ""))
    tracer.write_jsonl(path)
    print("  %d spans written to %s" % (len(tracer.spans),
                                          os.path.relpath(path, ROOT)))
    return (plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], metrics)


def run_one(name, args):
    print("perfbench workload=%s seed=%d seconds=%d trace=%d smoke=%d"
          % (name, args.seed, args.seconds, args.trace, args.smoke))
    workdir = os.path.join(OUT, "inputs-%s-%d" % (name, os.getpid()))
    os.makedirs(workdir)
    try:
        run = run_traced if args.trace else run_untraced
        attempted, failed, metrics = run(name, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in ("cohomology", "laws", "deform"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(cmd, cwd=ROOT).returncode
        status = status or code
    return status


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=run_seconds())
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs that run every path in a few seconds")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lyfam", "__init__.py")):
        print("perfbench: no lyfam sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_one(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
