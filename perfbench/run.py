#!/usr/bin/env python3
"""modequiv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root; the package is imported from ./src, its
bytecode compiled once into .bench_work/pycache before anything is timed.
One run sets the workload up at least SETUP_PASSES times and until set-up has
taken SETUP_SECONDS (fresh import of modequiv, seeded inputs, cache filling)
and reports the median, then runs whole rounds of the workload's fixed
operation list, one operation after another, until the operations have
taken --seconds and at least MIN_ROUNDS rounds have run.
Throughput is taken from each operation's median latency over the rounds.
Every output is checked by the independent oracle.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  `--workload all` runs every workload, untraced and traced, each
in its own process, and prints each end-to-end metric, the counts and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PYCACHE = WORK / "pycache"

WORKLOADS = ("twist-search", "restrict-fixtures", "iso-search", "cli-cold")
SETUP_PASSES = 5
SETUP_SECONDS = 2.0
SETUP_MAX_PASSES = 60
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)

# span name -> the counts reported for it; every span also reports its self time
_LAYER_COUNTS = (
    ("linalg.nullspace", ("calls", "cells")),
    ("linalg.batch_invertible", ("matrices",)),
    ("linalg.tensor_combine", ()),
    ("linalg.inverse_table", ("entries",)),
    ("linalg.solve", ()),
    ("algebra.enumerate_automorphisms", ("misses", "candidates")),
    ("algebra.enumerate_proper_subalgebras", ()),
    ("algebra.compose", ()),
    ("modrep.hom_space", ("calls", "unknowns")),
    ("modrep.twist", ("calls",)),
    ("modrep.restrict", ("calls",)),
    ("modrep.is_isomorphic", ("calls", "searched", "undecided")),
    ("modrep.is_indecomposable", ()),
    ("modrep.decompose", ()),
    ("equiv.t_isomorphic", ("autos_checked", "autos_searched", "searched_share")),
    ("equiv.t_orbit", ()),
    ("equiv.r_relations", ("subalgebras_checked",)),
    ("serialize.module_from_dict", ()),
    ("cli.main", ()),
)


def _per_layer_names():
    out = []
    for span, counts in _LAYER_COUNTS:
        out.extend((f"{span}.{c}", "share" if c == "searched_share" else "count") for c in counts)
        out.append((f"{span}.self_s", "s"))
    out.append(("cli.import_s", "s"))
    out.append(("trace.ops_per_s", "ops/s"))
    out.append(("trace.op_p50_ms", "ms"))
    return tuple(out)


PER_LAYER = _per_layer_names()


def fresh_import():
    """Import modequiv (and its CLI module) from scratch; returns the package
    and the import time.  numpy is imported once, before the first pass, so
    that every pass does the same work."""
    for name in [n for n in sys.modules if n == "modequiv" or n.startswith("modequiv.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    mq = importlib.import_module("modequiv")
    importlib.import_module("modequiv.cli")
    return mq, time.perf_counter() - t0


def setup(build):
    """Run set-up at least SETUP_PASSES times and until the passes have taken
    SETUP_SECONDS, so that a set-up of a few milliseconds is measured as
    often as one of a second; keep the last pass's operations and return them
    with the median set-up and import times."""
    totals, imports, ops = [], [], None
    while len(totals) < SETUP_MAX_PASSES and (
        len(totals) < SETUP_PASSES or sum(totals) < SETUP_SECONDS
    ):
        ops = None
        t0 = time.perf_counter()
        mq, import_s = fresh_import()
        ops = build(mq)
        totals.append(time.perf_counter() - t0)
        imports.append(import_s)
    return mq, ops, statistics.median(totals), statistics.median(imports)


class Tally:
    """Latencies per operation over the rounds, counts and check failures of
    one run."""

    def __init__(self, n_ops):
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self):
        return sum(len(lat) for lat in self.latencies)

    @property
    def busy(self):
        return sum(map(sum, self.latencies))

    @property
    def rounds(self):
        return len(self.latencies[0])

    def done(self, seconds):
        return self.rounds >= MIN_ROUNDS and self.busy >= seconds

    def ops_per_s(self):
        """Operations per second of a round in which every operation takes
        its median latency over the run's rounds.  A stall of the machine
        that hits fewer than half the repetitions of an operation leaves it
        out of the figure."""
        return len(self.latencies) / sum(statistics.median(lat) for lat in self.latencies)

    def record(self, i, op_name, dt, failed, problem):
        self.latencies[i].append(dt)
        self.failed += int(failed)
        if problem:
            self.problems.append(f"{op_name}: {problem}")
            print(f"check failed: {op_name}: {problem}", file=sys.stderr)


def run_in_process(ops, seconds, tally: Tally):
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # the outcome is judged below, not raised
                res = exc
            dt = time.perf_counter() - t0
            if wl.failed(res):
                if op.fault is None:
                    problem = None
                    print(f"{op.name}: failed without a known fault: {res}", file=sys.stderr)
                else:
                    problem = op.confirm(res)
                tally.record(i, op.name, dt, True, problem)
            elif isinstance(res, Exception):
                tally.record(i, op.name, dt, True, f"raised {res!r}")
            else:
                tally.record(i, op.name, dt, False, op.check(res))
        if tally.done(seconds):
            return


def run_cli(ops, seconds, tally: Tally, trace_dir: Path | None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the children read the bytecode compiled before timing
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    traces = []
    while True:
        for i, op in enumerate(ops):
            argv = ["check", *op.argv, "--report", "structured"]
            if trace_dir is None:
                cmd = [sys.executable, "-m", "modequiv.cli", *argv]
            else:
                out = trace_dir / f"span-{len(traces)}.json"
                traces.append(out)
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(out), *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
            dt = time.perf_counter() - t0
            if proc.returncode == 2:
                tally.record(i, op.name, dt, True, None)
                print(f"{op.name}: undecided without a known fault", file=sys.stderr)
                continue
            try:
                payload = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                tally.record(i, op.name, dt, True, f"exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            tally.record(i, op.name, dt, False, op.check(proc.returncode, payload))
        if tally.done(seconds):
            return [json.loads(p.read_text()) for p in traces]


def layer_metrics(calls, self_time, counts, import_s, ops_per_s, op_p50_ms):
    values = {}
    for span, names in _LAYER_COUNTS:
        for c in names:
            if c == "calls":
                values[f"{span}.calls"] = calls.get(span, 0)
            elif c == "searched_share":
                checked = counts.get(f"{span}.autos_checked", 0)
                searched = counts.get(f"{span}.autos_searched", 0)
                values[f"{span}.searched_share"] = searched / checked if checked else 0.0
            else:
                values[f"{span}.{c}"] = counts.get(f"{span}.{c}", 0)
        values[f"{span}.self_s"] = self_time.get(span, 0.0)
    values["cli.import_s"] = import_s
    values["trace.ops_per_s"] = ops_per_s
    values["trace.op_p50_ms"] = op_p50_ms
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "cli-cold":
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))
        try:
            _, ops, setup_s, import_s = setup(lambda mq: wl.cli_cold(mq, random.Random(seed), workdir))
            tally = Tally(len(ops))
            spans = run_cli(ops, seconds, tally, workdir if trace else None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        calls, self_time, counts = {}, {}, {}
        for sp in spans:
            for dst, src in ((calls, sp["calls"]), (self_time, sp["self_time"]), (counts, sp["counts"])):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        if spans:
            import_s = statistics.median(sp["import_s"] for sp in spans)
    else:
        _, ops, setup_s, import_s = setup(lambda mq: wl.BUILDERS[name](mq, random.Random(seed)))
        tally = Tally(len(ops))
        tracer = Tracer()
        if trace:
            tracer.install()
        run_in_process(ops, seconds, tally)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calls, self_time, counts = tracer.calls, tracer.self_time, tracer.counts

    ops_per_s = tally.ops_per_s()
    print(f"{name}: {tally.rounds} rounds of {len(tally.latencies)} operations, "
          f"{tally.busy:.2f} s inside them", file=sys.stderr)
    if trace:
        op_p50_ms = statistics.median(x for lat in tally.latencies for x in lat) * 1000.0
        metrics = layer_metrics(calls, self_time, counts, import_s, ops_per_s, op_p50_ms)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: int) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stderr}")
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        plain, traced = results[0], results[1]
        overhead = 1.0 - traced["metrics"]["trace.ops_per_s"]["value"] / plain["metrics"]["ops_per_s"]["value"]
        print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"correct {plain['correct'] and traced['correct']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<14} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        print(f"  tracing overhead {overhead:.1%} of untraced ops_per_s")
        combined["metrics"][f"{name}.trace_overhead"] = {"value": overhead, "unit": "share"}
        combined["correct"] &= plain["correct"] and traced["correct"]
        combined["attempted"] += plain["attempted"]
        combined["failed"] += plain["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modequiv" / "__init__.py").is_file():
        print(f"error: no modequiv package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    importlib.import_module("numpy")
    # Every import of modequiv, here and in the CLI children, reads bytecode
    # compiled now, whether or not the environment lets Python write any.
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    if not compileall.compile_dir(SRC / "modequiv", quiet=1):
        print("error: modequiv does not compile", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
