#!/usr/bin/env python3
"""Benchmark for gsb: four closed-loop workloads, output checks, per-layer trace.

Run from the repository root; nothing needs to be installed, the script puts
``src`` on the import path itself:

    python3 bench/run.py --workload braid_completion --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-check

With ``--trace 0`` the run makes one warm-up pass, then repeats passes over
the workload until ``--seconds`` have passed, with set-up probes in fresh
processes spread between them, and reports the end-to-end metrics.  With
``--trace 1`` it installs the tracer and repeats one pass of every workload
until ``--seconds`` have passed, and reports the per-layer metrics of each
(see README.md); ``--workload`` may then be left out and is ignored if
given.  Every operation's output is checked in every pass.  The last line
of standard output is the result as one JSON object; it is also written
under ``bench/out/``.  The exit code is 0 only when no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 30
# a time t measured while the reference work took r seconds is reported as
# t * REFERENCE_S / r: seconds on a machine where the reference work takes
# REFERENCE_S
REFERENCE_S = 0.05
MIN_PASSES = 3
# stop adding passes after this long even if MIN_PASSES is not reached
HARD_LIMIT_S = 120.0
MAX_PROBLEMS_KEPT = 20


def import_gsb():
    if not (SRC / "gsb" / "__init__.py").is_file():
        print(f"bench: no gsb package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gsb

    return gsb


FAILED = object()


class Recorder:
    """Times operations one at a time and checks each output."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = array("d")  # compact, so the bookkeeping barely moves peak_rss_mb
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def op(self, thunk, check=None):
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            out = thunk()
        except Exception:  # a raising operation is a failed one; the run goes on
            out = FAILED
            error = traceback.format_exc(limit=3)
        self.times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        if out is FAILED:
            self._fail(error)
            return FAILED
        try:
            problems = check(out) if check is not None else []
        except Exception:  # a check that cannot read the output rejects it
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.wrong += 1
            self._fail("; ".join(problems))
        return out

    def _fail(self, message):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_KEPT:
            self.problems.append(message)


def make_workload(gsb, name, seed, tiny=False):
    from workloads import WORKLOADS

    return WORKLOADS[name](gsb, seed, tiny=tiny)


def probe_setup(name, seed):
    """Seconds from starting a fresh process until its inputs are ready, and
    the reference time that process measured right after."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        reference = child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed, float(reference)


def reference_work():
    """Fixed pure-Python work of the engine's kind: word tuples, rotations,
    a dict of Fraction coefficients and a keyed sort.  It never changes, so
    its time measures the speed of the machine."""
    terms = {}
    for i in range(3000):
        w = (i % 3, (i * 7) % 3, (i * 5) % 3, i % 2)
        for k in range(len(w)):
            key = w[k:] + w[:k]
            terms[key] = terms.get(key, 0) + Fraction(i % 5 - 2, 1 + i % 3)
    return sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0]))


def reference_s():
    """Seconds the reference work takes now.  The collector is off meanwhile,
    so the size of the program's heap cannot move it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def percentile(values, n):
    """The value that n% of ``values`` do not exceed (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[n - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(gsb, args):
    workload = make_workload(gsb, args.workload, args.seed)
    totals = Recorder()
    workload.run_pass(totals)  # warm-up pass: checked and counted, not timed
    # every timing is scaled by REFERENCE_S / (reference time around it),
    # which takes out the drift of the machine's speed (README.md, "Timing")
    probes, passes = [], []
    reference = reference_s()
    began = next_probe = time.perf_counter()
    while True:
        # set-up probes are spread over the run, at most one between two passes
        if len(probes) < SETUP_PROBES and time.perf_counter() >= next_probe:
            probe, after = probe_setup(args.workload, args.seed)
            probes.append((probe, (reference + after) / 2))
            reference = after
            next_probe += args.seconds / SETUP_PROBES
        before = len(totals.times)
        workload.run_pass(totals)
        after = reference_s()
        passes.append((before, len(totals.times), (reference + after) / 2))
        reference = after
        elapsed = time.perf_counter() - began
        if elapsed >= HARD_LIMIT_S or (elapsed >= args.seconds and len(passes) >= MIN_PASSES):
            break
    rss = peak_rss_mb()  # before the lists below, which are bookkeeping
    times = totals.times
    setup_s = [t * REFERENCE_S / ref for t, ref in probes]
    pass_s = [sum(times[a:b]) * REFERENCE_S / ref for a, b, ref in passes]
    op_ms = sorted(t * 1e3 * REFERENCE_S / ref for a, b, ref in passes for t in times[a:b])
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(pass_s), "s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_p90_ms": metric(percentile(op_ms, 90), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    detail = {
        "passes": len(passes),
        "ops_per_pass": passes[0][1] - passes[0][0],
        "raw_pass_s": [sum(times[a:b]) for a, b, _ in passes],
        "raw_setup_s": [t for t, _ in probes],
        "pass_reference_s": [ref for _, _, ref in passes],
        "setup_reference_s": [ref for _, ref in probes],
        "problems": totals.problems,
    }
    return totals, metrics, detail


def traced_run(gsb, args):
    from tracing import LAYER_METRICS, Tracer, layer_value

    workloads = {name: make_workload(gsb, name, args.seed) for name in LAYER_METRICS}
    tracer = Tracer(gsb)
    totals = Recorder(tracer)
    rounds = {name: [] for name in workloads}
    traced_wall = {name: [] for name in workloads}
    spans = {}
    began = time.perf_counter()
    tracer.install()
    try:
        while True:
            for name, workload in workloads.items():
                tracer.reset()
                before = len(totals.times)
                workload.run_pass(totals)
                traced_wall[name].append(sum(totals.times[before:]))
                rounds[name].append(tracer.snapshot())
                spans.setdefault(name, {"spans": tracer.spans, "dropped": tracer.dropped})
            elapsed = time.perf_counter() - began
            if elapsed >= args.seconds or elapsed >= HARD_LIMIT_S:
                break
    finally:
        tracer.uninstall()
    metrics = {}
    counts_repeat = True
    for name, wanted in LAYER_METRICS.items():
        for layer, (unit, _better) in wanted.items():
            values = [layer_value(layer, snap) for snap in rounds[name]]
            if layer.endswith(".self_s"):
                value = statistics.median(values)
            else:
                value = values[0]
                counts_repeat &= all(v == value for v in values)
            metrics[f"{name}.{layer}"] = metric(value, unit)
    detail = {
        "rounds": min(len(r) for r in rounds.values()),
        "traced_wall_s": traced_wall,
        "counts_repeat": counts_repeat,
        "problems": totals.problems,
    }
    trace = {"layers": rounds, "spans": spans}
    return totals, metrics, detail, trace


def self_check(gsb):
    """Tiny passes must be clean, and corrupted outputs must be rejected."""
    import checks

    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        rec = Recorder()
        make_workload(gsb, name, 1, tiny=True).run_pass(rec)
        clean = rec.failed == 0 and rec.times
        ok &= bool(clean)
        print(f"{'ok  ' if clean else 'FAIL'} {name}: {len(rec.times)} operations, "
              f"{rec.failed} failed {rec.problems[:1]}")

    spec = gsb.DegLex()
    braid = make_workload(gsb, "braid_completion", 1, tiny=True)
    report = gsb.shirshov_complete(braid.inputs, spec, max_deg=braid.max_deg)
    A = gsb.Alphabet(("a", "b"))
    oracle_rels = gsb.shirshov_complete([gsb.Polynomial.parse("a*a - b", A)], spec).relations
    dim = gsb.quotient_dim_oracle(A, oracle_rels, spec, 3)
    n_irr = len(gsb.irr_words(A, oracle_rels, spec, 3))
    alsws = gsb.alsw_up_to(A, 6)
    corruptions = {
        "one braid relation dropped": checks.braid_completion_problems(
            gsb, braid.max_deg, report.status_text(), braid.inputs, report.relations[:-1], True
        ),
        "one ALSW removed": checks.alsw_list_problems(2, 6, alsws[:3] + alsws[4:]),
        "one oracle dimension off by one": checks.oracle_problems(3, dim + 1, n_irr, None),
    }
    for what, problems in corruptions.items():
        ok &= bool(problems)
        print(f"{'ok  ' if problems else 'FAIL'} rejects {what}: {problems[:1]}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run tiny passes and check that corrupted outputs are rejected")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_check or args.trace) and args.workload is None:
        parser.error("--workload is required without --trace 1 or --self-check")

    gsb = import_gsb()
    if args.setup_probe:
        make_workload(gsb, args.workload, args.seed)
        print("ready", flush=True)
        print(reference_s())
        return 0
    if args.self_check:
        return self_check(gsb)

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        # the traced run covers every workload, so --workload does not matter
        stem = f"traced-seed{args.seed}"
        totals, metrics, detail, trace = traced_run(gsb, args)
        (OUT_DIR / f"trace-seed{args.seed}.json").write_text(json.dumps(trace))
    else:
        stem = f"{args.workload}-seed{args.seed}"
        totals, metrics, detail = timed_run(gsb, args)
    result = {
        "correct": totals.wrong == 0 and detail.get("counts_repeat", True),
        "attempted": len(totals.times),
        "failed": totals.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=None if args.trace else args.workload, seed=args.seed, seconds=args.seconds,
                  python=platform.python_version(), nproc=os.cpu_count(), detail=detail)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] and totals.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
