"""Benchmark of gapguide: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload nu-ladder --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones.
Without ``--workload`` every workload runs in turn, each in its own process,
and one such line is printed per workload.

This process only launches and collects.  The workload runs in a child
process; two more children only set up, so that ``setup_s``, the time from
process start to the first operation, is a median of three.  Times are
taken on CLOCK_MONOTONIC, which all processes of the machine share.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nu-ladder", "guide-2d", "maxwell-3d")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0      # a run ends within 180 s
ROUNDS_S = 100.0        # no round starts later than this into a run


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("launch", "setup", "measure"),
                    default="launch", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def _child(args, role: str, timeout: float) -> dict:
    """Run one child and return the JSON object on its last output line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--t0", repr(t0), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"{role} child of {args.workload} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def launch(args) -> int:
    if not (ROOT / "src" / "gapguide" / "__init__.py").is_file():
        print(f"gapguide sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            print(f"{name}: {proc.stdout.strip()}", flush=True)
            status = status or proc.returncode
        return status
    start = time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(args, "setup", 60.0)["setup_s"])
    left = DEADLINE_S - (time.monotonic() - start)
    child = _child(args, "measure", left)
    result = child["result"]
    if not args.trace:
        setups.append(child["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _load(args):
    """Import gapguide from this checkout and set the workload up."""
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import gapguide
    if ROOT / "src" not in Path(gapguide.__file__).resolve().parents:
        raise SystemExit(f"gapguide imported from {gapguide.__file__}, "
                         f"not from this checkout")
    import workloads
    out = ROOT / "bench" / "out" / f"{args.workload}-{os.getpid()}"
    return workloads, out


def setup_only(args) -> int:
    workloads, out = _load(args)
    try:
        workloads.WORKLOADS[args.workload](args.seed, out)
        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
    finally:
        _remove(out)
    return 0


def measure(args) -> int:
    workloads, out = _load(args)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out)
        setup_s = time.monotonic() - args.t0
        result = _rounds(args, wl, workloads.OperationFailed)
        print(json.dumps({"setup_s": setup_s, "result": result}))
    finally:
        _remove(out)
    return 0


def _rounds(args, wl, failure) -> dict:
    """Whole rounds until --seconds have passed.

    A traced run alternates untraced and traced rounds, at least one of
    each, so that it can state what tracing costs.  A round whose operation
    fails counts the rest of its operations as failed and is not checked.
    """
    from tracer import NoTrace, Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    problems = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        wl.done = 0
        outputs = None
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    outputs = wl.run_round(tracer)
            else:
                outputs = wl.run_round(NoTrace())
        except failure as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
        walls[traced].append(time.perf_counter() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpus.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
        attempted += wl.OPS
        failed += wl.OPS - wl.done
        if len(cpus) == 1:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if outputs is not None:
            try:
                problems += wl.check(outputs)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"outputs unreadable: {exc!r}")
        print(f"{args.workload} round {len(cpus)}{' traced' if traced else ''}:"
              f" wall {walls[traced][-1]:.3f} s, cpu {cpus[-1]:.3f} s",
              file=sys.stderr)
        elapsed = time.monotonic() - start
        if elapsed >= min(args.seconds, ROUNDS_S) and walls[bool(args.trace)]:
            break
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        overhead = (statistics.median(walls[True])
                    - statistics.median(walls[False]))
        metrics = tracer.metrics(len(walls[True]), overhead)
        units = {name: "count" if not name.endswith("_s") else "s"
                 for name in metrics}
    else:
        metrics = {"wall_s": statistics.median(walls[False]),
                   "cpu_s": statistics.median(cpus),
                   "peak_rss_mb": rss}
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _remove(out: Path):
    shutil.rmtree(out, ignore_errors=True)


def main(argv=None) -> int:
    args = parse(argv)
    if args.role == "launch":
        return launch(args)
    return (setup_only if args.role == "setup" else measure)(args)


if __name__ == "__main__":
    sys.exit(main())
