#!/usr/bin/env python3
"""tubalkit benchmark.

    python3 bench/run.py --workload recover_100 --seed 1 --seconds 15 --trace 0

It benchmarks the tubalkit sources in ``src/`` of the checkout it sits in,
which it imports from there and nowhere else. One process acts as a single closed-loop caller: each pass
starts after the previous one has finished and its outputs have been checked,
and passes repeat until ``--seconds`` have gone by (at least one pass). BLAS
and OpenMP threads are pinned to the number of usable CPUs (``nproc``, what an
unconfigured user gets) in this process's own environment before numpy loads.

--trace 0 measures the end-to-end metrics with tracing off. Set-up (import,
input generation, T3F1 input write) is timed in this process and in
SETUP_CHILDREN child processes, and the median is reported.

--trace 1 runs the untraced passes again, then one pass with spans around the
calls into every tubalkit layer (tracer.py), and reports the per-layer
metrics; the traced pass must reproduce the untraced outputs bit for bit. On
recover_100 it also solves once more in a child process pinned to one BLAS
thread, the single-thread reference.

Standard output carries one ``{"report": ...}`` line with the environment,
the failed checks and the detail behind every metric, and last the result
line ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Metric names and units come from BENCHMARK.json at the checkout root. The
result line holds only metrics that every workload has and that are never
zero: set-up time, pass wall time and peak memory untraced, the per-layer
metrics traced. The solver figures, which tensor_ops lacks (solve_s median
and tail, iters, iter_ms, rel_err_l, recovered_frac), are in the report line
with failed_frac, whose counts the result line gives as failed/attempted.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS threads; default nproc (the 1-thread reference sets 1)")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (the set-up children)")
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def thread_env():
    return {k: v for k, v in sorted(os.environ.items())
            if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS", "MKL_", "GOTO"))}


def load_tubalkit():
    init = SRC / "tubalkit" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no tubalkit sources at {init}")
    sys.path.insert(0, str(SRC))
    import tubalkit

    if Path(tubalkit.__file__).resolve() != init.resolve():
        raise BenchError(f"imported tubalkit from {tubalkit.__file__}, not {init}")
    return tubalkit


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


@contextmanager
def workdir():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        yield Path(d)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass


def child(args, *extra, threads):
    """Run this script again with the same workload and seed; return its output
    lines, each parsed from JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--threads", str(threads), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def environment(np, threads, before):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(str(f.relative_to(SRC)).encode())
        src.update(f.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "cpu_model": cpu or platform.processor(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "blas_threads": threads,
        "thread_env_before_pin": before,
        "thread_env": thread_env(),
        "caller": "one process, closed loop",
    }


def tail(values):
    """Median, minimum and the highest of p99/p95/p90/p75/p50 with at least ten
    samples beyond it, with the sample count."""
    out = {"median": statistics.median(values), "min": min(values), "n": len(values)}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            break
    return out


@dataclass
class Pass:
    wall_s: float
    checked: object  # workloads.Checked
    solves: list  # (seconds, iters, converged) per solve


def one_pass(wl, inputs, work, tracer, request):
    from workloads import Checked

    first = len(tracer.spans)
    tracer.request, tracer.phase = request, "pass"
    t = time.perf_counter()
    try:
        outcome = wl.run(inputs, work)
        error = None
    except Exception:  # a failed operation is a measured outcome, not the end of the run
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t
    spans = tracer.spans[first:]
    tracer.phase = "check"
    if error is None:
        try:
            checked = wl.check(inputs, outcome, spans)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        checked = Checked(wl.ops, failed={f"op{i}" for i in range(wl.ops)},
                          messages=[error.strip().splitlines()[-1]])
    solves = [(s.ms / 1e3, s.attrs["iters"], s.attrs["converged"])
              for s in spans if s.name == "solver.solve"]
    for s in spans:
        s.result = None  # free the outputs once checked
    return Pass(wall_s, checked, solves)


def run_passes(wl, inputs, work, tracer, seconds):
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(one_pass(wl, inputs, work, tracer, len(passes)))
        if time.perf_counter() >= deadline:
            return passes


def failures(wl, passes):
    """Failed operations; each operation of a pass fails at most once."""
    return sum(min(len(p.checked.failed), wl.ops) for p in passes)


def solve_summary(passes):
    """End-to-end solve metrics over every solve of the given passes."""
    from workloads import SUCCESS_TOL

    solves = [s for p in passes for s in p.solves]
    errors = [e for p in passes for e in p.checked.errors]
    if not solves:
        return {}
    seconds = [s[0] for s in solves]
    iters = sum(s[1] for s in solves)
    expected = [err for err, exp in errors if exp]
    return {
        "solve_s": {**tail(seconds), "unit": "s"},
        "iters": {"per_solve": [s[1] for s in passes[0].solves], "unit": "count"},
        "iter_ms": {"value": 1e3 * sum(seconds) / iters, "unit": "ms"},
        "rel_err_l": {"value": max(expected) if expected else None, "unit": "1"},
        "recovered_frac": {
            "value": sum(err <= SUCCESS_TOL for err, _ in errors) / len(errors) if errors else None,
            "unit": "frac"},
    }


def traced_run(args, wl, inputs, work, tracer):
    """Untraced passes for --seconds, then one traced pass; per-layer metrics."""
    import tracer as tr

    probe = tr.Tracer(tr.PROBE)
    probe.install()
    passes = run_passes(wl, inputs, work, probe, args.seconds)
    probe.uninstall()
    tracer.install()
    traced = one_pass(wl, inputs, work, tracer, len(passes))
    tracer.uninstall()
    untraced_wall = statistics.median(p.wall_s for p in passes)
    metrics = tr.layer_metrics(tracer, traced.wall_s)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced_wall - 1.0
    if traced.checked.hashes != passes[0].checked.hashes:
        traced.checked.fail("trace", "traced outputs differ from the untraced outputs")
    if [s[1] for s in traced.solves] != [s[1] for s in passes[0].solves]:
        traced.checked.fail("trace", "traced iteration counts differ from the untraced ones")
    detail = {
        "wall_s": traced.wall_s,
        "iters": [s[1] for s in traced.solves],
        "hashes": traced.checked.hashes,
        "spans": tr.aggregate(s for s in tracer.spans if s.phase == "pass"),
    }
    if args.workload == "recover_100":
        report, result = child(args, "--seconds", "0", "--trace", "0", threads=1)
        detail["reference_1thread"] = {
            "blas_threads": 1, "correct": result["correct"],
            **{k: report["report"]["end_to_end"][k] for k in ("solve_s", "iters", "iter_ms")}}
    return passes, traced, metrics, detail


def measure(args, spec, t0, threads, before, setup_samples):
    import numpy as np

    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with workdir() as work:
        tracer = tr.Tracer(None if args.trace else tr.PROBE)
        tracer.install()
        inputs = wl.setup(args.seed, work)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            tracer.uninstall()
            return {"setup_s": setup_s}
        if args.trace:
            tracer.uninstall()
            passes, traced, metrics, detail = traced_run(args, wl, inputs, work, tracer)
            checked = passes + [traced]
        else:
            passes = run_passes(wl, inputs, work, tracer, args.seconds)
            tracer.uninstall()
            checked, detail = passes, None
    attempted = len(checked) * wl.ops
    failed = failures(wl, checked)
    walls = [p.wall_s for p in passes]
    setup_samples = [setup_s, *setup_samples]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(np, threads, before),
        "passes": len(checked),
        "hashes": passes[0].checked.hashes,
        "failed_checks": sorted({m for p in checked for m in p.checked.messages}),
        "end_to_end": {
            "setup_s": {"median": statistics.median(setup_samples), "samples": setup_samples,
                        "unit": "s"},
            "wall_s": {**tail(walls), "samples": walls, "unit": "s"},
            **solve_summary(passes),
            "failed_frac": {"value": failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }
    if args.trace:
        report["traced"] = detail
    else:
        metrics = {"setup_s": statistics.median(setup_samples),
                   "wall_s": statistics.median(walls), "peak_rss_mb": rss_mb}
    units = spec[args.trace]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "report": report,
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}; have {spec['workloads']}")
        if not (SRC / "tubalkit" / "__init__.py").is_file():
            raise BenchError(f"no tubalkit sources under {SRC}")
        threads = args.threads or nproc()
        before = thread_env()
        for var in THREAD_VARS:
            os.environ[var] = str(threads)
        setup_samples = []
        if not args.setup_only and not args.trace:
            for _ in range(SETUP_CHILDREN):
                (sample,) = child(args, "--seconds", "0", "--trace", "0", "--setup-only",
                                  threads=threads)
                setup_samples.append(sample["setup_s"])
        t0 = time.perf_counter()
        load_tubalkit()
        out = measure(args, spec, t0, threads, before, setup_samples)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(out))
    else:
        print(json.dumps({"report": out["report"]}, sort_keys=True))
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
