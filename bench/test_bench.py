"""Self-tests of the benchmark: python3 -m pytest bench

They run the benchmark script in child processes (about a minute in all) and
check that tracing changes no output, that a seed fixes the instances, that
every emitted metric is declared in BENCHMARK.json, and that the script
refuses to run without the tubalkit sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_tubalkit()

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import tubalkit as tk  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=7, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_spec_lists_every_workload_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["decompose_tall", "phase_50x20"])
def test_traced_run_reproduces_untraced_outputs(workload):
    plain_report, plain = parse(bench(workload, 0))
    traced_report, traced = parse(bench(workload, 1))
    assert plain["correct"] and traced["correct"]
    assert plain_report["end_to_end"]["iters"] == traced_report["end_to_end"]["iters"]
    assert traced_report["traced"]["iters"] == plain_report["end_to_end"]["iters"]["per_solve"]
    assert traced_report["traced"]["hashes"] == plain_report["hashes"]
    # Every emitted metric is declared, with its declared unit, and nothing is missing.
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", ["recover_100", "decompose_tall", "tensor_ops"])
def test_seed_fixes_the_instance(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]

    def fingerprint(seed, sub):
        (tmp_path / sub).mkdir()
        inp = wl.setup(seed, tmp_path / sub)
        arrays = [v for v in vars(inp).values() if isinstance(v, np.ndarray)]
        return workloads.digest(*arrays)

    assert fingerprint(3, "a") == fingerprint(3, "b")
    assert fingerprint(3, "a2") != fingerprint(4, "c")


def test_phase_grid_sees_the_same_instances_for_a_seed():
    def truths(seed):
        t = tr.Tracer({"synth.gen_low_tubal_rank"})
        t.install()
        try:
            tk.phase_grid(8, 4, [0.25], [0.1], 2, seed=seed)
        finally:
            t.uninstall()
        return [workloads.digest(s.result) for s in t.spans]

    assert truths(5) == truths(5) != truths(6)


def test_svd_span_counts_kept_singular_values():
    y = np.random.default_rng(0).standard_normal((6, 5, 4))
    tau = 1.5
    t = tr.Tracer()
    t.install()
    try:
        tk.tsvt(y, tau)
    finally:
        t.uninstall()
    svd = [s for s in t.spans if s.name == "decomposition.svd"]
    half = np.moveaxis(np.fft.fft(y, axis=2)[:, :, :3], 2, 0)
    s = np.linalg.svd(half, compute_uv=False)
    assert sum(sp.attrs["matrices"] for sp in svd) == 3
    assert sum(sp.attrs["computed"] for sp in svd) == s.size
    assert sum(sp.attrs["kept"] for sp in svd) == np.count_nonzero(s > tau)
    assert max(sp.attrs["kept_max"] for sp in svd) == np.count_nonzero(s > tau, axis=1).max()
    assert all(t.enclosing(sp, "prox.tsvt") is not None for sp in svd)


def test_fft_span_covers_the_real_transforms_and_uninstall_restores():
    originals = (np.fft.fft, np.fft.ifft, np.fft.rfft, np.fft.irfft, np.linalg.svd, tk.solve)
    t = tr.Tracer()
    t.install()
    try:
        x = np.ones((4, 8))
        np.fft.irfft(np.fft.rfft(x, axis=1), n=8, axis=1)
        np.fft.ifft(np.fft.fft(x, axis=1), axis=1)
    finally:
        t.uninstall()
    assert [s.name for s in t.spans] == ["core.fft"] * 4
    assert all(s.attrs["bytes"] > 0 for s in t.spans)
    assert (np.fft.fft, np.fft.ifft, np.fft.rfft, np.fft.irfft, np.linalg.svd, tk.solve) == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("tensor_ops", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
