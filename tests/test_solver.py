"""ADMM solver: convergence, determinism, defaults, matrix reduction."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalkit import core, solver
from tubalkit.core import fro_norm, linf_norm
from tubalkit.decomposition import singular_values, tubal_rank
from tubalkit.solver import Solution, SolverConfig, default_lambda, solve
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli

from oracles import admm_keeping_dual, traced_peak


def matrix_rpca_admm(x, lam, rho=1.1, mu0=1e-3, mu_max=1e10, eps=1e-8, max_iters=500):
    """Independently coded matrix-only ADMM used as the reduction oracle."""

    def svt(m, tau):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        return (u * np.maximum(s - tau, 0.0)) @ vh

    def shrink(m, kappa):
        return np.sign(m) * np.maximum(np.abs(m) - kappa, 0.0)

    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    dual = np.zeros_like(x)
    for k in range(max_iters):
        mu = min(mu0 * rho**k, mu_max)
        low_new = svt(x - sparse - dual / mu, 1.0 / mu)
        sparse_new = shrink(x - low_new - dual / mu, lam / mu)
        gap = low_new + sparse_new - x
        dual = dual + mu * gap
        done = (
            np.max(np.abs(low_new - low)) <= eps
            and np.max(np.abs(sparse_new - sparse)) <= eps
            and np.max(np.abs(gap)) <= eps
        )
        low, sparse = low_new, sparse_new
        if done:
            break
    return low, sparse


# ── defaults and configuration ───────────────────────────────────────────────


def test_default_lambda_values():
    assert np.isclose(default_lambda(100, 100, 100), 1e-2)
    assert np.isclose(default_lambda(321, 481, 3), 1.0 / math.sqrt(481 * 3))
    assert np.isclose(default_lambda(50, 50, 1), 1.0 / math.sqrt(50))
    for dims in [(0, 4, 4), (2.5, 4, 4), (4, 4.0, 4)]:
        with pytest.raises(ValueError):
            default_lambda(*dims)


def test_solution_reports_the_lambda_used():
    x = np.zeros((4, 6, 3))
    assert solve(x).lam == default_lambda(4, 6, 3)
    assert solve(x, SolverConfig(lam=0.3)).lam == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    for max_iters in (0, 3.0, 2.5):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=max_iters)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    # NaN fails every comparison, so it must not slip past a `<=` check.
    for field in ("lam", "eps"):
        with pytest.raises(ValueError):
            SolverConfig(**{field: float("nan")})
    # An infinite eps would meet the stopping test at the first iteration, and
    # an infinite lam would force E = 0.
    for field in ("lam", "eps"):
        with pytest.raises(ValueError):
            SolverConfig(**{field: float("inf")})
    # A bool, Python's or numpy's, compares as a number, but is not a weight or a tolerance.
    for field in ("lam", "eps"):
        for flag in (True, False, np.True_, np.False_):
            with pytest.raises(ValueError):
                SolverConfig(**{field: flag})


@pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)], ids=["n1", "n2"])
def test_an_empty_first_or_second_mode_solves(shape):
    # As rank-0 skinny factors are: no rows to walk, or rows of no bytes.
    sol = solve(np.zeros(shape), SolverConfig(lam=1.0))
    assert sol.converged and sol.iters == 1
    assert sol.l_hat.shape == sol.e_hat.shape == shape


def test_solve_rejects_nonfinite():
    x = np.zeros((2, 2, 2))
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        solve(x)


# ── behavior ─────────────────────────────────────────────────────────────────


def test_zero_input_converges_immediately():
    sol = solve(np.zeros((4, 4, 3)))
    assert sol.converged
    assert sol.iters <= 2
    assert np.all(sol.l_hat == 0.0) and np.all(sol.e_hat == 0.0)
    assert sol.final_residual == 0.0


def test_small_instance_recovery():
    l0 = gen_low_tubal_rank(30, 30, 10, 2, seed=1)
    e0 = gen_sparse_bernoulli(30, 30, 10, 0.05, "rho", seed=2)
    sol = solve(l0 + e0)
    assert sol.converged
    assert sol.final_residual <= 1e-8
    assert fro_norm(sol.l_hat - l0) / fro_norm(l0) <= 1e-5
    assert fro_norm(sol.e_hat - e0) / fro_norm(e0) <= 1e-7
    assert tubal_rank(sol.l_hat, 1e-6) == 2


def test_feasibility_at_convergence():
    l0 = gen_low_tubal_rank(20, 20, 6, 1, seed=3)
    e0 = gen_sparse_bernoulli(20, 20, 6, 0.03, "rho", seed=4)
    x = l0 + e0
    sol = solve(x)
    assert sol.converged
    assert linf_norm(sol.l_hat + sol.e_hat - x) <= 1e-8


def test_nonconvergence_is_a_value():
    l0 = gen_low_tubal_rank(20, 20, 6, 2, seed=5)
    e0 = gen_sparse_bernoulli(20, 20, 6, 0.1, "rho", seed=6)
    sol = solve(l0 + e0, SolverConfig(max_iters=3))
    assert isinstance(sol, Solution)
    assert not sol.converged
    assert sol.iters == 3
    assert len(sol.residual_history) == 3


def test_final_residual_is_the_exit_feasibility_gap():
    l0 = gen_low_tubal_rank(12, 12, 4, 1, seed=12)
    e0 = gen_sparse_bernoulli(12, 12, 4, 0.05, "rho", seed=13)
    x = l0 + e0
    for cfg in (SolverConfig(), SolverConfig(max_iters=3)):
        sol = solve(x, cfg)
        assert sol.final_residual == linf_norm(sol.l_hat + sol.e_hat - x)


def test_deterministic_histories():
    l0 = gen_low_tubal_rank(15, 15, 4, 1, seed=7)
    e0 = gen_sparse_bernoulli(15, 15, 4, 0.05, "rho", seed=8)
    x = l0 + e0
    a = solve(x)
    b = solve(x)
    assert a.iters == b.iters
    assert a.residual_history == b.residual_history
    assert a.l_hat.tobytes() == b.l_hat.tobytes()
    assert a.e_hat.tobytes() == b.e_hat.tobytes()


def test_residual_history_tracks_stopping_rule():
    l0 = gen_low_tubal_rank(15, 15, 4, 1, seed=9)
    e0 = gen_sparse_bernoulli(15, 15, 4, 0.05, "rho", seed=10)
    sol = solve(l0 + e0)
    assert sol.converged
    assert len(sol.residual_history) == sol.iters
    assert sol.residual_history[-1] <= 1e-8


def test_single_slice_matches_matrix_rpca():
    rng = np.random.default_rng(11)
    low0 = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 50))
    mask = rng.random(size=(50, 50)) < 0.05
    sparse0 = np.where(mask, rng.choice([-1.0, 1.0], size=(50, 50)), 0.0)
    x = low0 + sparse0
    lam = default_lambda(50, 50, 1)
    sol = solve(x[:, :, None], SolverConfig(lam=lam))
    low_ref, sparse_ref = matrix_rpca_admm(x, lam)
    assert fro_norm(sol.l_hat[:, :, 0] - low_ref) <= 1e-6 * fro_norm(low_ref)
    assert fro_norm(sol.e_hat[:, :, 0] - sparse_ref) <= 1e-6 * max(fro_norm(sparse_ref), 1.0)


# ── certified partial SVD inside the solve ───────────────────────────────────


def partial_svd_instance(seed=1):
    # The narrowest slices that keep the partial path open up to a kept rank of 3.
    n = core.PARTIAL_SVD_FRACTION * (3 + core.OVERSAMPLE)
    l0 = gen_low_tubal_rank(n, n, 8, 3, seed=seed)
    e0 = gen_sparse_bernoulli(n, n, 8, 0.05, "rho", seed=seed + 1)
    return l0, l0 + e0


def test_partial_svd_counts_are_reported():
    l0, x = partial_svd_instance()
    sol = solve(x)
    assert sol.converged
    assert fro_norm(sol.l_hat - l0) / fro_norm(l0) <= 1e-5
    assert sol.svd_certified > 0
    assert sol.svd_certified + sol.svd_fallbacks <= sol.iters * (8 // 2 + 1)


def test_forty_wide_slices_take_the_partial_path(monkeypatch):
    # Rank 2 on 40 x 40 slices, as `tubalkit decompose` runs on a 40x40xn3
    # file: the gate, 4 * (kept rank + OVERSAMPLE) <= 40, stays open on every
    # call, and the partial path leaves the solve where the exact one takes it.
    n3 = 6
    l0 = gen_low_tubal_rank(40, 40, n3, 2, seed=7)
    x = l0 + gen_sparse_bernoulli(40, 40, n3, 0.05, "rho", seed=8)
    sol = solve(x)
    slice_svds = sol.iters * (n3 // 2 + 1)
    assert sol.svd_certified + sol.svd_fallbacks == slice_svds
    assert sol.svd_certified >= 0.95 * slice_svds
    monkeypatch.setattr(core, "PARTIAL_SVD_FRACTION", 41)  # shut: 41 * OVERSAMPLE > 40
    exact = solve(x)
    assert exact.svd_certified + exact.svd_fallbacks == 0
    assert sol.iters == exact.iters
    assert fro_norm(sol.l_hat - exact.l_hat) <= 1e-12 * fro_norm(exact.l_hat)


def test_a_kept_rank_past_the_gate_leaves_the_solve_unchanged(monkeypatch):
    # Rank 20 on 50 x 50 slices with 5% corruption, as the unrecoverable cells
    # of the 50x50x20 phase grid: the kept rank climbs past the gate's cut-off,
    # 50 // 4 - OVERSAMPLE, so the partial path serves only the first
    # iterations, and slices whose kept rank outgrows their basis fall back.
    n3 = 8
    l0 = gen_low_tubal_rank(50, 50, n3, 20, seed=18)
    x = l0 + gen_sparse_bernoulli(50, 50, n3, 0.05, "rho", seed=19)
    sol = solve(x)
    assert sol.svd_certified > 0 and sol.svd_fallbacks > 0
    assert sol.svd_certified + sol.svd_fallbacks < sol.iters * (n3 // 2 + 1)  # the gate shut
    monkeypatch.setattr(core, "PARTIAL_SVD_FRACTION", 51)  # shut: 51 * OVERSAMPLE > 50
    exact = solve(x)
    assert exact.svd_certified + exact.svd_fallbacks == 0
    assert sol.iters == exact.iters
    assert fro_norm(sol.l_hat - exact.l_hat) <= 1e-12 * fro_norm(exact.l_hat)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(n1=st.integers(12, 32), n2=st.integers(12, 32), n3=st.sampled_from([1, 2, 3, 8]),
       rank_frac=st.floats(0, 1), rho=st.sampled_from([0.01, 0.03, 0.05, 0.1]), seed=st.integers(0, 99))
def test_the_gate_leaves_drawn_solves_unchanged(n1, n2, n3, rank_frac, rho, seed):
    # A rank below a third of the narrower side, so that the partial path
    # serves the solves: it served all 50 draws here, 5 of them with
    # fallbacks, with equal iterations and L within 8.2e-14 relative. The gate
    # is shut by mock.patch: the monkeypatch fixture is not reset per example.
    rank = 1 + int(rank_frac * ((min(n1, n2) - 1) // 3 - 1))
    x = gen_low_tubal_rank(n1, n2, n3, rank, seed) + gen_sparse_bernoulli(n1, n2, n3, rho, "rho", seed + 1)
    sol = solve(x)
    with mock.patch.object(core, "PARTIAL_SVD_FRACTION", min(n1, n2) + 1):  # shut for any block
        exact = solve(x)
    assert exact.svd_certified + exact.svd_fallbacks == 0
    assert sol.iters == exact.iters
    assert fro_norm(sol.l_hat - exact.l_hat) <= 1e-12 * fro_norm(exact.l_hat)
    # Either path's last thresholding kept L's singular values, to rounding.
    for s in (sol, exact):
        sv = singular_values(s.l_hat)
        assert np.abs(s.l_singular_values - sv).max(initial=0.0) <= 1e-12 * sv.max(initial=0.0)


def test_warm_solves_are_bit_identical():
    _, x = partial_svd_instance(1)
    _, other = partial_svd_instance(5)
    first = solve(x)
    again = solve(x)
    solve(other)
    after_other = solve(x)
    for sol in (again, after_other):
        assert sol.iters == first.iters
        assert sol.l_hat.tobytes() == first.l_hat.tobytes()
        assert sol.e_hat.tobytes() == first.e_hat.tobytes()
        assert (sol.svd_certified, sol.svd_fallbacks) == (first.svd_certified, first.svd_fallbacks)


def test_failed_certificates_reproduce_the_exact_path(monkeypatch):
    _, x = partial_svd_instance()
    with monkeypatch.context() as m:
        m.setattr(core, "PARTIAL_SVD_FRACTION", 1 << 30)  # shut for any block
        exact = solve(x)
    assert exact.svd_certified + exact.svd_fallbacks == 0
    monkeypatch.setattr(core, "_certified", lambda x, uk, tau: False)
    sol = solve(x)
    assert sol.svd_certified == 0 and sol.svd_fallbacks > 0
    assert sol.iters == exact.iters
    assert sol.l_hat.tobytes() == exact.l_hat.tobytes()
    assert sol.e_hat.tobytes() == exact.e_hat.tobytes()


# ── the scaled dual ──────────────────────────────────────────────────────────


def single_slice_instance():
    l0 = gen_low_tubal_rank(40, 40, 1, 2, seed=14)
    return l0, l0 + gen_sparse_bernoulli(40, 40, 1, 0.05, "rho", seed=15)


def exact_path_instance():
    # A kept rank of 5 on 30x30 slices keeps the partial path shut, 4 * (5 +
    # OVERSAMPLE) > 30, once the first iterations have passed.
    l0 = gen_low_tubal_rank(30, 30, 7, 5, seed=16)
    return l0, l0 + gen_sparse_bernoulli(30, 30, 7, 0.05, "rho", seed=17)


@pytest.mark.parametrize("max_iters", [500, 20], ids=["converged", "cut"])
@pytest.mark.parametrize("instance", [partial_svd_instance, single_slice_instance, exact_path_instance],
                         ids=["partial", "single_slice", "exact"])
def test_scaled_dual_matches_algorithm1_keeping_y(instance, max_iters):
    # Carrying T = X - L - Y / mu, whose clip gives E and the next scaled dual,
    # in place of E and Y / mu is exact algebra: only the rounding changes.
    _, x = instance()
    sol = solve(x, SolverConfig(max_iters=max_iters))
    low, sparse, iters, certified, fallbacks = admm_keeping_dual(x, sol.lam, max_iters=max_iters)
    assert sol.converged == (max_iters == 500)
    assert (sol.iters, sol.svd_certified, sol.svd_fallbacks) == (iters, certified, fallbacks)
    assert fro_norm(sol.l_hat - low) <= 1e-12 * fro_norm(low)
    assert fro_norm(sol.e_hat - sparse) <= 1e-12 * fro_norm(sparse)


@pytest.mark.parametrize("instance, sizes", [(partial_svd_instance, 6.1), (exact_path_instance, 6.5)],
                         ids=["partial", "exact"])
def test_solve_holds_two_tensors(instance, sizes):
    # L and T = X - L - Y / mu live through the solve, with the half spectrum
    # that each iteration fills and reads back a chunk of rows at a time; E or
    # Y / mu kept apart, or a full-size scratch tensor, would lift either peak
    # by one tensor size.
    _, x = instance()
    assert traced_peak(lambda: solve(x)) <= sizes * x.nbytes


@pytest.mark.parametrize("instance", [partial_svd_instance, exact_path_instance], ids=["partial", "exact"])
def test_row_chunks_leave_the_solve_unchanged(monkeypatch, instance):
    # One row per chunk and one slice per block, against one chunk of all rows.
    _, x = instance()
    whole = solve(x)
    monkeypatch.setattr(core, "BLOCK_BYTES", 1)
    chunked = solve(x)
    assert chunked.iters == whole.iters and chunked.residual_history == whole.residual_history
    assert (chunked.svd_certified, chunked.svd_fallbacks) == (whole.svd_certified, whole.svd_fallbacks)
    assert chunked.l_hat.tobytes() == whole.l_hat.tobytes()
    assert chunked.e_hat.tobytes() == whole.e_hat.tobytes()


def test_one_sweep_per_iteration(monkeypatch):
    # F forward transform, I inverse transform, T thresholding. X is transformed
    # once; then each iteration thresholds, and each chunk of rows transforms its
    # rows back and the next X - E - Y / mu of those rows forward.
    calls = []

    def spy(letter, fn):
        def called(*args, **kwargs):
            calls.append(letter)
            return fn(*args, **kwargs)
        return called

    for name, letter in [("half_spectrum", "F"), ("from_half_spectrum", "I"), ("half_svt", "T")]:
        monkeypatch.setattr(solver, name, spy(letter, getattr(solver, name)))
    monkeypatch.setattr(core, "BLOCK_BYTES", 2 * 5 * 4 * 8)  # two rows of a 6x5x4 tensor: three chunks
    x = np.random.default_rng(0).standard_normal((6, 5, 4))
    sol = solve(x, SolverConfig(eps=1e-300, max_iters=2))
    assert sol.iters == 2 and not sol.converged
    assert "".join(calls) == "F" + "TIFIFIF" * 2


THREADS_CHILD = """
import json, sys
import numpy as np
from tubalkit.solver import solve
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli
x = gen_low_tubal_rank(100, 100, 10, 5, seed=5) + gen_sparse_bernoulli(100, 100, 10, 0.05, "rho", seed=6)
sol = solve(x)
np.save(sys.argv[1], np.stack([sol.l_hat, sol.e_hat]))
print(json.dumps([sol.iters, sol.svd_certified, sol.svd_fallbacks]))
"""


def test_solve_agrees_across_blas_thread_counts(tmp_path):
    # Reports are byte-identical only under one BLAS library and thread count:
    # BLAS on more threads may sum in another order. Equal iterations and counts
    # are a measured property of this instance (65 iterations, 387/3 at 1 and 2
    # threads under OpenBLAS), not a guarantee: rounding can flip a certificate,
    # fit or stop decision near its threshold. The outputs agree to rounding.
    # Each child gets its thread count in its environment; the library reads none.
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}.npy"
        child = subprocess.run([sys.executable, "-c", THREADS_CHILD, str(out)], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        runs.append((json.loads(child.stdout), np.load(out)))
    (counts_1, (l_1, e_1)), (counts_2, (l_2, e_2)) = runs
    assert counts_1 == counts_2
    assert fro_norm(l_2 - l_1) <= 1e-12 * fro_norm(l_1)
    assert fro_norm(e_2 - e_1) <= 1e-12 * fro_norm(e_1)
