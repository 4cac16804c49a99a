"""ADMM solver: convergence, determinism, defaults, matrix reduction."""

import math

import numpy as np
import pytest

from tubalkit import core, prox, solver
from tubalkit.core import fro_norm, linf_norm
from tubalkit.decomposition import tubal_rank
from tubalkit.solver import Solution, SolverConfig, default_lambda, solve
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli


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


def test_solution_reports_the_lambda_used():
    x = np.zeros((4, 6, 3))
    assert solve(x).lam == default_lambda(4, 6, 3)
    assert solve(x, SolverConfig(lam=0.3)).lam == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu0=1.0, mu_max=0.5)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    # NaN fails every comparison, so it must not slip past a `<=` check.
    for field in ("lam", "rho", "eps"):
        with pytest.raises(ValueError):
            SolverConfig(**{field: float("nan")})
    # An infinite eps would meet the stopping test at the first iteration.
    with pytest.raises(ValueError):
        SolverConfig(eps=float("inf"))
    # mu follows min(rho * mu, mu_max), which an infinite cap would carry to inf.
    with pytest.raises(ValueError):
        SolverConfig(mu_max=math.inf)


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


def test_mu_schedule_does_not_overflow():
    # 5**k overflows a float at k = 442; mu must settle at mu_max instead.
    l0 = gen_low_tubal_rank(10, 10, 4, 2, seed=1)
    e0 = gen_sparse_bernoulli(10, 10, 4, 0.05, "rho", seed=2)
    sol = solve(l0 + e0, SolverConfig(rho=5, eps=1e-300))
    assert not sol.converged
    assert sol.iters == 500


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
    n = prox.PARTIAL_SVD_FRACTION * (3 + prox.OVERSAMPLE)
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
        m.setattr(solver, "tsvt", lambda y, tau, warm: prox.tsvt(y, tau))
        exact = solve(x)
    monkeypatch.setattr(core, "_certified", lambda a, uk, tau: np.zeros(len(a), dtype=bool))
    sol = solve(x)
    assert sol.svd_certified == 0 and sol.svd_fallbacks > 0
    assert sol.iters == exact.iters
    assert sol.l_hat.tobytes() == exact.l_hat.tobytes()
    assert sol.e_hat.tobytes() == exact.e_hat.tobytes()
