"""Acceptance suite.

Each test exercises one exit criterion end to end at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in captured
output). The large recovery and phase-transition criteria run the full solver
at experiment scale; expect several minutes total.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from tubalkit import io
from tubalkit.algebra import ctranspose, identity_tensor, is_orthogonal, tprod
from tubalkit.cli import main
from tubalkit.core import fro_norm
from tubalkit.decomposition import singular_values, slice_svd_count, tsvd, tubal_rank
from tubalkit.norms import spectral_norm, tnn
from tubalkit.prox import tsvt
from tubalkit.solver import SolverConfig, solve
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli, phase_grid

from oracles import bcirc, dft3, fold, unfold
from test_solver import matrix_rpca_admm


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}", flush=True)
        raise
    print(f"[PASS] criterion {num}: {desc}", flush=True)


def rel_err(x, y):
    return fro_norm(x - y) / fro_norm(y)


# ── 1. quantitative exact recovery at experiment scale ───────────────────────


@pytest.mark.parametrize(
    "r,m,seed",
    [(5, 50_000, 101), (5, 100_000, 102), (10, 100_000, 103), (10, 200_000, 104)],
    ids=["r5_m5e4", "r5_m1e5", "r10_m1e5", "r10_m2e5"],
)
def test_criterion_1_exact_recovery_table(r, m, seed):
    n = n3 = 100
    with criterion(1, f"exact recovery n={n} r={r} m={m}"):
        l0 = gen_low_tubal_rank(n, n, n3, r, seed=seed)
        e0 = gen_sparse_bernoulli(n, n, n3, m, "count", seed=seed + 1)
        sol = solve(l0 + e0, SolverConfig(lam=1.0 / math.sqrt(n * n3)))
        assert sol.converged
        assert tubal_rank(sol.l_hat, 1e-6) == r
        assert rel_err(sol.l_hat, l0) <= 1e-5
        assert rel_err(sol.e_hat, e0) <= 1e-8
        nnz = int(np.count_nonzero(sol.e_hat))
        assert abs(nnz - m) <= 0.01 * m


# ── 2. phase transition, desk scale ──────────────────────────────────────────


def test_criterion_2_phase_transition():
    with criterion(2, "phase transition 5x5 grid n=50 n3=20"):
        fracs = [0.05, 0.15, 0.25, 0.35, 0.45]
        grid = phase_grid(50, 20, fracs, fracs, trials=3, success_tol=1e-3, seed=2024)
        assert grid[0][0].successes == 3
        assert grid[4][4].successes == 0
        assert grid[0][0].successes >= grid[4][4].successes


# ── 3. algebra oracle suite ──────────────────────────────────────────────────


def test_criterion_3_algebra_oracles():
    with criterion(3, "t-product/bcirc/spectrum identities over shape sweep"):
        rng = np.random.default_rng(3)
        for n3 in range(1, 7):
            f = np.fft.fft(np.eye(n3), axis=0)
            finv = np.conj(f) / n3
            for n1 in range(1, 5):
                for n2 in range(1, 5):
                    a = rng.normal(size=(n1, n2, n3))
                    # block diagonalization of the circulant embedding
                    lhs = np.kron(f, np.eye(n1)) @ bcirc(a) @ np.kron(finv, np.eye(n2))
                    rhs_bd = np.zeros_like(lhs)
                    abar = dft3(a)
                    for k in range(n3):
                        rhs_bd[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = abar[:, :, k]
                    assert np.linalg.norm(lhs - rhs_bd) <= 1e-10 * max(np.linalg.norm(rhs_bd), 1.0)
                    # norm transfer to the Fourier domain
                    assert abs(fro_norm(a) - np.linalg.norm(abar.ravel()) / np.sqrt(n3)) <= 1e-10 * fro_norm(a)
                    # fast product equals the definition-level product
                    for l in range(1, 5):
                        b = rng.normal(size=(n2, l, n3))
                        fast = tprod(a, b)
                        slow = fold(bcirc(a) @ unfold(b), n3)
                        assert fro_norm(fast - slow) <= 1e-10 * max(fro_norm(slow), 1.0)


# ── 4. t-SVD suite ───────────────────────────────────────────────────────────


def test_criterion_4_tsvd_suite():
    with criterion(4, "t-SVD reconstruction/orthogonality/workload"):
        rng = np.random.default_rng(4)
        for shape in [(4, 4, 4), (5, 3, 5), (3, 5, 6), (4, 2, 1), (2, 4, 7)]:
            a = rng.normal(size=shape)
            before = slice_svd_count()
            fac = tsvd(a)
            assert slice_svd_count() - before == shape[2] // 2 + 1
            rec = tprod(fac.u, tprod(fac.s, ctranspose(fac.v)))
            assert rel_err(rec, a) <= 1e-8
            assert is_orthogonal(fac.u, tol=1e-8)
            assert is_orthogonal(fac.v, tol=1e-8)
            diag = np.diag(fac.s[:, :, 0])
            assert np.all(diag >= -1e-12) and np.all(np.diff(diag) <= 1e-12)
        m = rng.normal(size=(6, 4))
        sv = singular_values(m[:, :, None])
        assert np.max(np.abs(sv - np.linalg.svd(m, compute_uv=False))) <= 1e-12


# ── 5. norm suite ────────────────────────────────────────────────────────────


def test_criterion_5_norm_suite():
    with criterion(5, "norms vs dense oracles, duality bound, identity value"):
        rng = np.random.default_rng(5)
        for shape in [(2, 2, 2), (3, 3, 4), (3, 2, 3), (1, 3, 4), (3, 3, 3)]:
            a = rng.normal(size=shape)
            svals = np.linalg.svd(bcirc(a), compute_uv=False)
            assert abs(tnn(a) - svals.sum() / shape[2]) <= 1e-10 * max(tnn(a), 1.0)
            assert abs(spectral_norm(a) - svals.max()) <= 1e-10 * svals.max()
        a = rng.normal(size=(3, 3, 4))
        bound = tnn(a) + 1e-8
        for _ in range(1000):
            b = rng.normal(size=(3, 3, 4))
            b /= spectral_norm(b)
            assert float(np.vdot(a, b)) <= bound
        for n, n3 in [(3, 4), (5, 7), (2, 1)]:
            assert tnn(identity_tensor(n, n3)) == float(n)


# ── 6. prox suite ────────────────────────────────────────────────────────────


def test_criterion_6_prox_suite():
    with criterion(6, "t-SVT optimality, nonexpansiveness, reductions"):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(5, 4, 4))
        for tau in (0.1, 1.0, 10.0):
            out = tsvt(y, tau)
            best = tau * tnn(out) + 0.5 * fro_norm(out - y) ** 2
            for i in range(200):
                delta = rng.normal(size=y.shape)
                delta *= (1e-3 if i % 2 else 1e-1) / fro_norm(delta)
                trial = out + delta
                obj = tau * tnn(trial) + 0.5 * fro_norm(trial - y) ** 2
                assert best <= obj + 1e-12
        for _ in range(100):
            y1 = rng.normal(size=(4, 4, 3))
            y2 = rng.normal(size=(4, 4, 3))
            assert fro_norm(tsvt(y1, 0.7) - tsvt(y2, 0.7)) <= fro_norm(y1 - y2) + 1e-12
        assert fro_norm(tsvt(y, 0.0) - y) <= 1e-10 * fro_norm(y)
        assert np.all(tsvt(y, spectral_norm(y) + 1e-12) == 0.0)
        m = rng.normal(size=(5, 5))
        u, s, vh = np.linalg.svd(m)
        expected = (u * np.maximum(s - 0.8, 0.0)) @ vh
        assert np.allclose(tsvt(m[:, :, None], 0.8)[:, :, 0], expected, atol=1e-12)


# ── 7. matrix reduction ──────────────────────────────────────────────────────


def test_criterion_7_matrix_rpca_reduction():
    with criterion(7, "n3=1 solve equals independently coded matrix ADMM"):
        rng = np.random.default_rng(7)
        low0 = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 50))
        mask = rng.random(size=(50, 50)) < 0.05
        sparse0 = np.where(mask, rng.choice([-1.0, 1.0], size=(50, 50)), 0.0)
        x = low0 + sparse0
        lam = 1.0 / math.sqrt(50)
        sol = solve(x[:, :, None], SolverConfig(lam=lam))
        low_ref, sparse_ref = matrix_rpca_admm(x, lam)
        assert fro_norm(sol.l_hat[:, :, 0] - low_ref) <= 1e-6 * fro_norm(low_ref)
        assert fro_norm(sol.e_hat[:, :, 0] - sparse_ref) <= 1e-6 * max(fro_norm(sparse_ref), 1.0)
        assert rel_err(sol.l_hat[:, :, 0], low0) <= 1e-5


# ── 8. image recovery property ───────────────────────────────────────────────


def test_criterion_8_image_recovery():
    with criterion(8, "recovered PSNR beats corrupted PSNR by >= 10 dB"):
        base = gen_low_tubal_rank(64, 64, 3, 10, seed=8)
        lo, hi = base.min(), base.max()
        original = io.image_to_tensor(io.tensor_to_image((base - lo) / (hi - lo)))
        corrupted, _ = io.corrupt_pixels(original, 0.10, seed=9)
        lam = 1.0 / math.sqrt(3 * 64)
        sol = solve(corrupted, SolverConfig(lam=lam))
        recovered = io.image_to_tensor(io.tensor_to_image(sol.l_hat))
        gain = io.psnr(original, recovered) - io.psnr(original, corrupted)
        assert gain >= 10.0


# ── 9. determinism of seeded commands ────────────────────────────────────────


def test_criterion_9_seeded_reports_are_byte_identical(tmp_path):
    with criterion(9, "seeded CLI runs produce byte-identical reports"):
        synth_args = [
            "synth", "--n1", "20", "--n2", "20", "--n3", "5",
            "--rank", "1", "--sparsity-count", "40", "--seed", "77",
        ]
        phase_args = [
            "phase", "--n", "20", "--n3", "5",
            "--r-grid", "0.05:0.1:0.15", "--rho-grid", "0.05:0.1:0.15",
            "--trials", "1", "--seed", "77",
        ]
        base = gen_low_tubal_rank(24, 24, 3, 3, seed=10)
        lo, hi = base.min(), base.max()
        src = tmp_path / "img.ppm"
        src.write_bytes(io.tensor_to_image((base - lo) / (hi - lo)))
        image_args = [
            "image", "--input", str(src), "--corrupt", "0.1", "--seed", "77",
        ]
        for tag, args, extra in [
            ("synth", synth_args, lambda p: ["--report", str(p / "r.json")]),
            ("phase", phase_args, lambda p: ["--out", str(p / "g.csv")]),
            ("image", image_args, lambda p: ["--out", str(p / "o.ppm"), "--report", str(p / "r.json")]),
        ]:
            d1 = tmp_path / f"{tag}1"
            d2 = tmp_path / f"{tag}2"
            d1.mkdir()
            d2.mkdir()
            main(args + extra(d1))
            main(args + extra(d2))
            for f1 in sorted(d1.iterdir()):
                f2 = d2 / f1.name
                assert f1.read_bytes() == f2.read_bytes(), f"{tag}:{f1.name}"
