"""Proximal operators: soft threshold and tensor singular value thresholding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalkit import solver
from tubalkit.algebra import ctranspose, tprod
from tubalkit.core import fro_norm, from_half_spectrum, l1_norm
from tubalkit.decomposition import skinny_tsvd, tsvd
from tubalkit.errors import NumericalFailure
from tubalkit.norms import check_subgradient, spectral_norm, tnn
from tubalkit.prox import OVERSAMPLE, PARTIAL_SVD_FRACTION, WarmStart, soft_threshold, tsvt
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli


def svt_objective(x, y, tau):
    return tau * tnn(x) + 0.5 * fro_norm(x - y) ** 2


# ── soft threshold ───────────────────────────────────────────────────────────


def test_soft_threshold_zero_kappa_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3, 2))
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_closed_form():
    x = np.zeros((1, 3, 1))
    x[0, :, 0] = [2.0, -0.5, 1.0]
    out = soft_threshold(x, 1.0)
    assert np.array_equal(out[0, :, 0], [1.0, 0.0, 0.0])


def test_soft_threshold_sampled_optimality():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 3, 2))
    kappa = 0.7
    out = soft_threshold(x, kappa)
    best = kappa * l1_norm(out) + 0.5 * fro_norm(out - x) ** 2
    for _ in range(100):
        delta = rng.normal(size=x.shape) * 0.05
        trial = out + delta
        assert best <= kappa * l1_norm(trial) + 0.5 * fro_norm(trial - x) ** 2 + 1e-12


def test_soft_threshold_rejects_negative():
    for kappa in (-0.1, np.nan):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros((1, 1, 1)), kappa)


# ── tsvt ─────────────────────────────────────────────────────────────────────


def test_tsvt_zero_tau_is_identity():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(4, 3, 5))
    assert fro_norm(tsvt(y, 0.0) - y) <= 1e-10 * fro_norm(y)


def test_tsvt_full_shrinkage_gives_zero():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(3, 4, 4))
    out = tsvt(y, spectral_norm(y) + 1e-9)
    assert np.all(out == 0.0)


def test_tsvt_single_slice_matches_matrix_svt():
    # y built with known singular values (3, 1); threshold 2 keeps (1, 0).
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    s = np.zeros((4, 3))
    s[0, 0], s[1, 1] = 3.0, 1.0
    y = (u @ s @ v.T)[:, :, None]
    out = tsvt(y, 2.0)
    expected = (u @ (np.maximum(s - 2.0, 0.0)) @ v.T)
    assert np.allclose(out[:, :, 0], expected, atol=1e-12)
    sv = np.linalg.svd(out[:, :, 0], compute_uv=False)
    assert np.allclose(sv, [1.0, 0.0, 0.0], atol=1e-12)


def test_tsvt_prox_optimality_sampled():
    rng = np.random.default_rng(5)
    y = rng.normal(size=(4, 4, 3))
    for tau in (0.1, 1.0, 10.0):
        out = tsvt(y, tau)
        best = svt_objective(out, y, tau)
        for _ in range(50):
            delta = rng.normal(size=y.shape)
            delta *= rng.choice([1e-3, 1e-1]) / fro_norm(delta)
            assert best <= svt_objective(out + delta, y, tau) + 1e-12


def test_tsvt_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y1 = rng.normal(size=(3, 4, 4))
        y2 = rng.normal(size=(3, 4, 4))
        lhs = fro_norm(tsvt(y1, 0.5) - tsvt(y2, 0.5))
        assert lhs <= fro_norm(y1 - y2) + 1e-12


# Sizes large enough that complex and real BLAS products of the same real
# matrices can round differently (they do with OpenBLAS), so this also pins
# that the real slice is computed in real arithmetic.
@pytest.mark.parametrize("shape", [(100, 100), (150, 130), (100, 130)])
def test_tsvt_single_slice_is_matrix_svt_bit_for_bit(shape):
    m = np.random.default_rng(8).normal(size=shape)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    for tau in (0.0, 0.5, 2.0):
        expected = (u * np.maximum(s - tau, 0.0)) @ vh
        assert np.array_equal(tsvt(m[:, :, None], tau)[:, :, 0], expected)


def test_tsvt_zero_tau_is_identity_for_odd_and_even_n3():
    # Even n3 has a second self-conjugate (real) slice besides slice 0.
    rng = np.random.default_rng(7)
    for n3 in (2, 3, 4, 5):
        y = rng.normal(size=(4, 3, n3))
        assert fro_norm(tsvt(y, 0.0) - y) <= 1e-10 * fro_norm(y)


def spectrum_instance(n1, n2, n3, r, tau, seed):
    """u * s * v^T with random orthogonal u, v whose Fourier slices each have
    r singular values in (1.1 tau, 3 tau) and the rest below 0.9 tau, so that
    tsvt at tau keeps exactly r in every slice."""
    rng = np.random.default_rng(seed)
    h, k = n3 // 2 + 1, min(n1, n2)
    kept = np.arange(k) < r
    sbar = np.zeros((h, n1, n2), dtype=complex)
    sbar[:, np.arange(k), np.arange(k)] = tau * np.where(kept, 1.1 + 1.9 * rng.random((h, k)),
                                                         0.9 * rng.random((h, k)))
    u = tsvd(rng.normal(size=(n1, n1, n3))).u
    v = tsvd(rng.normal(size=(n2, n2, n3))).u
    return tprod(tprod(u, from_half_spectrum(sbar, n3)), ctranspose(v))


small_dims = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
taus = st.floats(0.01, 100.0)
seeds = st.integers(0, 2**32 - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(dims=small_dims, tau=taus, seed=seeds, data=st.data())
def test_tsvt_residual_is_a_tnn_subgradient(dims, tau, seed, data):
    # Prox optimality: (y - x) / tau is in the TNN subdifferential at
    # x = tsvt(y, tau), that is u * v^T + w with w orthogonal to the skinny
    # factors of x and ||w|| <= 1.
    r = data.draw(st.integers(0, min(dims[:2])))
    y = spectrum_instance(*dims, r, tau, seed)
    x = tsvt(y, tau)
    fac = skinny_tsvd(x)
    assert fac.u.shape[1] == r
    w = (y - x) / tau - tprod(fac.u, ctranspose(fac.v))
    assert check_subgradient(x, w)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(dims=small_dims, tau=taus, seed=seeds)
def test_tsvt_commutes_with_ctranspose(dims, tau, seed):
    y = np.random.default_rng(seed).normal(size=dims)
    out = tsvt(ctranspose(y), tau)
    assert fro_norm(out - ctranspose(tsvt(y, tau))) <= 1e-12 * max(fro_norm(out), tau)


def test_tsvt_rejects_negative_tau():
    for tau in (-1.0, np.nan):
        with pytest.raises(ValueError):
            tsvt(np.zeros((2, 2, 2)), tau)


# ── tsvt with a warm start (certified partial SVD) ──────────────────────────


def assert_matches_exact(out, y, tau):
    exact = tsvt(y, tau)
    assert fro_norm(out - exact) <= 1e-10 * fro_norm(exact)


# The narrowest slices that keep the partial path open up to a kept rank of 3.
WIDE = PARTIAL_SVD_FRACTION * (3 + OVERSAMPLE)


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
@pytest.mark.parametrize("shape", [(WIDE, WIDE), (WIDE + 32, WIDE), (WIDE, WIDE + 32)],
                         ids=["square", "tall", "wide"])
def test_warm_tsvt_matches_exact(shape, n3):
    rng = np.random.default_rng(n3)
    y = gen_low_tubal_rank(*shape, n3, 3, seed=n3) + 1e-2 * rng.normal(size=(*shape, n3))
    # Ten more strong directions in Fourier slice 1 alone (slice 0 when
    # n3 = 1), more than the basis holds: that slice must fail its
    # certificate while the others pass.
    bump = rng.normal(size=(shape[0], 10)) @ rng.normal(size=(10, shape[1])) / np.sqrt(np.prod(shape))
    y += 30 * bump[:, :, None] * np.cos(2 * np.pi * np.arange(n3) / n3)
    warm = WarmStart()
    # Decreasing thresholds as in a solve; the first keeps nothing.
    for tau in (2 * spectral_norm(y), 20.0, 8.0, 5.0, 1.0, 1.0, 0.5):
        assert_matches_exact(tsvt(y, tau, warm), y, tau)
    assert np.all(tsvt(y, 2 * spectral_norm(y), warm) == 0.0)
    assert warm.certified > 0 and warm.fallbacks > 0


@pytest.mark.parametrize("n3", [1, 4])
def test_warm_tsvt_certificate_sees_values_beyond_the_basis(n3):
    # Slice 1 (slice 0 when n3 = 1) has OVERSAMPLE well separated singular
    # values, which the first call's OVERSAMPLE columns capture to full
    # accuracy, and three more above tau that only the bound on the rest can
    # reveal.
    rng = np.random.default_rng(10)
    sv = [100 - 8 * i for i in range(OVERSAMPLE)] + [10, 10, 10]
    u = np.linalg.qr(rng.normal(size=(WIDE, len(sv))))[0]
    v = np.linalg.qr(rng.normal(size=(WIDE, len(sv))))[0]
    m = (u * sv) @ v.T
    y = m[:, :, None] * np.cos(2 * np.pi * np.arange(n3) / n3) + 1e-3 * rng.normal(size=(WIDE, WIDE, n3))
    warm = WarmStart()
    assert_matches_exact(tsvt(y, 5.0, warm), y, 5.0)
    assert warm.fallbacks == 1


def test_warm_tsvt_matches_exact_on_solver_iterates(monkeypatch):
    l0 = gen_low_tubal_rank(WIDE, WIDE, 10, 3, seed=3)
    e0 = gen_sparse_bernoulli(WIDE, WIDE, 10, 0.05, "rho", seed=4)
    calls = []

    def checked(y, tau, warm):
        out = tsvt(y, tau, warm)
        assert_matches_exact(out, y, tau)
        calls.append(tau)
        return out

    monkeypatch.setattr(solver, "tsvt", checked)
    sol = solver.solve(l0 + e0)
    assert sol.converged and len(calls) == sol.iters
    assert sol.svd_certified > 0


@pytest.mark.parametrize("warm", [False, True], ids=["exact", "warm"])
def test_tsvt_nan_input_is_a_numerical_failure(warm):
    y = np.random.default_rng(9).normal(size=(WIDE, WIDE, 4))
    y[3, 4, 1] = np.nan
    with pytest.raises(NumericalFailure):
        tsvt(y, 1.0, WarmStart() if warm else None)
