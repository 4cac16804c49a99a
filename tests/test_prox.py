"""Proximal operators: soft threshold and tensor singular value thresholding."""

import numpy as np
import pytest

from tubalkit.core import fro_norm, l1_norm
from tubalkit.norms import spectral_norm, tnn
from tubalkit.prox import soft_threshold, tsvt


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
    with pytest.raises(ValueError):
        soft_threshold(np.zeros((1, 1, 1)), -0.1)


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


def test_tsvt_rejects_negative_tau():
    with pytest.raises(ValueError):
        tsvt(np.zeros((2, 2, 2)), -1.0)
