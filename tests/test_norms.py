"""Spectral and nuclear norms against dense oracles; incoherence and
subgradient checks."""

import numpy as np
import pytest

from tubalkit.algebra import ctranspose, identity_tensor, tprod
from tubalkit.core import fro_norm, inner
from tubalkit.decomposition import average_rank, skinny_tsvd, tsvd
from tubalkit.errors import ShapeMismatch, ZeroTensor
from tubalkit.norms import check_subgradient, incoherence, spectral_norm, tnn

from oracles import bcirc


def rank_r_tensor(n1, n2, n3, r, seed):
    rng = np.random.default_rng(seed)
    return tprod(rng.normal(size=(n1, r, n3)), ctranspose(rng.normal(size=(n2, r, n3))))


# ── spectral norm ────────────────────────────────────────────────────────────


def test_spectral_norm_identity():
    assert np.isclose(spectral_norm(identity_tensor(3, 4)), 1.0)


def test_spectral_norm_single_slice():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 1))
    assert np.isclose(spectral_norm(a), np.linalg.norm(a[:, :, 0], 2), atol=1e-12)


def test_spectral_norm_matches_bcirc():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3, 3))
    oracle = np.linalg.svd(bcirc(a), compute_uv=False).max()
    assert abs(spectral_norm(a) - oracle) <= 1e-10 * oracle


# ── nuclear norm ─────────────────────────────────────────────────────────────


def test_tnn_identity_exact():
    assert tnn(identity_tensor(5, 4)) == 5.0


def test_tnn_single_slice():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 4, 1))
    oracle = np.linalg.svd(a[:, :, 0], compute_uv=False).sum()
    assert abs(tnn(a) - oracle) <= 1e-12 * oracle


def test_tnn_matches_bcirc():
    rng = np.random.default_rng(3)
    for shape in [(3, 3, 3), (2, 3, 4), (3, 2, 2), (1, 1, 4)]:
        a = rng.normal(size=shape)
        oracle = np.linalg.svd(bcirc(a), compute_uv=False).sum() / shape[2]
        assert abs(tnn(a) - oracle) <= 1e-10 * oracle


def test_norm_axioms():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.normal(size=(3, 4, 3))
        b = rng.normal(size=(3, 4, 3))
        t = rng.normal()
        for norm in (tnn, spectral_norm):
            assert norm(a + b) <= norm(a) + norm(b) + 1e-10
            assert abs(norm(t * a) - abs(t) * norm(a)) <= 1e-10 * max(norm(a), 1.0)


# ── duality and envelope ─────────────────────────────────────────────────────


def test_duality_bound_sampled():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3, 4))
    bound = tnn(a)
    for _ in range(50):
        b = rng.normal(size=(3, 3, 4))
        b /= spectral_norm(b)
        assert inner(a, b) <= bound + 1e-8


def test_duality_equality_at_polar():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 3, 5))
    fac = skinny_tsvd(a)
    b = tprod(fac.u, ctranspose(fac.v))
    assert abs(inner(a, b) - tnn(a)) <= 1e-8 * tnn(a)
    assert spectral_norm(b) <= 1.0 + 1e-10


def test_envelope_minorizes_average_rank():
    rng = np.random.default_rng(7)
    for seed in range(5):
        a = rng.normal(size=(4, 4, 3))
        a /= spectral_norm(a)  # unit spectral ball
        assert tnn(a) <= average_rank(a) + 1e-8


# ── incoherence ──────────────────────────────────────────────────────────────


def test_incoherence_identity():
    n, n3 = 4, 5
    rep = incoherence(identity_tensor(n, n3))
    assert rep.r == n
    assert np.isclose(rep.mu_u, n3)
    assert np.isclose(rep.mu_v, n3)


def test_incoherence_random_low_rank_is_mild():
    n, n3, r = 20, 5, 2
    rep = incoherence(rank_r_tensor(n, n, n3, r, seed=8))
    cap = n * n3 / r
    assert 0.0 < rep.mu_u < cap
    assert 0.0 < rep.mu_v < cap
    assert np.isfinite(rep.mu_joint)


def test_incoherence_one_sparse_is_pathological():
    n1, n2, n3 = 4, 5, 3
    x = np.zeros((n1, n2, n3))
    x[0, 0, 0] = 1.0
    rep = incoherence(x)
    assert rep.r == 1
    # a single spike aligns fully with the basis: joint parameter at its scale cap
    assert np.isclose(rep.mu_joint, n1 * n2 * n3**2)


def test_incoherence_matches_direct_definition():
    # Cross-check the Fourier-domain row masses against literal t-products
    # with basis column tensors.
    a = rank_r_tensor(5, 4, 3, 2, seed=9)
    rep = incoherence(a)
    fac = skinny_tsvd(a)
    n1, n3, r = 5, 3, fac.u.shape[1]
    worst = 0.0
    for i in range(n1):
        e = np.zeros((n1, 1, n3))
        e[i, 0, 0] = 1.0
        worst = max(worst, fro_norm(tprod(ctranspose(fac.u), e)) ** 2)
    assert np.isclose(rep.mu_u, n1 * n3 / r * worst)


def test_incoherence_zero_tensor():
    with pytest.raises(ZeroTensor):
        incoherence(np.zeros((3, 3, 2)))


# ── subgradient verifier ─────────────────────────────────────────────────────


def complement_direction(a, scale, seed):
    """An admissible w: spans the orthogonal complement of the skinny factors."""
    fac_full = tsvd(a)
    r = skinny_tsvd(a).u.shape[1]
    u2 = fac_full.u[:, r:, :]
    v2 = fac_full.v[:, r:, :]
    rng = np.random.default_rng(seed)
    core = rng.normal(size=(u2.shape[1], v2.shape[1], a.shape[2]))
    w = tprod(u2, tprod(core, ctranspose(v2)))
    return w * (scale / spectral_norm(w))


def test_subgradient_zero_w():
    rng = np.random.default_rng(10)
    a = rank_r_tensor(4, 4, 3, 2, seed=11)
    assert check_subgradient(a, np.zeros_like(a))


def test_subgradient_rejects_column_space_w():
    a = rank_r_tensor(4, 4, 3, 2, seed=12)
    fac = skinny_tsvd(a)
    w = 0.5 * tprod(fac.u, ctranspose(fac.v))
    assert not check_subgradient(a, w)


def test_subgradient_accepts_complement_and_satisfies_inequality():
    a = rank_r_tensor(5, 4, 3, 2, seed=13)
    w = complement_direction(a, 0.9, seed=14)
    assert check_subgradient(a, w)
    fac = skinny_tsvd(a)
    g = tprod(fac.u, ctranspose(fac.v)) + w
    rng = np.random.default_rng(15)
    base = tnn(a)
    for _ in range(100):
        b = rng.normal(size=a.shape)
        assert tnn(b) >= base + inner(g, b - a) - 1e-8


def test_subgradient_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        check_subgradient(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))
