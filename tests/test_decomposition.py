"""t-SVD factorization, ranks, and best rank-k approximation."""

import numpy as np
import pytest

import tubalkit.decomposition as decomposition
from tubalkit.algebra import ctranspose, identity_tensor, is_fdiagonal, is_orthogonal, tprod
from tubalkit.core import fro_norm
from tubalkit.decomposition import (
    average_rank,
    best_rank_k,
    singular_values,
    skinny_tsvd,
    slice_svd_count,
    tsvd,
    tubal_rank,
)
from tubalkit.errors import RankOutOfRange
from tubalkit.norms import tnn


def reconstruct(fac):
    return tprod(fac.u, tprod(fac.s, ctranspose(fac.v)))


def rel_err(x, y):
    return np.linalg.norm((x - y).ravel()) / max(np.linalg.norm(y.ravel()), 1e-300)


def rank_r_tensor(n1, n2, n3, r, seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n1, r, n3))
    q = rng.normal(size=(n2, r, n3))
    return tprod(p, ctranspose(q))


# ── full t-SVD ───────────────────────────────────────────────────────────────


def test_tsvd_of_identity():
    eye = identity_tensor(3, 4)
    fac = tsvd(eye)
    assert np.allclose(fac.s, eye, atol=1e-12)
    assert rel_err(reconstruct(fac), eye) <= 1e-12


def test_tsvd_single_slice_reduces_to_matrix_svd():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3, 1))
    fac = tsvd(a)
    expected = np.linalg.svd(a[:, :, 0], compute_uv=False)
    assert np.allclose(np.diag(fac.s[:, :, 0])[:3], expected, atol=1e-12)


def test_tsvd_real_and_accurate():
    # The factors come from the inverse real FFT, so they are real by
    # construction; an SVD that left imaginary mass on a self-conjugate
    # slice would lose it there and fail the reconstruction.
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 3, 5))
    fac = tsvd(a)
    assert rel_err(reconstruct(fac), a) <= 1e-10


@pytest.mark.parametrize("shape", [(4, 4, 3), (5, 3, 4), (3, 5, 6), (2, 2, 1), (6, 2, 7)])
def test_tsvd_invariants_across_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    fac = tsvd(a)
    assert fac.kind == "full"
    assert fac.u.dtype == np.float64 and fac.v.dtype == np.float64
    assert rel_err(reconstruct(fac), a) <= 1e-8
    assert is_orthogonal(fac.u, tol=1e-8)
    assert is_orthogonal(fac.v, tol=1e-8)
    assert is_fdiagonal(fac.s, tol=1e-8)
    diag = np.diag(fac.s[:, :, 0])
    assert np.all(diag >= -1e-12)
    assert np.all(np.diff(diag) <= 1e-12)


def test_tsvd_slice_svd_workload():
    for n3 in (1, 2, 5, 6):
        a = np.random.default_rng(n3).normal(size=(3, 4, n3))
        before = slice_svd_count()
        tsvd(a)
        assert slice_svd_count() - before == n3 // 2 + 1


# ── skinny t-SVD ─────────────────────────────────────────────────────────────


def test_skinny_width_matches_construction_rank():
    a = rank_r_tensor(5, 5, 4, 2, seed=2)
    fac = skinny_tsvd(a)
    assert fac.kind == "skinny"
    assert fac.u.shape == (5, 2, 4)
    assert fac.s.shape == (2, 2, 4)
    assert fac.v.shape == (5, 2, 4)
    assert rel_err(reconstruct(fac), a) <= 1e-8
    eye2 = identity_tensor(2, 4)
    assert fro_norm(tprod(ctranspose(fac.u), fac.u) - eye2) <= 1e-8
    assert fro_norm(tprod(ctranspose(fac.v), fac.v) - eye2) <= 1e-8


def test_skinny_zero_tensor():
    fac = skinny_tsvd(np.zeros((3, 4, 2)))
    assert fac.u.shape == (3, 0, 2)
    assert fac.v.shape == (4, 0, 2)
    assert np.all(reconstruct(fac) == 0.0)


def test_skinny_full_rank():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4, 3))
    assert skinny_tsvd(a).u.shape[1] == 4


# ── singular values and ranks ────────────────────────────────────────────────


def test_singular_values_identity():
    assert np.allclose(singular_values(identity_tensor(4, 5)), np.ones(4))


def test_singular_values_single_slice():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(4, 3, 1))
    assert np.allclose(singular_values(a), np.linalg.svd(a[:, :, 0], compute_uv=False), atol=1e-12)


def test_singular_values_sum_is_tnn():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4, 3))
    total = float(np.sum(singular_values(a)))
    assert abs(total - tnn(a)) <= 1e-10 * total


def test_singular_values_nonincreasing():
    rng = np.random.default_rng(6)
    for shape in [(4, 4, 4), (5, 2, 3), (2, 5, 6)]:
        sv = singular_values(rng.normal(size=shape))
        assert np.all(sv >= 0.0)
        assert np.all(np.diff(sv) <= 1e-12)


def test_tubal_rank_of_product():
    a = rank_r_tensor(6, 6, 5, 3, seed=7)
    assert tubal_rank(a) == 3


def test_tubal_rank_edge_cases():
    assert tubal_rank(np.zeros((3, 3, 2))) == 0
    assert tubal_rank(identity_tensor(4, 3)) == 4


def test_average_rank_identity_and_zero():
    assert average_rank(identity_tensor(4, 3)) == 4.0
    assert average_rank(np.zeros((3, 3, 2))) == 0.0


def test_average_rank_bounded_by_tubal_rank():
    a = rank_r_tensor(5, 5, 4, 2, seed=8)
    avg = average_rank(a)
    assert 0.0 < avg <= 2.0
    assert avg <= tubal_rank(a)
    rng = np.random.default_rng(9)
    for shape in [(3, 3, 4), (4, 2, 5)]:
        b = rng.normal(size=shape)
        assert average_rank(b) <= tubal_rank(b) + 1e-12


# ── best rank-k ──────────────────────────────────────────────────────────────


def test_best_rank_k_exact_at_full_rank():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 3, 5))
    assert rel_err(best_rank_k(a, 3), a) <= 1e-10


def test_best_rank_zero():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3, 2))
    assert np.all(best_rank_k(a, 0) == 0.0)


def test_best_rank_k_error_matches_discarded_spectrum():
    # Independent oracle: per-slice SVDs of the raw mode-3 spectrum.
    a = rank_r_tensor(5, 4, 3, 2, seed=12)
    a1 = best_rank_k(a, 1)
    abar = np.fft.fft(a, axis=2)
    discarded = 0.0
    for j in range(3):
        s = np.linalg.svd(abar[:, :, j], compute_uv=False)
        discarded += float(np.sum(s[1:] ** 2))
    expected = np.sqrt(discarded) / np.sqrt(3)
    assert abs(fro_norm(a - a1) - expected) <= 1e-10 * max(expected, 1.0)


def test_best_rank_k_beats_sampled_competitors():
    a = rank_r_tensor(5, 5, 4, 3, seed=13)
    ak = best_rank_k(a, 2)
    assert tubal_rank(ak, 1e-8) <= 2
    best = fro_norm(a - ak)
    for seed in range(20):
        b = rank_r_tensor(5, 5, 4, 2, seed=100 + seed)
        assert best <= fro_norm(a - b) + 1e-8


def test_best_rank_k_out_of_range():
    a = np.zeros((3, 4, 2))
    with pytest.raises(RankOutOfRange):
        best_rank_k(a, 4)
    with pytest.raises(RankOutOfRange):
        best_rank_k(a, -1)
