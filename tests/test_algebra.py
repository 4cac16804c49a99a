"""t-product, conjugate transpose, identity, and structural predicates,
checked against the dense block-circulant oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubalkit.algebra import ctranspose, identity_tensor, is_fdiagonal, is_orthogonal, tprod
from tubalkit.core import fro_norm
from tubalkit.decomposition import tsvd
from tubalkit.errors import ShapeMismatch

from oracles import bcirc, dft3, fold, unfold


def tprod_oracle(a, b):
    """Definition-level t-product: fold the block circulant action."""
    return fold(bcirc(a) @ unfold(b), a.shape[2])


def rel_err(x, y):
    return np.linalg.norm((x - y).ravel()) / max(np.linalg.norm(y.ravel()), 1e-300)


# ── tprod ────────────────────────────────────────────────────────────────────


def test_tprod_single_slice_is_matmul():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 1))
    b = rng.normal(size=(4, 2, 1))
    assert np.array_equal(tprod(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0])


def test_tprod_identity_law():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3, 4))
    eye = identity_tensor(3, 4)
    assert rel_err(tprod(a, eye), a) <= 1e-10
    assert rel_err(tprod(eye, a), a) <= 1e-10


def test_tprod_matches_oracle_2x2x2():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2, 2))
    b = rng.normal(size=(2, 2, 2))
    assert rel_err(tprod(a, b), tprod_oracle(a, b)) <= 1e-10


def test_tprod_oracle_spot_shapes():
    rng = np.random.default_rng(3)
    for n1, n2, l, n3 in [(1, 1, 1, 1), (2, 3, 4, 5), (4, 1, 3, 6), (3, 4, 2, 2)]:
        a = rng.normal(size=(n1, n2, n3))
        b = rng.normal(size=(n2, l, n3))
        assert rel_err(tprod(a, b), tprod_oracle(a, b)) <= 1e-10


def test_tprod_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        tprod(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(ShapeMismatch):
        tprod(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))


def test_tprod_associative():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(4, 2, 5))
    c = rng.normal(size=(2, 3, 5))
    left = tprod(tprod(a, b), c)
    right = tprod(a, tprod(b, c))
    assert rel_err(left, right) <= 1e-9


def test_tprod_bilinear():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=(3, 2, 4))
    c = rng.normal(size=(3, 2, 4))
    assert rel_err(tprod(a, b + c), tprod(a, b) + tprod(a, c)) <= 1e-10


# ── ctranspose ───────────────────────────────────────────────────────────────


def test_ctranspose_slice_order():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 2, 4))
    at = ctranspose(a)
    assert np.array_equal(at[:, :, 0], a[:, :, 0].T)
    assert np.array_equal(at[:, :, 1], a[:, :, 3].T)
    assert np.array_equal(at[:, :, 2], a[:, :, 2].T)
    assert np.array_equal(at[:, :, 3], a[:, :, 1].T)


def test_ctranspose_involution():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 5, 6))
    assert np.array_equal(ctranspose(ctranspose(a)), a)


def test_ctranspose_moves_to_bcirc_transpose():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 2, 5))
    assert np.allclose(bcirc(ctranspose(a)), bcirc(a).T, atol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), l=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_ctranspose_reversal_law(dims, l, seed):
    # (a * b)^T = b^T * a^T on every shape, with an empty second mode (l = 0)
    # as in rank-0 skinny factors.
    n1, n2, n3 = dims
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n1, n2, n3))
    b = rng.normal(size=(n2, l, n3))
    lhs = ctranspose(tprod(a, b))
    assert lhs.shape == (l, n1, n3)
    assert fro_norm(lhs - tprod(ctranspose(b), ctranspose(a))) <= 1e-12 * max(fro_norm(lhs), 1.0)


# ── identity tensor ──────────────────────────────────────────────────────────


def test_identity_spectrum_is_all_identity():
    eyebar = dft3(identity_tensor(3, 5))
    for j in range(5):
        assert np.allclose(eyebar[:, :, j], np.eye(3), atol=1e-12)


def test_identity_fro_norm():
    assert np.isclose(fro_norm(identity_tensor(4, 6)), 2.0)


# ── predicates ───────────────────────────────────────────────────────────────


def test_identity_passes_predicates():
    eye = identity_tensor(3, 4)
    assert is_orthogonal(eye, tol=1e-12)
    assert is_fdiagonal(eye, tol=1e-12)


def test_tsvd_factor_is_orthogonal():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, 4, 5))
    fac = tsvd(a)
    assert is_orthogonal(fac.u, tol=1e-8)
    assert is_orthogonal(fac.v, tol=1e-8)


def test_dense_tensor_not_fdiagonal():
    rng = np.random.default_rng(11)
    assert not is_fdiagonal(rng.normal(size=(3, 3, 2)), tol=1e-6)


def test_orthogonality_needs_square():
    with pytest.raises(ShapeMismatch):
        is_orthogonal(np.zeros((2, 3, 2)))
