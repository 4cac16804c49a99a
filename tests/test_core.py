"""Tensor primitives: mode-3 DFT, dense reference operators, inner products,
and the package layering around the half-spectrum kernel."""

import ast
import dataclasses
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubalkit
from tubalkit import core
from tubalkit.algebra import tprod
from tubalkit.core import (
    WarmStart,
    fro_norm,
    from_half_spectrum,
    half_spectrum,
    half_svt,
    inner,
    l1_norm,
    linf_norm,
)
from tubalkit.errors import CountOutOfRange, RankOutOfRange, ShapeMismatch
from tubalkit.norms import spectral_norm, tnn
from tubalkit.prox import soft_threshold, tsvt
from tubalkit.solver import SolverConfig, default_lambda, solve
from tubalkit.synth import gen_low_tubal_rank

from oracles import (
    SymmetryViolation,
    bcirc,
    bdiag,
    certified_by_fourth_power,
    dft3,
    fold,
    from_half_spectrum_by_copy,
    half_spectrum_by_copy,
    idft3,
    traced_peak,
    unfold,
)


def brute_dft(v):
    """O(n^2) DFT straight from the transform matrix definition."""
    n = len(v)
    w = np.exp(-2j * np.pi / n)
    f = w ** (np.outer(np.arange(n), np.arange(n)))
    return f @ np.asarray(v, dtype=complex)


# ── dft3 / idft3 ─────────────────────────────────────────────────────────────


def test_dft3_length_one_tubes_are_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 2, 1))
    abar = dft3(a)
    assert np.allclose(abar.imag, 0.0)
    assert np.allclose(abar.real, a)


def test_dft3_matches_brute_force_tube():
    a = np.zeros((1, 1, 4))
    a[0, 0, :] = [1.0, 2.0, 3.0, 4.0]
    expected = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
    assert np.allclose(brute_dft([1.0, 2.0, 3.0, 4.0]), expected)
    assert np.allclose(dft3(a)[0, 0, :], expected, atol=1e-12)


def test_dft3_zeros():
    assert np.all(dft3(np.zeros((2, 3, 5))) == 0.0)


@pytest.mark.parametrize("n3", [2, 3, 4, 5, 8])
def test_dft3_conjugate_symmetry(n3):
    rng = np.random.default_rng(n3)
    a = rng.normal(size=(3, 2, n3))
    abar = dft3(a)
    scale = np.linalg.norm(abar.ravel())
    assert np.max(np.abs(abar[:, :, 0].imag)) <= 1e-10 * scale
    for j in range(1, n3):
        assert np.allclose(abar[:, :, j], np.conj(abar[:, :, n3 - j]), rtol=1e-10, atol=1e-10 * scale)


def test_idft3_roundtrip_seeded():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 3, 5))
    back = idft3(dft3(a))
    assert np.linalg.norm((back - a).ravel()) <= 1e-10 * np.linalg.norm(a.ravel())


def test_idft3_frozen_tube():
    abar = np.zeros((1, 1, 4), dtype=complex)
    abar[0, 0, :] = [10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j]
    assert np.allclose(idft3(abar)[0, 0, :], [1.0, 2.0, 3.0, 4.0], atol=1e-12)


def test_idft3_rejects_asymmetric_spectrum():
    a = np.random.default_rng(1).normal(size=(2, 2, 4))
    abar = dft3(a)
    abar[:, :, 1] += 5.0j  # mirror slice 3 untouched
    with pytest.raises(SymmetryViolation):
        idft3(abar)


def test_roundtrip_shape_sweep():
    rng = np.random.default_rng(7)
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for n3 in range(1, 9):
                a = rng.normal(size=(n1, n2, n3))
                back = idft3(dft3(a))
                assert np.linalg.norm((back - a).ravel()) <= 1e-10 * np.linalg.norm(a.ravel())


def test_parseval_transfer():
    rng = np.random.default_rng(3)
    for n3 in (1, 2, 5, 8):
        a = rng.normal(size=(4, 3, n3))
        lhs = fro_norm(a)
        rhs = np.linalg.norm(dft3(a).ravel()) / np.sqrt(n3)
        assert abs(lhs - rhs) <= 1e-10 * rhs


# ── the real-FFT half-spectrum kernel ────────────────────────────────────────


def tensor_in_layout(shape, layout, rng):
    """A random real tensor of the given shape, stored in C order, in Fortran
    order, or as a transposed view of a C-ordered array."""
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).transpose(2, 1, 0)
    return np.asarray(rng.normal(size=shape), order=layout)


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("n3", [1, 2, 3, 8, 401])
def test_half_spectrum_is_the_transposed_copy_written_in_place(n3, layout):
    rng = np.random.default_rng(n3)
    a = tensor_in_layout((4, 5, n3), layout, rng)
    stack = half_spectrum(a)
    assert stack.shape == (n3 // 2 + 1, 4, 5) and stack.flags.c_contiguous
    assert stack.tobytes() == half_spectrum_by_copy(a).tobytes()
    # The inverse, of a C-ordered stack and of a transposed view of one.
    for s in (stack, np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)):
        back = from_half_spectrum(s, n3)
        assert back.shape == a.shape and back.flags.c_contiguous
        assert back.tobytes() == from_half_spectrum_by_copy(s, n3).tobytes()


@pytest.mark.parametrize("n3", [1, 7, 8])
def test_half_spectrum_of_row_chunks_is_the_whole_tensors(n3):
    # The solver transforms its tensors a few rows at a time into the rows of
    # one stack, and back: here rows 0-2, 3-5 and 6 of 7.
    a = np.random.default_rng(n3).normal(size=(7, 5, n3))
    whole = half_spectrum(a)
    stack, back = np.empty_like(whole), np.empty_like(a)
    for rows in (slice(0, 3), slice(3, 6), slice(6, 7)):
        view = stack[:, rows]
        assert half_spectrum(a[rows], out=view) is view
        from_half_spectrum(view, n3, out=back[rows])
    assert stack.tobytes() == whole.tobytes()
    assert back.tobytes() == from_half_spectrum(whole, n3).tobytes()


# ── bcirc / bdiag / unfold / fold ────────────────────────────────────────────


def test_bcirc_single_slice():
    a = np.arange(6.0).reshape(2, 3, 1)
    assert np.array_equal(bcirc(a), a[:, :, 0])


def test_bcirc_tube_circulant():
    a = np.zeros((1, 1, 3))
    a[0, 0, :] = [1.0, 2.0, 3.0]  # (a, b, c)
    expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(bcirc(a), expected)


def test_bcirc_block_diagonalization():
    # (F kron I) bcirc(a) (F^-1 kron I) must equal bdiag of the spectrum.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2, 3))
    n1, n2, n3 = a.shape
    f = np.fft.fft(np.eye(n3), axis=0)
    finv = np.conj(f) / n3
    lhs = np.kron(f, np.eye(n1)) @ bcirc(a) @ np.kron(finv, np.eye(n2))
    rhs = bdiag(dft3(a))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_unfold_fold_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 2))
    assert np.array_equal(fold(unfold(a), 2), a)


def test_unfold_tube_is_column():
    a = np.zeros((1, 1, 3))
    a[0, 0, :] = [1.0, 2.0, 3.0]
    assert np.array_equal(unfold(a), np.array([[1.0], [2.0], [3.0]]))


def test_fold_rejects_indivisible_rows():
    with pytest.raises(ShapeMismatch):
        fold(np.zeros((7, 3)), 2)


# ── inner products and elementwise norms ─────────────────────────────────────


def test_inner_self_is_squared_fro():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3, 4))
    assert np.isclose(inner(a, a), fro_norm(a) ** 2)


def test_inner_fourier_transfer():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=(3, 3, 4))
    lhs = inner(a, b)
    rhs = inner(dft3(a), dft3(b)) / 4
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        inner(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_complex_input_is_rejected():
    z = np.ones((2, 2, 2)) * (1 + 1j)
    with pytest.raises(TypeError):
        tprod(z, np.ones((2, 2, 2)))
    with pytest.raises(TypeError):
        tnn(z)
    with pytest.raises(TypeError):
        solve(z)
    with pytest.raises(TypeError):
        soft_threshold(z, 0.5)


def test_empty_third_mode_is_rejected():
    # No Fourier slices: rejected where the tensor enters, not inside the FFT.
    # An empty second mode, as in rank-0 skinny factors, stays valid.
    empty = np.ones((3, 3, 0))
    for call in (
        lambda: tsvt(empty, 0.5),
        lambda: tprod(empty, empty),
        lambda: spectral_norm(empty),
        lambda: solve(empty, SolverConfig(lam=1.0)),
        lambda: gen_low_tubal_rank(3, 3, 0, 1, 0),
        lambda: gen_low_tubal_rank(3, 3, 0, 0, 0),
    ):
        with pytest.raises(ShapeMismatch):
            call()


def test_check_dims_is_the_rule_of_as_tensor3():
    # The generators, default_lambda and identity_tensor take dimensions as
    # numbers; check_dims rejects exactly the shapes that as_tensor3 rejects.
    for dims in itertools.product(range(4), repeat=3):
        try:
            core.as_tensor3(np.empty(dims))
        except ShapeMismatch:
            with pytest.raises(ShapeMismatch):
                core.check_dims(*dims)
        else:
            core.check_dims(*dims)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call, error", [
    (lambda b: tubalkit.identity_tensor(b, 2), ShapeMismatch),
    (lambda b: tubalkit.best_rank_k(np.ones((2, 2, 2)), b), RankOutOfRange),
    (lambda b: SolverConfig(max_iters=b), ValueError),
    (lambda b: gen_low_tubal_rank(4, 4, b, 1, 0), ShapeMismatch),
    (lambda b: gen_low_tubal_rank(4, 4, 2, b, 0), RankOutOfRange),
    (lambda b: tubalkit.gen_sparse_bernoulli(4, 4, 2, b, "count", 0), CountOutOfRange),
    (lambda b: tubalkit.phase_grid(8, 2, [0.25], [0.1], b), ValueError),
    (lambda b: default_lambda(b, 4, 4), ValueError),
], ids=["identity_tensor", "best_rank_k", "max_iters", "dims", "rank", "count", "trials", "default_lambda"])
def test_a_bool_is_not_an_integer(call, error, flag):
    # bool is a numbers.Integral: True would pass as 1, or reach numpy as a shape.
    with pytest.raises(error):
        call(flag)


@pytest.mark.parametrize("n, nbytes, spans", [
    (0, 64, []),
    (3, 8, [(0, 1), (1, 2), (2, 3)]),  # one 16-byte entry, larger than the budget, per run
    (6, 32, [(0, 2), (2, 4), (4, 6)]),  # an exact multiple of the budget
    (5, 32, [(0, 2), (2, 4), (4, 5)]),  # a remainder
], ids=["empty", "entry_over_budget", "multiple", "remainder"])
def test_runs_walk_the_leading_axis_through_one_buffer(n, nbytes, spans):
    walked = list(core.runs((n, 2), nbytes))
    assert [(span.start, span.stop) for span, _ in walked] == spans
    assert [buffer.shape for _, buffer in walked] == [(stop - start, 2) for start, stop in spans]
    bases = {id(buffer.base) for _, buffer in walked}
    assert len(bases) <= 1 and id(None) not in bases


def test_l1_linf():
    a = np.zeros((1, 3, 1))
    a[0, :, 0] = [1.0, -2.0, 0.0]
    assert l1_norm(a) == 3.0
    assert linf_norm(a) == 2.0
    assert linf_norm(np.zeros((0, 3, 2))) == 0.0


@pytest.mark.parametrize("where", [0, -1], ids=["first", "last"])
def test_linf_norm_propagates_nan(where):
    # The solver stops when each change's linf_norm is at most eps; a NaN it
    # dropped would let a diverged solve report converged=True.
    a = np.arange(-6.0, 6.0).reshape(2, 3, 2)
    a.ravel()[where] = np.nan
    assert np.isnan(linf_norm(a))
    assert np.isnan(linf_norm(np.full((1, 1, 1), np.nan)))
    z = np.array([1 + 1j, 3 - 4j])
    z[where] = complex(np.nan, 0.0)
    assert np.isnan(linf_norm(z))


@pytest.mark.parametrize("a", [np.zeros((2, 3, 2)), np.full((2, 2, 1), -0.0), np.zeros((0, 3, 2)),
                               np.zeros(0, dtype=complex)], ids=["zeros", "negative-zeros", "empty",
                                                                 "empty-complex"])
def test_linf_norm_of_nothing_is_positive_zero(a):
    assert math.copysign(1.0, linf_norm(a)) == 1.0 and linf_norm(a) == 0.0


def test_linf_norm_of_complex_and_integer_entries():
    assert linf_norm(np.array([[1 - 1j], [3 + 4j], [-2.0 + 0j]])) == 5.0
    assert linf_norm([2, -7, 5]) == 7.0


# ── singular value thresholding kernel ───────────────────────────────────────


def certificate_batch(n1, n2, dtype, rng):
    """A batch a of four matrices with two orthonormal columns uk each, and the
    singular values of each residual (I - uk uk^H) a: one value (the bounds for
    p = 1, 2, 4 coincide), eight equal ones (they lie far apart), a geometric
    decay, and none."""
    k = min(n1, n2)
    profiles = [np.eye(1, k - 2)[0], np.ones(k - 2), 0.5 ** np.arange(k - 2), np.zeros(k - 2)]

    def orthonormal(n):
        m = rng.normal(size=(len(profiles), n, k))
        return np.linalg.qr(m + 1j * rng.normal(size=m.shape) if dtype is complex else m)[0]

    u, v = orthonormal(n1), orthonormal(n2)
    s = np.array([[10.0, 9.0, *p] for p in profiles])
    a = (u * s[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    return a, u[:, :, :2], np.array(profiles)


def schatten_bounds(sv):
    """||(w^H w)^p||_F^(1/2p) for p = 1, 2, 4 from the singular values of w, one row per p."""
    return np.array([np.sum(sv ** (4 * p), axis=-1) ** (1 / (4 * p)) for p in (1, 2, 4)])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n1, n2", [(12, 10), (10, 12)], ids=["tall", "wide"])
def test_tiered_certificate_decides_as_the_fourth_power_bound(monkeypatch, n1, n2, dtype):
    a, uk, sv = certificate_batch(n1, n2, dtype, np.random.default_rng(n1))
    assert np.iscomplexobj(a) == (dtype is complex)
    bounds = schatten_bounds(sv)
    # Every bound of the three nonzero residuals, approached from both sides.
    taus = [b * f for b in bounds[:, :3].ravel() for f in (1 - 1e-6, 1 + 1e-6)]
    # Between them the flat residual is decided by p = 1, 2, 4 and by none.
    assert {next((p for p in range(3) if bounds[p, 1] < tau), 3) for tau in taus} == {0, 1, 2, 3}
    # Each call records the Gram powers it tests: p = 1, and p = 2 and 4 only
    # while undecided, one more for each lower bound at or above tau.
    tested = []
    norms = core._fro_norms

    def counted(x):
        tested.append(len(x))
        return norms(x)

    monkeypatch.setattr(core, "_fro_norms", counted)
    for tau in taus:
        ok = []
        for i in range(len(a)):
            tested.clear()
            ok.append(core._certified(a[i], uk[i], tau))
            assert tested == [1] * (1 + int(np.sum(bounds[:2, i] >= tau))), (tau, i)
        assert np.array_equal(ok, certified_by_fourth_power(a, uk, tau)), tau
        assert np.array_equal(ok, bounds[2] < tau), tau


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n1=st.integers(2, 6), n2=st.integers(1, 6), batch=st.integers(1, 4), k=st.integers(0, 3),
       complex_=st.booleans(), seed=st.integers(0, 2**32 - 1), tier=st.sampled_from([0, 1, 2]),
       nudge=st.sampled_from([-1e-6, 1e-6, -0.5, 1.0]))
def test_tiered_certificate_property(n1, n2, batch, k, complex_, seed, tier, nudge):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(batch, n1, n2))
    m = rng.normal(size=(batch, n1, min(k, n1 - 1)))
    if complex_:
        a, m = a + 1j * rng.normal(size=a.shape), m + 1j * rng.normal(size=m.shape)
    uk = np.linalg.qr(m)[0]
    w = a - uk @ (np.conj(np.swapaxes(uk, 1, 2)) @ a)
    # tau near the first slice's bound for p = 1, 2 or 4, or far from it.
    bound = schatten_bounds(np.linalg.svd(w, compute_uv=False))[tier, 0]
    tau = bound * (1 + nudge) if bound > 1e-8 * fro_norm(a) else 1.0
    ok = [core._certified(x, u, tau) for x, u in zip(a, uk)]
    assert np.array_equal(ok, certified_by_fourth_power(a, uk, tau))


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_uncertified_slices_are_thresholded_exactly(monkeypatch, n3):
    # Wide enough, and keeping enough values, that a rebuild from fewer
    # columns than the full SVD's rounds differently under OpenBLAS, which
    # takes another kernel for a short inner dimension.
    rng = np.random.default_rng(n3)
    y = gen_low_tubal_rank(100, 90, n3, 6, seed=n3) + 1e-2 * rng.normal(size=(100, 90, n3))
    stack, tau, h = half_spectrum(y), 1.0, n3 // 2 + 1
    exact = half_svt(stack.copy(), n3, tau)
    # As many start columns as the gate lets through at min(n1, n2) = 90.
    l = 90 // core.PARTIAL_SVD_FRACTION
    basis = rng.normal(size=(h, 90, l)).astype(np.complex128)  # as a solve hands it over
    warm = WarmStart(basis=basis, rank=l - core.OVERSAMPLE)
    # Among the real slices, then the complex ones, the first, third, ...
    # slice fails its certificate, told apart by its content.
    failed = [*core.real_slices(n3)[::2], *np.arange(h)[core.complex_slices(n3)][::2]]
    passes = core._certified
    monkeypatch.setattr(core, "_certified", lambda x, uk, tau: passes(x, uk, tau) and not any(
        np.array_equal(x, stack[k]) for k in failed))
    out = half_svt(stack.copy(), n3, tau, warm)
    assert warm.basis.shape == basis.shape
    assert warm.basis is basis  # a complex basis of l columns is reused in place
    # Each slice's kept count is the rank of its thresholded slice.
    s = np.linalg.svd(stack, compute_uv=False)
    kept = np.count_nonzero(s > tau, axis=1)
    assert np.array_equal(np.linalg.matrix_rank(out, tol=1e-9 * s.max()), kept)
    assert warm.rank == kept.max()
    assert (warm.certified, warm.fallbacks) == (h - len(failed), len(failed))
    assert np.array_equal(out[failed], exact[failed])
    assert fro_norm(out - exact) <= 1e-10 * fro_norm(exact)


@pytest.mark.parametrize("warm", [False, True], ids=["exact", "warm"])
@pytest.mark.parametrize("n3", [1, 4, 7])
def test_half_svt_overwrites_and_returns_its_stack(n3, warm):
    y = gen_low_tubal_rank(80, 80, n3, 3, seed=n3) + 1e-2 * np.random.default_rng(n3).normal(size=(80, 80, n3))
    stack = half_spectrum(y)
    expected = half_svt(stack.copy(), n3, 1.0)
    out = half_svt(stack, n3, 1.0, WarmStart(rank=3) if warm else None)
    assert out is stack
    assert fro_norm(out - expected) <= 1e-10 * fro_norm(expected)


def graded_batch(m, n, complex_, rng):
    """m n x n matrices with three singular values above 5 and a tail whose
    level grows from matrix to matrix, so that subspace iteration from eight
    columns fits each of them after a different number of steps."""
    def orthonormal():
        g = rng.normal(size=(m, n, n))
        return np.linalg.qr(g + 1j * rng.normal(size=g.shape) if complex_ else g)[0]

    tail = 0.8 ** np.arange(n - 3)
    s = np.array([[10.0, 9.0, 8.0, *(c * tail)] for c in np.linspace(0.5, 6.0, m)])
    return (orthonormal() * s[:, None, :]) @ np.conj(np.swapaxes(orthonormal(), 1, 2))


@pytest.mark.parametrize("kind", ["real", "complex", "mixed-spread"])
def test_subspace_svd_of_a_slice_does_not_depend_on_its_batch(kind):
    if kind == "mixed-spread":  # five kept values spread by 1e4, by 25 and not at all
        rng, tau = np.random.default_rng(26), 1.0
        tails = [np.full(35, 0.5), 0.95 * 0.9 ** np.arange(35), np.full(35, 0.5)]
        heads = [2 * np.geomspace(1e4, 1, 5), np.geomspace(50, 2, 5), np.full(5, 3.0)]
        a = np.array([(unitary(rng, 40, True) * np.r_[hd, tl]) @ np.conj(unitary(rng, 40, True).T)
                      for hd, tl in zip(heads, tails)])
        v = rng.normal(size=(3, 40, 8))
    else:
        rng, tau = np.random.default_rng(22), 5.0
        a, v = graded_batch(6, 40, kind == "complex", rng), rng.normal(size=(6, 40, 8))
    if kind == "real":  # a strided view, as the real part of a complex stack is
        a = (a + 0j).real
    batched = core._subspace_svd(a, v, tau)
    assert batched[3].all()
    for i in range(len(a)):
        alone = core._subspace_svd(a[i:i + 1], v[i:i + 1], tau)
        for whole, one in zip(batched, alone):
            assert whole[i:i + 1].tobytes() == one.tobytes(), i


def unitary(rng, n, complex_):
    g = rng.normal(size=(n, n))
    return np.linalg.qr(g + 1j * rng.normal(size=g.shape) if complex_ else g)[0]


HARD_SPECTRA = {
    "zero": np.zeros(100),
    "rank-3": np.r_[30.0, 20.0, 10.0, np.zeros(97)],
    "spread-1e4": np.r_[2 * np.geomspace(1e4, 1, 5), np.full(95, 0.5)],
    "spread-1e8": np.r_[2 * np.geomspace(1e8, 1, 5), np.full(95, 0.5)],
    # The tail's fourth-power bound is 0.96, just under tau = 1.
    "graded": np.r_[np.geomspace(50, 2, 5), 0.95 * 0.9 ** np.arange(95)],
}


@pytest.mark.parametrize("kind", HARD_SPECTRA)
def test_warm_path_certifies_hard_spectra(kind):
    # Six 100 x 100 slices (n3 = 11: slice 0 real, five complex) of one
    # spectrum. Without the guard on s = 0, or with fewer cycles, the partial
    # SVD leaves some of them uncertified.
    n3, rng = 11, np.random.default_rng(24)
    stack = np.array([(unitary(rng, 100, k > 0) * HARD_SPECTRA[kind]) @ np.conj(unitary(rng, 100, k > 0).T)
                      for k in range(n3 // 2 + 1)])
    exact = half_svt(stack.copy(), n3, 1.0)
    warm = WarmStart(rank=5)
    for call in range(1, 4):
        out = half_svt(stack.copy(), n3, 1.0, warm)
        assert (warm.certified, warm.fallbacks) == (6 * call, 0), call
        assert fro_norm(out - exact) <= 1e-12 * fro_norm(exact), call


def test_a_slice_that_never_fits_is_not_certified_but_thresholded_exactly(monkeypatch):
    # Three 40 x 40 slices (n3 = 5: slice 0 real, 1 and 2 complex, one block).
    # Slice 1's values fall evenly from 3 to 2, each under 1% below the last,
    # so its triplets cannot fit within PARTIAL_SVD_CYCLES cycles; the others
    # have rank 3 and fit at once.
    n3, rng, rank3 = 5, np.random.default_rng(27), np.r_[30.0, 20.0, 10.0, np.zeros(37)]
    spectra = [rank3, np.linspace(3.0, 2.0, 40), rank3]
    stack = np.array([(unitary(rng, 40, k > 0) * s) @ np.conj(unitary(rng, 40, k > 0).T)
                      for k, s in enumerate(spectra)])
    exact = half_svt(stack.copy(), n3, 1.0)
    seen, passes = [], core._certified
    monkeypatch.setattr(core, "_certified", lambda x, uk, tau: seen.append(x.copy()) or passes(x, uk, tau))
    warm = WarmStart(rank=3)
    out = half_svt(stack.copy(), n3, 1.0, warm)
    assert (warm.certified, warm.fallbacks) == (2, 1)
    assert [x.shape for x in seen] == [(40, 40)] * 2
    assert not any(np.array_equal(x, stack[1]) for x in seen)
    assert out[1].tobytes() == exact[1].tobytes()
    assert fro_norm(out - exact) <= 1e-12 * fro_norm(exact)


def test_shifted_step_certifies_a_solver_spectrum_in_six_cycles(monkeypatch):
    # A block of three slices as the 100 x 100 x 100 criterion-1 solve has them
    # mid-solve: five values of 450-505 over a flat bulk, sigma_6..sigma_13 =
    # 178..152, started from perturbed singular vectors. Plain subspace
    # iteration took 12 steps here, each with two QRs. Both counts hold for
    # OVERSAMPLE = 3, whose block of 8 ends inside the bulk at sigma_8 = 171,
    # and for 7, whose block of 12 ends at sigma_12 = 156.
    rng = np.random.default_rng(25)
    s = np.r_[np.linspace(505, 450, 5), np.linspace(178, 152, 8), np.linspace(151, 150, 87)]
    u, v = (np.array([unitary(rng, 100, True) for _ in range(3)]) for _ in range(2))
    a = (u * s) @ np.conj(np.swapaxes(v, 1, 2))
    noise = rng.normal(size=(3, 100, 5 + core.OVERSAMPLE, 2)) @ [1, 1j]
    start = v[:, :, :5 + core.OVERSAMPLE] + 1e-2 * noise
    calls = []
    for name in ("qr", "eigh"):
        monkeypatch.setattr(np.linalg, name, lambda x, *args, f=getattr(np.linalg, name), name=name, **kwargs:
                            calls.append(name) or f(x, *args, **kwargs))
    uk, sk, _, ok = core._subspace_svd(a, start, 300.0)
    assert ok.all()
    assert calls.count("eigh") == calls.count("qr") == 6  # one Rayleigh-Ritz step per cycle
    assert np.allclose(sk[:, :5], s[:5], rtol=1e-12)


@pytest.mark.parametrize("warm", [False, True], ids=["exact", "warm"])
def test_half_svt_does_not_depend_on_the_block_size(monkeypatch, warm):
    # 80 x 80 complex slices are 100 KiB: one slice per block, three, and all
    # of the seven complex slices in one.
    n3 = 16
    y = gen_low_tubal_rank(80, 80, n3, 2, seed=23) + 1e-3 * np.random.default_rng(23).normal(size=(80, 80, n3))
    stack = half_spectrum(y)
    results = []
    for block in (1, 3 * 80 * 80 * 16, 1 << 30):
        monkeypatch.setattr(core, "BLOCK_BYTES", block)
        state = WarmStart(rank=2) if warm else None
        out = [half_svt(stack.copy(), n3, tau, state).tobytes() for tau in (1.0, 0.5)]
        results.append((out, state and (state.basis.tobytes(), state.rank, state.certified, state.fallbacks)))
    assert not warm or results[0][1][2] > 0
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("warm", [False, True], ids=["exact", "warm"])
@pytest.mark.parametrize("n3", [30, 120])
def test_half_svt_temporaries_stay_block_sized(n3, warm):
    # The complex slices of 128 x 128 are 256 KiB: 14 to 59 of them, in blocks.
    y = gen_low_tubal_rank(128, 128, n3, 3, seed=n3) + 1e-3 * np.random.default_rng(n3).normal(size=(128, 128, n3))
    stack = half_spectrum(y)
    state = WarmStart(rank=3) if warm else None
    if warm:
        half_svt(stack.copy(), n3, 1.0, state)  # a first call leaves a basis to start from
    peak = traced_peak(lambda: half_svt(stack, n3, 1.0, state))
    assert not warm or state.certified == 2 * len(stack)
    # Beyond the start basis, whose size is the warm state's, not a temporary.
    assert peak - (state.basis.nbytes if warm else 0) <= 3.5 * core.BLOCK_BYTES


def test_uncertified_block_frees_its_triplets_before_the_full_svd(monkeypatch):
    # Two 128 x 128 complex slices fill a block. Its full SVD holds 2.5 blocks;
    # the partial triplets of l = 32 columns, kept alive through it, add half a block.
    n3 = 30
    y = gen_low_tubal_rank(128, 128, n3, 3, seed=n3) + 1e-3 * np.random.default_rng(n3).normal(size=(128, 128, n3))
    stack, h, l = half_spectrum(y), n3 // 2 + 1, 128 // core.PARTIAL_SVD_FRACTION
    basis = np.random.default_rng(n3).normal(size=(h, 128, l)).astype(np.complex128)
    state = WarmStart(basis=basis, rank=l - core.OVERSAMPLE)  # reused in place
    monkeypatch.setattr(core, "_certified", lambda x, uk, tau: False)
    peak = traced_peak(lambda: half_svt(stack, n3, 1.0, state))
    assert state.basis is basis and (state.certified, state.fallbacks) == (0, h)
    assert peak <= 2.75 * core.BLOCK_BYTES


@pytest.mark.parametrize("n3", [1, 2, 3, 8, 9])
@pytest.mark.parametrize("widths", [(6,), (6, 2)], ids=["one-stack", "two-stacks"])
def test_batches_sit_at_basic_slices(monkeypatch, n3, widths):
    # Every position is a step-1 slice, so a kernel writes each batch back
    # through a view, in place. The positions cover the half spectrum once;
    # a real slice comes alone, as a copy of its real part (C-contiguous, as
    # the stacks are), and the complex ones as views, two of the widest
    # stack's slices at a time.
    monkeypatch.setattr(core, "BLOCK_BYTES", 2 * 5 * 6 * 16)
    h, rng = n3 // 2 + 1, np.random.default_rng(n3)
    stacks = [rng.normal(size=(h, 5, w)) + 1j * rng.normal(size=(h, 5, w)) for w in widths]
    seen = []
    for pos, *parts in core._batches(n3, *stacks):
        assert type(pos) is slice and pos.step in (None, 1), pos
        at = range(h)[pos]
        seen += at
        real = bool(set(at) & {0, n3 / 2})
        assert len(at) == 1 if real else len(at) <= 2
        for stack, part in zip(stacks, parts):
            if real:
                assert part.dtype == np.float64 and part.flags.c_contiguous
                assert np.array_equal(part, stack[pos].real)
            else:
                assert np.shares_memory(part, stack) and np.array_equal(part, stack[pos])
    assert sorted(seen) == list(range(h))


@pytest.mark.parametrize("shape", [(1, 3, 4), (5, 7, 6), (3, 40, 40), (2, 1, 9)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fro_norms_are_the_norms_of_the_matrices(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)
    expected = [np.linalg.norm(m) for m in x]
    assert np.allclose(core._fro_norms(x), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n3", [1, 2, 7])
def test_leading_half_svd_is_half_svds_unless_every_slice_certifies(monkeypatch, n3):
    stack = half_spectrum(gen_low_tubal_rank(40, 30, n3, 3, seed=n3))
    exact = core.half_svd(stack, n3)
    u, s, vh = core.leading_half_svd(stack, n3, 1e-10)
    # The tubal rank's triplets, and no more.
    assert (u.shape[2], s.shape[1], vh.shape[1]) == (3, 3, 3)
    assert np.allclose(s, exact[1][:, :3], rtol=1e-12, atol=0)
    # One slice, the last, fails its certificate: the whole spectrum takes
    # half_svd, cut to the same 3 columns.
    passes = core._certified
    monkeypatch.setattr(core, "_certified", lambda x, uk, tau: passes(x, uk, tau) and not np.array_equal(x, stack[-1]))
    leading = (exact[0][:, :, :3], exact[1][:, :3], exact[2][:, :3])
    for got, want in zip(core.leading_half_svd(stack, n3, 1e-10), leading):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n3", [1, 2, 7])
def test_a_linalg_error_in_the_partial_svd_takes_the_exact_path(monkeypatch, n3):
    # A Rayleigh-Ritz step that fails to converge leaves its whole batch
    # uncertified, so every slice takes the full SVD, bit for bit.
    stack, h, tau = half_spectrum(gen_low_tubal_rank(40, 30, n3, 3, seed=n3)), n3 // 2 + 1, 1.0
    exact = half_svt(stack.copy(), n3, tau)
    u, s, vh = core.half_svd(stack, n3)
    values = core.half_svd(stack, n3, compute_uv=False)
    failures = []

    def eigh(*args, **kwargs):
        failures.append(args[0].shape)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    warm = WarmStart(rank=3)
    assert half_svt(stack.copy(), n3, tau, warm).tobytes() == exact.tobytes()
    assert failures and (warm.certified, warm.fallbacks) == (0, h)
    # The leading triplets of the tubal rank, 3, are half_svd's.
    failures.clear()
    got = core.leading_half_svd(stack, n3, 1e-10)
    for part, want in zip((got[0][:, :, :3], got[1][:, :3], got[2][:, :3]), (u[:, :, :3], s[:, :3], vh[:, :3])):
        assert part.tobytes() == want.tobytes()
    assert core.leading_half_svd(stack, n3, 1e-10, compute_uv=False)[:, :3].tobytes() == values[:, :3].tobytes()
    assert failures


def test_exact_half_svt_rebuilds_real_slices_in_place():
    # n3 = 2: both slices are real. Each is copied, decomposed and rebuilt
    # into the stack alone, so no second spectrum is ever held.
    stack = half_spectrum(np.random.default_rng(27).normal(size=(300, 300, 2)))
    assert traced_peak(lambda: half_svt(stack, 2, 1.0)) <= 1.25 * stack.nbytes


# ── layering ─────────────────────────────────────────────────────────────────

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tubalkit"


def package_trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "core.py" for p in paths)
    return [(p.name, ast.parse(p.read_text())) for p in paths]


def dotted(node):
    """'np.linalg.svd' for a chain of attribute accesses on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_only_core_calls_the_fft_and_the_svd():
    # The real-slice decision lives in core's half_matmul, half_svd and
    # half_svt; a module that called numpy's FFT or a matrix factorization
    # itself could bypass it.
    kernels = ("np.fft", *(f"np.linalg.{f}" for f in ("svd", "qr", "eigh", "eigvalsh", "eig",
                                                         "eigvals", "cholesky", "svdvals")))

    def reaches_kernel(used):
        used = used.replace("numpy.", "np.", 1)
        return any(used == k or used.startswith(k + ".") for k in kernels)

    for name, tree in package_trees():
        if name == "core.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert not reaches_kernel(dotted(node) or ""), (name, dotted(node))
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    assert not reaches_kernel(f"{node.module}.{alias.name}"), (name, alias.name)


def readers_of(names):
    """(module, function) for every function of the package that names one of
    `names`, as a name or as an attribute."""
    readers = set()

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            used = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and used in names:
                readers.add((module, func))
            visit(child, module, func)

    for name, tree in package_trees():
        visit(tree, name, None)
    return readers


def test_only_batches_and_half_weights_read_the_real_slices():
    # _batches applies the real/complex split for every slice-wise kernel and
    # half_weights turns it into slice multiplicities; any other reader would
    # be a second copy of that decision.
    readers = readers_of({"real_slices", "complex_slices"})
    assert readers == {("core.py", "_batches"), ("core.py", "half_weights")}


def test_only_the_input_checks_ask_whether_an_array_is_complex():
    # Inside the kernels the real/complex split is _batches' alone; asking an
    # array for its dtype elsewhere would be a second copy of it.
    assert readers_of({"iscomplexobj"}) == {
        ("core.py", "as_tensor3"), ("core.py", "linf_norm"), ("prox.py", "soft_threshold")}


def test_no_module_imports_a_private_name_from_a_sibling():
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("tubalkit")
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (name, node.module, private)


def test_numerical_failure_is_raised_in_one_function():
    # Every LinAlgError that reaches a caller is mapped in one place.
    raisers = []
    for name, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                raises = [n for n in ast.walk(func) if isinstance(n, ast.Raise) and n.exc is not None]
                names = {x.id for r in raises for x in ast.walk(r.exc) if isinstance(x, ast.Name)}
                if "NumericalFailure" in names:
                    raisers.append((name, func.name))
    assert raisers == [("core.py", "_svd")]


def test_non_finite_input_is_raised_in_one_function():
    # solve, tprod, psnr and tensor_to_image reject NaN and Inf through one check.
    raisers = set()
    for name, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                raises = [n for n in ast.walk(func) if isinstance(n, ast.Raise) and n.exc is not None]
                if any(isinstance(x, ast.Name) and x.id == "NonFiniteInput"
                       for r in raises for x in ast.walk(r.exc)):
                    raisers.add((name, func.name))
    assert raisers == {("core.py", "as_finite_tensor3")}


def test_no_module_reads_the_environment():
    # A cycle budget, a tolerance or a BLAS thread count read from the
    # environment would be a knob that no signature shows.
    touches = {"os.environ", "os.environb", "os.getenv", "os.getenvb", "os.putenv", "os.unsetenv"}
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert dotted(node) not in touches, (name, dotted(node))
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {f"os.{a.name}" for a in node.names} & touches, name


def test_no_knob_that_no_caller_sets():
    # Algorithm 1's mu schedule is fixed, and only tubal_rank, which reports
    # the rank of noisy solver outputs, takes a rank tolerance. A new knob
    # changes this test on purpose.
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["lam", "eps", "max_iters"]
    takes_tol = [name for name in tubalkit.__all__
                 if "rank_tol" in inspect.signature(getattr(tubalkit, name)).parameters]
    assert takes_tol == ["tubal_rank"]
    # tsvt is the exact prox alone; the solver's warm start lives in core.half_svt.
    assert list(inspect.signature(tubalkit.tsvt).parameters) == ["y", "tau"]
