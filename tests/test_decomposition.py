"""t-SVD factorization, ranks, and best rank-k approximation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tubalkit import core
from tubalkit.algebra import ctranspose, identity_tensor, is_fdiagonal, is_orthogonal, tprod
from tubalkit.core import fro_norm
from tubalkit.decomposition import (
    DEFAULT_RANK_TOL,
    average_rank,
    best_rank_k,
    singular_values,
    skinny_tsvd,
    tsvd,
    tubal_rank,
)
from tubalkit.errors import NumericalFailure, RankOutOfRange
from tubalkit.norms import incoherence, spectral_norm, tnn
from tubalkit.prox import tsvt

from oracles import SvdCounter


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


def test_tsvd_slice_svd_workload(monkeypatch):
    svds = SvdCounter(monkeypatch)
    for n3 in (1, 2, 5, 6):
        a = np.random.default_rng(n3).normal(size=(3, 4, n3))
        before = svds.matrices
        tsvd(a)
        assert svds.matrices - before == n3 // 2 + 1


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
    # No entries at all: rank 0 and empty factors as well.
    for n1, n2 in ((0, 4), (4, 0)):
        fac = skinny_tsvd(np.zeros((n1, n2, 3)))
        assert (fac.u.shape, fac.s.shape, fac.v.shape) == ((n1, 0, 3), (0, 0, 3), (n2, 0, 3))


def test_skinny_full_rank():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4, 3))
    assert skinny_tsvd(a).u.shape[1] == 4


# ── the certified partial path of the skinny t-SVD ───────────────────────────


def spy(mp, name):
    """A list that gets the keyword arguments of each later call to core.`name`."""
    calls, f = [], getattr(core, name)
    mp.setattr(core, name, lambda *args, **kwargs: calls.append(kwargs) or f(*args, **kwargs))
    return calls


def skinny_both_ways(a):
    """skinny_tsvd(a), the number of core._svd calls it made, and skinny_tsvd(a)
    with the gate shut, through half_svd alone."""
    with pytest.MonkeyPatch.context() as mp:
        calls = spy(mp, "_svd")
        fast = skinny_tsvd(a)
        svds = len(calls)
        mp.setattr(core, "PARTIAL_SVD_FRACTION", 1 << 30)
        exact = skinny_tsvd(a)
    return fast, svds, exact


def assert_same_bytes(fast, exact):
    for x, y in zip((fast.u, fast.s, fast.v), (exact.u, exact.s, exact.v)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_matches_exact_skinny(fast, exact):
    r, n3 = exact.u.shape[1], exact.u.shape[2]
    assert fast.u.shape == exact.u.shape and fast.v.shape == exact.v.shape
    assert fro_norm(fast.s - exact.s) <= 1e-12 * fro_norm(exact.s)
    assert rel_err(reconstruct(fast), reconstruct(exact)) <= 1e-12
    eye = identity_tensor(r, n3)
    for f in (fast.u, fast.v):
        assert fro_norm(tprod(ctranspose(f), f) - eye) <= 1e-12 * max(r, 1)


@pytest.mark.parametrize("n3", [1, 2, 3, 8])
@pytest.mark.parametrize("n1, n2", [(30, 21), (21, 30)], ids=["tall", "wide"])
def test_skinny_tsvd_of_a_low_rank_tensor_takes_no_full_svd(n1, n2, n3):
    # l = 21 // 4 = 5 columns per slice. Ranks 1 to l - 1 certify at the first
    # cycle; a block whose l values all exceed tau, ranks l and l + 1, leaves
    # for the exact path, and so does the zero tensor, whose tau is 0.
    l = min(n1, n2) // core.PARTIAL_SVD_FRACTION
    for rank in (0, 1, l - 1, l, l + 1):
        fast, svds, exact = skinny_both_ways(rank_r_tensor(n1, n2, n3, rank, seed=rank + n3))
        assert exact.u.shape[1] == rank
        assert (svds == 0) == (0 < rank < l), rank
        if svds:
            assert_same_bytes(fast, exact)
        else:
            assert_matches_exact_skinny(fast, exact)


def test_skinny_tsvd_of_a_dense_tensor_leaves_the_partial_path_after_one_cycle(monkeypatch):
    # Slice 0, the first batch, fills its block with values above tau at its
    # first Rayleigh-Ritz step; then every slice takes the exact SVD, in three
    # batches: the real slices 0 and 4 alone, the complex ones in one block.
    steps, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: steps.append(1) or eigh(*args, **kwargs))
    fast, svds, exact = skinny_both_ways(np.random.default_rng(3).normal(size=(40, 36, 8)))
    assert len(steps) == 1 and svds == 3
    assert_same_bytes(fast, exact)


@pytest.mark.parametrize("shape", [(0, 40, 3), (40, 0, 3), (3, 40, 5)], ids=["n1", "n2", "narrow"])
def test_skinny_tsvd_with_no_partial_columns_is_the_exact_path(monkeypatch, shape):
    # min(n1, n2) < PARTIAL_SVD_FRACTION leaves l = 0 columns: no partial step.
    monkeypatch.setattr(core, "_subspace_svd", None)
    fast, svds, exact = skinny_both_ways(np.random.default_rng(4).normal(size=shape))
    assert svds > 0
    assert_same_bytes(fast, exact)


def two_values(second):
    """One 40 x 30 slice with singular values 1 and `second`. At the default
    rank_tol the cut is 1e-10 and tau = 1e-10 / sqrt(30), 1.8e-11: a second
    value within tau of the cut could be counted on the other side of it by
    the partial path."""
    rng = np.random.default_rng(6)
    u, v = (np.linalg.qr(rng.normal(size=(n, 2)))[0] for n in (40, 30))
    return ((u * [1.0, second]) @ v.T)[:, :, None]


NEAR_CUT = [(3e-10, True), (1.05e-10, False), (0.95e-10, False), (0.3e-10, True)]


@pytest.mark.parametrize("second, partial", NEAR_CUT)
def test_skinny_tsvd_leaves_a_value_near_the_cut_to_the_exact_path(second, partial):
    fast, svds, exact = skinny_both_ways(two_values(second))
    assert (svds == 0) == partial
    assert fast.u.shape[1] == exact.u.shape[1] == (2 if second > 1e-10 else 1)


def test_skinny_tsvd_of_an_infinite_tensor_is_the_exact_paths():
    # Its partial SVD is not certified, and warns of nothing on the way: the
    # full SVD it falls back to raises, as the exact path does.
    a = rank_r_tensor(30, 21, 4, 2, seed=5)
    a[3, 4, 1] = np.inf
    with pytest.MonkeyPatch.context() as mp:
        calls = spy(mp, "_svd")
        with pytest.raises(NumericalFailure):
            skinny_tsvd(a)
        assert calls
        mp.setattr(core, "PARTIAL_SVD_FRACTION", 1 << 30)
        with pytest.raises(NumericalFailure):
            skinny_tsvd(a)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n1=st.integers(8, 28), n2=st.integers(8, 28), n3=st.sampled_from([1, 2, 3, 8]),
       rank=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_skinny_tsvd_matches_the_exact_path_property(n1, n2, n3, rank, seed):
    l = min(n1, n2) // core.PARTIAL_SVD_FRACTION
    fast, svds, exact = skinny_both_ways(rank_r_tensor(n1, n2, n3, rank, seed))
    assert exact.u.shape[1] == rank
    assert (svds == 0) == (0 < rank < l)
    if svds:
        assert_same_bytes(fast, exact)
    else:
        assert_matches_exact_skinny(fast, exact)


# ── singular values and ranks ────────────────────────────────────────────────


def test_singular_values_identity():
    assert np.allclose(singular_values(identity_tensor(4, 5)), np.ones(4))


# At these sizes a complex SVD of the real slice rounds differently from the
# real one, so this pins that the values-only path stays in real arithmetic.
@pytest.mark.parametrize("shape", [(100, 100), (150, 130), (100, 130)])
def test_singular_values_single_slice(shape):
    m = np.random.default_rng(4).normal(size=shape)
    s = np.linalg.svd(m, compute_uv=False)
    assert np.array_equal(singular_values(m[:, :, None]), s)
    assert spectral_norm(m[:, :, None]) == s[0]
    assert tnn(m[:, :, None]) == float(np.sum(s))


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


def test_averaged_values_whose_sum_overflows_stay_finite():
    # Each slice's values near 1.6e308: their sum over the four Fourier slices
    # overflows, their mean does not. Summed unscaled, the mean read inf, every
    # value fell below the cut and a RuntimeWarning escaped.
    x = np.random.default_rng(0).standard_normal((20, 20, 4)) * 1e307
    sv = singular_values(x)
    assert np.isfinite(sv).all()
    assert sv[0] <= spectral_norm(x)
    assert tubal_rank(x, 1e-6) == 20
    # A power-of-two scale rounds no differently: summed at half scale, as
    # here, a sum that does not overflow keeps its bytes.
    s = core.half_svd(core.half_spectrum(x / 10), 4, compute_uv=False)
    assert np.array_equal(core.average_singular_values(s, 4), core.half_weights(4) @ s / 4)


def test_tubal_rank_of_product():
    a = rank_r_tensor(6, 6, 5, 3, seed=7)
    assert tubal_rank(a) == 3


def test_tubal_rank_edge_cases():
    assert tubal_rank(np.zeros((3, 3, 2))) == 0
    assert tubal_rank(identity_tensor(4, 3)) == 4
    assert tubal_rank(np.zeros((0, 4, 3))) == tubal_rank(np.zeros((4, 0, 3))) == 0


def test_tubal_rank_of_a_low_rank_tensor_takes_no_full_svd(monkeypatch):
    calls = spy(monkeypatch, "_svd")
    assert tubal_rank(rank_r_tensor(40, 40, 8, 3, seed=10)) == 3
    assert calls == []


def test_tubal_rank_of_a_dense_tensor_takes_one_values_only_half_svd(monkeypatch):
    # The partial SVD leaves at its first slice, and the exact count then
    # computes no singular vectors.
    calls = spy(monkeypatch, "half_svd")
    assert tubal_rank(np.random.default_rng(11).normal(size=(40, 40, 8))) == 40
    assert calls == [{"compute_uv": False}]


@pytest.mark.parametrize("second, partial", NEAR_CUT)
def test_tubal_rank_leaves_a_value_near_the_cut_to_the_exact_path(monkeypatch, second, partial):
    calls = spy(monkeypatch, "_svd")
    assert tubal_rank(two_values(second)) == (2 if second > 1e-10 else 1)
    assert (calls == []) == partial


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(n1=st.integers(12, 40), n2=st.integers(12, 40), n3=st.sampled_from([1, 2, 3, 8]),
       rank_tol=st.sampled_from([1e-10, 1e-6, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_tubal_rank_is_the_exact_count_property(n1, n2, n3, rank_tol, seed):
    # A rank of 0 to past l = min(n1, n2) // 4, one more tubal component whose
    # value is 10^weak times the cut, and Gaussian noise whose largest value is
    # about 10^noise times it. These are drawn from the seed, because Hypothesis
    # would draw the simplest values, rank 0 and a value on the cut, most often.
    # About one draw in six takes the partial path, some with a value near the
    # cut; the rest fall back to the exact count.
    assume(n1 != n2)
    rng = np.random.default_rng(seed)
    rank, weak, noise = rng.integers(0, min(n1, n2) // 4 + 2), rng.uniform(-1, 1), rng.uniform(-6, 1)
    a = rank_r_tensor(n1, n2, n3, rank, seed)
    top = singular_values(a)[0] if rank else 1.0
    if rank:
        b = rank_r_tensor(n1, n2, n3, 1, seed + 1)
        a += b * (rank_tol * 10.0**weak * top / singular_values(b)[0])
    a += rank_tol * top * 10.0**noise / (np.sqrt(n3) * (np.sqrt(n1) + np.sqrt(n2))) * rng.normal(size=a.shape)
    sv = singular_values(a)
    assert tubal_rank(a, rank_tol) == np.count_nonzero(sv > rank_tol * sv.max(initial=0.0))


NON_FINITE_CALLS = {
    "tubal_rank": tubal_rank, "average_rank": average_rank, "skinny_tsvd": skinny_tsvd,
    "tnn": tnn, "spectral_norm": spectral_norm, "singular_values": singular_values, "tsvd": tsvd,
    "best_rank_k": lambda a: best_rank_k(a, 2), "tsvt": lambda a: tsvt(a, 0.5),
    "incoherence": incoherence,
}


def with_entry(bad):
    a = rank_r_tensor(30, 21, 4, 2, seed=5)
    a[3, 4, 1] = bad
    return a


NON_FINITE_INPUTS = {
    "nan": lambda: with_entry(np.nan),
    "inf": lambda: with_entry(np.inf),
    "-inf": lambda: with_entry(-np.inf),
    # The FFT meets inf - inf, or overflows on a finite tensor near the float64
    # limit; the spectrum's NaN or infinite entries are the SVD's to reject.
    "all-inf": lambda: np.full((3, 3, 4), np.inf),
    "fft-overflow": lambda: np.full((4, 4, 4), 1e308),
}


@pytest.mark.parametrize("bad", NON_FINITE_INPUTS)
@pytest.mark.parametrize("name", NON_FINITE_CALLS)
def test_a_non_finite_entry_is_a_numerical_failure(name, bad, capfd):
    # np.linalg.svd raises for a NaN but returns NaN values for an infinite
    # entry; neither may come back as a rank, a norm or a factor. No warning
    # escapes first, and LAPACK, which is never given such a slice, prints
    # nothing.
    a = NON_FINITE_INPUTS[bad]()
    with pytest.raises(NumericalFailure):
        NON_FINITE_CALLS[name](a)
    assert capfd.readouterr() == ("", "")


def test_average_rank_identity_and_zero():
    assert average_rank(identity_tensor(4, 3)) == 4.0
    assert average_rank(np.zeros((3, 3, 2))) == 0.0
    assert average_rank(np.zeros((0, 4, 3))) == average_rank(np.zeros((4, 0, 3))) == 0.0


def test_average_rank_bounded_by_tubal_rank():
    a = rank_r_tensor(5, 5, 4, 2, seed=8)
    avg = average_rank(a)
    assert 0.0 < avg <= 2.0
    assert avg <= tubal_rank(a)
    rng = np.random.default_rng(9)
    for shape in [(3, 3, 4), (4, 2, 5)]:
        b = rng.normal(size=shape)
        assert average_rank(b) <= tubal_rank(b) + 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(n1=st.integers(0, 12), n2=st.integers(0, 12), n3=st.sampled_from([1, 2, 3, 8]),
       rank=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_average_rank_is_the_weighted_count_of_each_slice_property(n1, n2, n3, rank, seed):
    # Each Fourier slice counts its values above DEFAULT_RANK_TOL times the
    # largest of all slices, weighted by its multiplicity in the full spectrum.
    a = rank_r_tensor(n1, n2, n3, min(rank, n1, n2), seed)
    s = core.half_svd(core.half_spectrum(a), n3, compute_uv=False)
    counts = (s > DEFAULT_RANK_TOL * float(s.max(initial=0.0))).sum(axis=1)
    assert average_rank(a) == float(core.half_weights(n3) @ counts) / n3


def test_a_cut_beyond_the_float64_range_counts_nothing():
    # rank_tol times the largest value overflows to inf, which no value exceeds.
    a = 1e10 * np.random.default_rng(12).normal(size=(5, 5, 4))
    assert tubal_rank(a, 1e300) == 0


@pytest.mark.parametrize("rank_fn", [tubal_rank])
def test_rank_tol_must_be_positive(rank_fn):
    # A bool compares as 0 or 1: True would pass as a tolerance of 1.
    for rank_tol in (0.0, -1e-3, np.nan, True, False, np.True_):
        with pytest.raises(ValueError):
            rank_fn(np.ones((2, 2, 2)), rank_tol)


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
    with pytest.raises(RankOutOfRange):
        best_rank_k(a, 1.5)
