"""t-SVD factorization, singular values, tubal/average rank, best rank-k.

The factorization decomposes the real-FFT half spectrum, Fourier slices
0..n3 // 2, and inverts each factor with the inverse real FFT, which implies
the conjugate slices. Decomposing all n3 slices independently would break
realness, because the matrix SVD is not unique; here the factors are real by
construction. The self-conjugate slices are decomposed in real arithmetic.

The module keeps a running count of per-slice matrix SVDs in
``slice_svd_count`` as a workload diagnostic for tests; it is not part of the
numerical contract.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    as_tensor3,
    complex_slices,
    from_half_spectrum,
    half_matmul,
    half_spectrum,
    half_weights,
    real_slices,
)
from .errors import NumericalFailure, RankOutOfRange

DEFAULT_RANK_TOL = 1e-10

_svd_calls = 0


def slice_svd_count():
    """Total per-slice matrix SVDs executed so far in this process."""
    return _svd_calls


def _count(n):
    global _svd_calls
    _svd_calls += n


def _svd_half(half, n3, full_matrices):
    """SVD each half-spectrum slice; the real slices take the real path so
    their factors stay exactly real."""
    h, n1, n2 = half.shape
    k = min(n1, n2)
    ku = n1 if full_matrices else k
    kv = n2 if full_matrices else k
    u = np.empty((h, n1, ku), dtype=np.complex128)
    s = np.empty((h, k))
    vh = np.empty((h, kv, n2), dtype=np.complex128)

    real = real_slices(n3)
    cx = complex_slices(n3)
    try:
        u[real], s[real], vh[real] = np.linalg.svd(half[real].real, full_matrices=full_matrices)
        u[cx], s[cx], vh[cx] = np.linalg.svd(half[cx], full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"per-slice SVD did not converge: {exc}") from exc
    _count(h)
    return u, s, vh


def _half_singvals(a):
    """Per-slice singular values of the retained Fourier slices.

    Returns (s, weights) where s has shape (h, min(n1, n2)) with rows sorted
    descending, and weights are the slice multiplicities summing to n3.
    """
    a = as_tensor3(a)
    half = half_spectrum(a)
    try:
        s = np.linalg.svd(half, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"per-slice SVD did not converge: {exc}") from exc
    _count(half.shape[0])
    return s, half_weights(a.shape[2])


@dataclass(frozen=True)
class TSvdFactors:
    """Orthogonal u, f-diagonal s, orthogonal v with source = u * s * v^T."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    kind: str  # "full" or "skinny"


def _embed_fdiag(s, n1, n2):
    """(h, k) singular values -> (h, n1, n2) f-diagonal complex slices."""
    h, k = s.shape
    out = np.zeros((h, n1, n2), dtype=np.complex128)
    out[:, np.arange(k), np.arange(k)] = s
    return out


def tsvd(a):
    """Full t-SVD: a = u * s * v^T with real orthogonal u, v and f-diagonal s."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    ubar, sbar, vhbar = _svd_half(half_spectrum(a), n3, full_matrices=True)
    u = from_half_spectrum(ubar, n3)
    s = from_half_spectrum(_embed_fdiag(sbar, n1, n2), n3)
    v = from_half_spectrum(np.conj(np.swapaxes(vhbar, 1, 2)), n3)
    return TSvdFactors(u=u, s=s, v=v, kind="full")


def _avg_singvals(sbar, weights, n3):
    return (weights @ sbar) / n3


def _rank_from_avg(avg, rank_tol):
    if avg.size == 0 or avg[0] <= 0.0:
        return 0
    return int(np.count_nonzero(avg > rank_tol * avg[0]))


def skinny_tsvd(a, rank_tol=DEFAULT_RANK_TOL):
    """Rank-truncated t-SVD with u: (n1, r, n3), s: (r, r, n3), v: (n2, r, n3)."""
    if rank_tol <= 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    a = as_tensor3(a)
    n3 = a.shape[2]
    ubar, sbar, vhbar = _svd_half(half_spectrum(a), n3, full_matrices=False)
    r = _rank_from_avg(_avg_singvals(sbar, half_weights(n3), n3), rank_tol)
    u = from_half_spectrum(ubar[:, :, :r], n3)
    s = from_half_spectrum(_embed_fdiag(sbar[:, :r], r, r), n3)
    v = from_half_spectrum(np.conj(np.swapaxes(vhbar[:, :r, :], 1, 2)), n3)
    return TSvdFactors(u=u, s=s, v=v, kind="skinny")


def singular_values(a):
    """Nonincreasing singular values: the diagonal of s slice 0, equal to the
    average of the per-slice Fourier singular values."""
    sbar, weights = _half_singvals(a)
    return _avg_singvals(sbar, weights, as_tensor3(a).shape[2])


def tubal_rank(a, rank_tol=DEFAULT_RANK_TOL):
    """Number of singular values above rank_tol relative to the largest."""
    if rank_tol <= 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    return _rank_from_avg(singular_values(a), rank_tol)


def average_rank(a, rank_tol=DEFAULT_RANK_TOL):
    """Mean matrix rank of the Fourier slices, a lower bound on tubal rank."""
    if rank_tol <= 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    a = as_tensor3(a)
    sbar, weights = _half_singvals(a)
    smax = float(sbar.max(initial=0.0))
    if smax <= 0.0:
        return 0.0
    counts = (sbar > rank_tol * smax).sum(axis=1)
    return float(weights @ counts) / a.shape[2]


def best_rank_k(a, k):
    """Best approximation of tubal rank at most k: keep the k leading Fourier
    singular triplets of every slice."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    if not 0 <= k <= min(n1, n2):
        raise RankOutOfRange(f"rank {k} outside [0, {min(n1, n2)}]")
    if k == 0:
        return np.zeros_like(a)
    ubar, sbar, vhbar = _svd_half(half_spectrum(a), n3, full_matrices=False)
    trunc = half_matmul(ubar[:, :, :k] * sbar[:, None, :k], vhbar[:, :k, :], n3)
    return from_half_spectrum(trunc, n3)
