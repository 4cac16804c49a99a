"""t-SVD factorization, singular values, tubal/average rank, best rank-k.

The factorization decomposes the real-FFT half spectrum, Fourier slices
0..n3 // 2, and inverts each factor with the inverse real FFT, which implies
the conjugate slices. Decomposing all n3 slices independently would break
realness, because the matrix SVD is not unique; here the factors are real by
construction.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    as_tensor3,
    average_singular_values,
    from_half_spectrum,
    half_matmul,
    half_spectrum,
    half_svd,
    half_weights,
    is_bool,
    is_integer,
    leading_half_svd,
    rank_above,
)
from .errors import RankOutOfRange

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class TSvdFactors:
    """Orthogonal u, f-diagonal s, orthogonal v with source = u * s * v^T."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    kind: str  # "full" or "skinny"


def _factors(u, s, vh, n3, kind):
    """TSvdFactors from half-spectrum SVD factors; s becomes the f-diagonal middle factor."""
    h, k = s.shape
    sdiag = np.zeros((h, u.shape[2], vh.shape[1]), dtype=np.complex128)
    sdiag[:, np.arange(k), np.arange(k)] = s
    return TSvdFactors(
        u=from_half_spectrum(u, n3),
        s=from_half_spectrum(sdiag, n3),
        v=from_half_spectrum(np.conj(np.swapaxes(vh, 1, 2)), n3),
        kind=kind,
    )


def tsvd(a):
    """Full t-SVD: a = u * s * v^T with real orthogonal u, v and f-diagonal s."""
    a = as_tensor3(a)
    n3 = a.shape[2]
    u, s, vh = half_svd(half_spectrum(a), n3, full_matrices=True)
    return _factors(u, s, vh, n3, "full")


def skinny_tsvd(a):
    """Rank-truncated t-SVD with u: (n1, r, n3), s: (r, r, n3), v: (n2, r, n3),
    from the tubal rank's Fourier triplets that ``core.leading_half_svd``
    gives."""
    a = as_tensor3(a)
    n3 = a.shape[2]
    return _factors(*leading_half_svd(half_spectrum(a), n3, DEFAULT_RANK_TOL), n3, "skinny")


def singular_values(a):
    """Nonincreasing singular values: the diagonal of s slice 0, equal to the
    average of the per-slice Fourier singular values."""
    a = as_tensor3(a)
    n3 = a.shape[2]
    return average_singular_values(half_svd(half_spectrum(a), n3, compute_uv=False), n3)


def tubal_rank(a, rank_tol=DEFAULT_RANK_TOL):
    """Number of singular values above rank_tol relative to the largest: the
    columns of the values that ``core.leading_half_svd`` returns."""
    if is_bool(rank_tol) or not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    a = as_tensor3(a)
    return leading_half_svd(half_spectrum(a), a.shape[2], rank_tol, compute_uv=False).shape[1]


def average_rank(a):
    """Mean matrix rank of the Fourier slices, a lower bound on tubal rank."""
    a = as_tensor3(a)
    n3 = a.shape[2]
    counts = rank_above(half_svd(half_spectrum(a), n3, compute_uv=False), DEFAULT_RANK_TOL)
    return float(half_weights(n3) @ counts) / n3


def best_rank_k(a, k):
    """Best approximation of tubal rank at most k: keep the k leading Fourier
    singular triplets of every slice."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    if not is_integer(k) or not 0 <= k <= min(n1, n2):
        raise RankOutOfRange(f"rank must be an integer in [0, {min(n1, n2)}], got {k}")
    u, s, vh = half_svd(half_spectrum(a), n3)
    return from_half_spectrum(half_matmul(u[:, :, :k] * s[:, None, :k], vh[:, :k, :], n3), n3)
