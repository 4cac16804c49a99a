"""Tensor spectral norm, tensor nuclear norm, incoherence diagnostics, and a
nuclear-norm subgradient verifier.

Both norms are block circulant norms computed in the Fourier domain: the
spectral norm is the largest per-slice matrix spectral norm, and the nuclear
norm is the per-slice matrix nuclear norm summed over all slices and divided
by n3 (equivalently, the sum of the averaged singular values).
"""

from dataclasses import dataclass

import numpy as np

from .algebra import ctranspose, tprod
from .core import as_tensor3, fro_norm, linf_norm
from .decomposition import (
    DEFAULT_RANK_TOL,
    _half_singvals,
    singular_values,
    skinny_tsvd,
)
from .errors import ShapeMismatch, ZeroTensor


def spectral_norm(a):
    """Largest matrix spectral norm across Fourier slices."""
    sbar, _ = _half_singvals(a)
    if sbar.size == 0:
        return 0.0
    return float(sbar.max())


def tnn(a):
    """Tensor nuclear norm: sum of the singular values."""
    return float(np.sum(singular_values(a)))


@dataclass(frozen=True)
class IncoherenceReport:
    """Smallest incoherence parameters consistent with the skinny factors."""

    mu_u: float
    mu_v: float
    mu_joint: float
    r: int


def incoherence(a, rank_tol=DEFAULT_RANK_TOL):
    """Measure the incoherence parameters of a nonzero tensor.

    mu_u is the smallest mu with max_i ||u^T * e_i||_F <= sqrt(mu r / (n1 n3)),
    mu_v analogously over columns, and mu_joint the smallest mu with
    ||u * v^T||_inf <= sqrt(mu r / (n1 n2 n3^2)).
    """
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    fac = skinny_tsvd(a, rank_tol)
    r = fac.u.shape[1]
    if r == 0:
        raise ZeroTensor("incoherence is undefined for the zero tensor")
    # ||ctranspose(u) * e_i||_F^2 = (1/n3) * sum_j ||row i of Fourier slice j||^2
    # because the column basis tensor has an all-ones Fourier tube; by
    # Parseval that is the squared Frobenius norm of horizontal slice i of u.
    row_mass_u = np.sum(fac.u**2, axis=(1, 2))
    row_mass_v = np.sum(fac.v**2, axis=(1, 2))
    mu_u = n1 * n3 / r * float(row_mass_u.max())
    mu_v = n2 * n3 / r * float(row_mass_v.max())
    uv = tprod(fac.u, ctranspose(fac.v))
    mu_joint = n1 * n2 * n3**2 / r * linf_norm(uv) ** 2
    return IncoherenceReport(mu_u=mu_u, mu_v=mu_v, mu_joint=mu_joint, r=r)


def check_subgradient(a, w, tol=1e-8):
    """Verify that u * v^T + w is a subgradient of the nuclear norm at `a`:
    w must be orthogonal to the skinny factors on both sides and have
    spectral norm at most 1 (within tol)."""
    a = as_tensor3(a)
    w = as_tensor3(w)
    if a.shape != w.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {w.shape}")
    fac = skinny_tsvd(a)
    if fro_norm(tprod(ctranspose(fac.u), w)) > tol:
        return False
    if fro_norm(tprod(w, fac.v)) > tol:
        return False
    return spectral_norm(w) <= 1.0 + tol
