"""The t-product and its algebraic companions.

The t-product of (n1, n2, n3) with (n2, l, n3) is defined through the action
of the block circulant matrix on the unfolded right operand; here it is
computed as per-slice matrix products of the two real-FFT half spectra,
followed by the inverse real FFT.
"""

import numpy as np

from .core import as_tensor3, from_half_spectrum, half_matmul, half_spectrum
from .errors import ShapeMismatch


def tprod(a, b):
    """t-product a * b -> tensor of shape (n1, l, n3)."""
    a = as_tensor3(a)
    b = as_tensor3(b)
    n1, n2, n3 = a.shape
    if b.shape[0] != n2 or b.shape[2] != n3:
        raise ShapeMismatch(f"cannot t-multiply {a.shape} by {b.shape}")
    return from_half_spectrum(half_matmul(half_spectrum(a), half_spectrum(b), n3), n3)


def ctranspose(a):
    """Transpose each frontal slice and reverse the order of slices 1..n3-1."""
    a = as_tensor3(a)
    reordered = np.concatenate([a[:, :, :1], a[:, :, :0:-1]], axis=2)
    return np.ascontiguousarray(reordered.transpose(1, 0, 2))


def identity_tensor(n, n3):
    """n x n x n3 tensor whose slice 0 is the identity, other slices zero."""
    if n < 1 or n3 < 1:
        raise ShapeMismatch(f"identity tensor needs positive dims, got ({n}, {n3})")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return out


def is_orthogonal(q, tol=1e-8):
    """True if q* * q = q * q* = identity within Frobenius deviation tol*sqrt(n)."""
    q = as_tensor3(q)
    n1, n2, n3 = q.shape
    if n1 != n2:
        raise ShapeMismatch(f"orthogonality needs square slices, got {q.shape}")
    eye = identity_tensor(n1, n3)
    qt = ctranspose(q)
    dev = max(
        np.linalg.norm((tprod(qt, q) - eye).ravel()),
        np.linalg.norm((tprod(q, qt) - eye).ravel()),
    )
    return bool(dev <= tol * np.sqrt(n1))


def is_fdiagonal(s, tol=1e-8):
    """True if every frontal slice is diagonal within absolute tolerance tol."""
    s = as_tensor3(s)
    n1, n2, _ = s.shape
    off = np.abs(s.copy())
    k = min(n1, n2)
    off[np.arange(k), np.arange(k), :] = 0.0
    return bool(off.size == 0 or np.max(off) <= tol)
