"""Dense reference operators for the tests.

``bcirc``, ``bdiag``, ``unfold`` and ``fold`` build the block circulant and
block diagonal matrices of the t-product definition; they cost O(n3^2) memory.
``dft3`` and ``idft3`` are the full mode-3 DFT and its inverse. The library
itself works on the real-FFT half spectrum instead (``tubalkit.core``); these
exist only as oracles to check it against.
"""

import numpy as np

from tubalkit.core import as_tensor3
from tubalkit.errors import ShapeMismatch

# Residual imaginary mass below this (relative) is FFT rounding noise and is
# discarded; above it the caller built an invalid Fourier tensor.
IMAG_TOL = 1e-8


class SymmetryViolation(ValueError):
    """A Fourier-domain tensor lacks the conjugate symmetry of a real signal."""


def imag_ratio(z):
    """Relative Frobenius mass of the imaginary part of a complex array."""
    denom = np.linalg.norm(z.ravel())
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(z.imag.ravel()) / denom)


def dft3(a):
    """DFT along every tube: the mode-3 spectrum of a real tensor."""
    return np.fft.fft(as_tensor3(a), axis=2)


def idft3(abar, tol=IMAG_TOL):
    """Inverse mode-3 DFT back to a real tensor.

    Raises SymmetryViolation if the inverse transform carries more relative
    imaginary mass than `tol`, which means `abar` was not conjugate symmetric.
    """
    abar = np.asarray(abar, dtype=np.complex128)
    if abar.ndim != 3:
        raise ShapeMismatch(f"expected a 3-way tensor, got ndim={abar.ndim}")
    z = np.fft.ifft(abar, axis=2)
    ratio = imag_ratio(z)
    if ratio > tol:
        raise SymmetryViolation(
            f"imaginary residual {ratio:.3e} exceeds {tol:.1e}; "
            "input is not the spectrum of a real tensor"
        )
    return np.ascontiguousarray(z.real)


def bcirc(a):
    """Dense block circulant matrix of shape (n1*n3, n2*n3); block (p, q) is
    frontal slice (p - q) mod n3."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    out = np.zeros((n1 * n3, n2 * n3))
    for p in range(n3):
        for q in range(n3):
            out[p * n1:(p + 1) * n1, q * n2:(q + 1) * n2] = a[:, :, (p - q) % n3]
    return out


def bdiag(abar):
    """Dense block diagonal matrix with the frontal slices on the diagonal."""
    abar = np.asarray(abar)
    if abar.ndim != 3:
        raise ShapeMismatch(f"expected a 3-way tensor, got ndim={abar.ndim}")
    n1, n2, n3 = abar.shape
    out = np.zeros((n1 * n3, n2 * n3), dtype=abar.dtype)
    for k in range(n3):
        out[k * n1:(k + 1) * n1, k * n2:(k + 1) * n2] = abar[:, :, k]
    return out


def unfold(a):
    """Stack frontal slices vertically into an (n1*n3) x n2 matrix."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    return a.transpose(2, 0, 1).reshape(n1 * n3, n2)


def fold(m, n3):
    """Inverse of unfold; the row count must be divisible by n3."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got ndim={m.ndim}")
    rows, n2 = m.shape
    if n3 < 1 or rows % n3 != 0:
        raise ShapeMismatch(f"cannot fold {rows} rows into n3={n3} slices")
    return np.ascontiguousarray(m.reshape(n3, rows // n3, n2).transpose(1, 2, 0))
