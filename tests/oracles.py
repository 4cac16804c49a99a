"""Dense reference operators for the tests.

``bcirc``, ``bdiag``, ``unfold`` and ``fold`` build the block circulant and
block diagonal matrices of the t-product definition; they cost O(n3^2) memory.
``dft3`` and ``idft3`` are the full mode-3 DFT and its inverse. The library
itself works on the real-FFT half spectrum instead (``tubalkit.core``); these
exist only as oracles to check it against, as do ``half_spectrum_by_copy`` and
``from_half_spectrum_by_copy``, the real FFT through a transposed copy, and
``certified_by_fourth_power``, the partial SVD's certificate as one bound,
and ``admm_keeping_dual``, Algorithm 1 with the unscaled dual Y.
``SvdCounter`` spies on ``np.linalg.svd`` to check how many matrix SVDs a call
costs, and ``traced_peak`` measures the memory a call holds at its peak.
"""

import tracemalloc

import numpy as np

from tubalkit.core import WarmStart, as_tensor3, from_half_spectrum, half_spectrum, half_svt
from tubalkit.errors import ShapeMismatch
from tubalkit.prox import soft_threshold
from tubalkit.solver import MU0, MU_MAX, RHO

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


def half_spectrum_by_copy(a):
    """Fourier slices 0..n3 // 2 of a real tensor: rfft, then a contiguous copy
    of its (h, n1, n2) transpose."""
    return np.ascontiguousarray(np.moveaxis(np.fft.rfft(a, axis=2), 2, 0))


def from_half_spectrum_by_copy(stack, n3):
    """The inverse real FFT of an (h, n1, n2) half spectrum, copied to C order."""
    return np.ascontiguousarray(np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2))


def certified_by_fourth_power(a, uk, tau):
    """For each matrix of the batch a: whether ||(g / tau^2)^4||_F < 1 for the
    smaller Gram matrix g of w = (I - uk uk^H) a, which bounds ||w||_2 < tau."""
    ukh = np.conj(np.swapaxes(uk, -1, -2))
    w = a - uk @ (ukh @ a)
    wh = np.conj(np.swapaxes(w, -1, -2))
    g = wh @ w if w.shape[1] >= w.shape[2] else w @ wh
    g /= tau * tau
    for _ in range(2):
        g = g @ g
    return np.linalg.norm(g, axis=(1, 2)) < 1.0


def admm_keeping_dual(x, lam, eps=1e-8, max_iters=500):
    """Algorithm 1 as the paper writes it, keeping Y and subtracting Y / mu from
    both prox arguments, with the solver's mu schedule and stopping rule. L's
    prox thresholds the whole half spectrum through ``half_svt`` with a
    WarmStart of its own, as the solver does. Returns (L, E, iterations,
    certified, fallbacks)."""
    warm = WarmStart()
    n3 = x.shape[2]
    low, sparse, dual = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    mu = MU0
    for iters in range(1, max_iters + 1):
        spectrum = half_spectrum(x - sparse - dual / mu)
        low_new = from_half_spectrum(half_svt(spectrum, n3, 1.0 / mu, warm), n3)
        sparse_new = soft_threshold(x - low_new - dual / mu, lam / mu)
        gap = low_new + sparse_new - x
        done = max(np.max(np.abs(low_new - low)), np.max(np.abs(sparse_new - sparse)),
                   np.max(np.abs(gap))) <= eps
        low, sparse = low_new, sparse_new
        if done:
            break
        dual = dual + mu * gap
        mu = min(mu * RHO, MU_MAX)
    return low, sparse, iters, warm.certified, warm.fallbacks


def traced_peak(call):
    """The bytes that call() holds at its tracemalloc peak beyond what was
    allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


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


class SvdCounter:
    """Counts the matrices ``np.linalg.svd`` decomposes while the test runs.

    Installs itself with ``monkeypatch``, so the real function is restored at
    teardown. A batched call counts every matrix in its batch,
    ``prod(s.shape[:-1])``.
    """

    def __init__(self, monkeypatch):
        self.matrices = 0
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            out = svd(*args, **kwargs)
            s = out[1] if isinstance(out, tuple) else out
            self.matrices += int(np.prod(s.shape[:-1]))
            return out

        monkeypatch.setattr(np.linalg, "svd", counted)
