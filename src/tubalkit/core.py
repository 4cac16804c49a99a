"""Dense 3-way tensor primitives and the mode-3 half-spectrum kernel.

A tensor here is a real float64 ndarray of shape (n1, n2, n3): frontal slice
k is ``a[:, :, k]`` and tube (i, j) is ``a[i, j, :]``. The mode-3 DFT uses the
unnormalized forward / (1/n3)-scaled inverse convention.

The spectrum of a real tensor is conjugate symmetric, so Fourier slices
0..n3 // 2 carry all of it. Every Fourier-domain path works on that half
spectrum, an (h, n1, n2) stack with h = n3 // 2 + 1, through the kernel below:
``half_spectrum`` and ``from_half_spectrum`` are the real FFT and its inverse,
whose output is real by construction. Slice 0, and slice n3 // 2 when n3 is
even, are their own conjugates and therefore real; ``half_matmul`` and the
per-slice SVD keep them in real arithmetic, so for n3 = 1 every path reduces
to the matrix computation bit for bit.
"""

import numpy as np

from .errors import ShapeMismatch


def as_tensor3(a):
    """Coerce to a float64 3-way array, rejecting complex input and other ranks."""
    if np.iscomplexobj(a):
        raise TypeError("expected a real tensor, got complex input")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeMismatch(f"expected a 3-way tensor, got ndim={a.ndim}")
    return a


def half_spectrum(a):
    """Fourier slices 0..n3 // 2 of a real tensor as an (h, n1, n2) complex stack."""
    return np.ascontiguousarray(np.moveaxis(np.fft.rfft(a, axis=2), 2, 0))


def from_half_spectrum(stack, n3):
    """The real (n1, n2, n3) tensor whose half spectrum is the (h, n1, n2) `stack`.

    The imaginary parts of the self-conjugate slices are ignored.
    """
    return np.ascontiguousarray(np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2))


def real_slices(n3):
    """Indices of the self-conjugate, hence real, half-spectrum slices."""
    return [0, n3 // 2] if n3 % 2 == 0 else [0]


def complex_slices(n3):
    """The half-spectrum slices paired with a conjugate slice in the full spectrum."""
    return slice(1, (n3 + 1) // 2)


def half_weights(n3):
    """Multiplicity of each half-spectrum slice in the full spectrum; sums to n3."""
    w = np.full(n3 // 2 + 1, 2.0)
    w[real_slices(n3)] = 1.0
    return w


def half_matmul(a, b, n3):
    """Slice-wise a @ b of two half-spectrum stacks; real slices in real arithmetic."""
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.complex128)
    cx = complex_slices(n3)
    out[cx] = np.matmul(a[cx], b[cx])
    for i in real_slices(n3):
        out[i] = np.ascontiguousarray(a[i].real) @ np.ascontiguousarray(b[i].real)
    return out


def inner(a, b):
    """Inner product sum(conj(a) * b); real for real operands."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    return np.vdot(a, b)


def fro_norm(a):
    return float(np.linalg.norm(np.asarray(a).ravel()))


def l1_norm(a):
    return float(np.sum(np.abs(a)))


def linf_norm(a):
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))
