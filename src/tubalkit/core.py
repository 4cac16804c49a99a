"""Dense 3-way tensor primitives and the mode-3 half-spectrum kernel.

A tensor here is a real float64 ndarray of shape (n1, n2, n3): frontal slice
k is ``a[:, :, k]`` and tube (i, j) is ``a[i, j, :]``. The mode-3 DFT uses the
unnormalized forward / (1/n3)-scaled inverse convention.

The spectrum of a real tensor is conjugate symmetric, so Fourier slices
0..n3 // 2 carry all of it. Every Fourier-domain path works on that half
spectrum, an (h, n1, n2) stack with h = n3 // 2 + 1, through the kernel below:
``half_spectrum`` and ``from_half_spectrum`` are the real FFT and its inverse,
whose output is real by construction. Slice 0, and slice n3 // 2 when n3 is
even, are their own conjugates and therefore real. ``half_matmul`` and
``half_svd``, the per-slice SVD behind every t-SVD, norm and prox, keep them
in real arithmetic, so for n3 = 1 every path reduces to the matrix
computation bit for bit. ``partial_half_svd``, the solver's certified partial
SVD, does too, and hands every slice it cannot certify to ``half_svd``.
"""

import numpy as np

from .errors import NumericalFailure, ShapeMismatch


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


def _batches(stack, n3, which=None):
    """(positions, slices) of the half-spectrum slices `which` (every slice by
    default) in two batches: the real slices as real arrays, then the complex
    ones. Positions index into `which`; empty batches are left out."""
    if which is None:  # a basic slice: the complex batch is a view, not a copy
        real, cx = real_slices(n3), complex_slices(n3)
        parts = ((real, stack[real].real), (cx, stack[cx]))
    else:
        which = np.asarray(which)
        is_real = np.isin(which, real_slices(n3))
        real, cx = np.flatnonzero(is_real), np.flatnonzero(~is_real)
        parts = ((real, stack[which[real]].real), (cx, stack[which[cx]]))
    return [(pos, part) for pos, part in parts if len(part)]


def half_svd(stack, n3, full_matrices=False, compute_uv=True, which=None):
    """SVD of the half-spectrum slices `which` (every slice by default):
    (u, s, vh), or s alone when not compute_uv; s has shape
    (len(which), min(n1, n2)), rows nonincreasing. The real slices are
    decomposed in real arithmetic in both modes."""
    h = len(stack) if which is None else len(which)
    n1, n2 = stack.shape[1:]
    k = min(n1, n2)
    s = np.empty((h, k))
    if compute_uv:
        u = np.empty((h, n1, n1 if full_matrices else k), dtype=np.complex128)
        vh = np.empty((h, n2 if full_matrices else k, n2), dtype=np.complex128)
    try:
        for pos, part in _batches(stack, n3, which):
            if compute_uv:
                u[pos], s[pos], vh[pos] = np.linalg.svd(part, full_matrices=full_matrices)
            else:
                s[pos] = np.linalg.svd(part, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"per-slice SVD did not converge: {exc}") from exc
    return (u, s, vh) if compute_uv else s


# The solver's partial SVD, measured on the 100x100x100 criterion-1 solve.
# A residual of 1e-12 of the slice norm kept every thresholding step within
# 1e-12 of the exact one and the 41 iterations unchanged. A warm start meets
# it in ~7 steps, each gaining (0.47 / 1.6)^2 on the residual, the ratio of the
# first dropped to the last kept singular value; with 16 steps 2074 of 2091
# slice SVDs were certified, with 12 2031, with 4 637.
PARTIAL_SVD_TOL = 1e-12
PARTIAL_SVD_STEPS = 16


def _ct(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _certified(a, uk, tau):
    """Whether, for each matrix of the batch a, the spectral norm of
    w = (I - uk uk^H) a is below tau, by its upper bound ||(w^H w)^4||_F^(1/8).
    It bounds the norm of what the triplets leave out, w (I - vk vk^H)."""
    w = a - uk @ (_ct(uk) @ a)
    g = _ct(w) @ w if w.shape[1] >= w.shape[2] else w @ _ct(w)
    g /= tau * tau
    for _ in range(2):
        g = g @ g
    return np.linalg.norm(g, axis=(1, 2)) < 1.0


def _subspace_svd(a, v, tau):
    """Top singular triplets of each matrix of the batch a by subspace
    iteration from the columns v; returns (u, s, vh, certified)."""
    scale = np.linalg.norm(a, axis=(1, 2))
    y = a @ v
    for _ in range(PARTIAL_SVD_STEPS):
        q = np.linalg.qr(y)[0]
        v, r = np.linalg.qr(_ct(_ct(q) @ a))
        # a^H q = v r = (v ur) s wh, so a ~ q q^H a = (q wh^H) s (v ur)^H.
        ur, s, wh = np.linalg.svd(r)
        u, v = q @ _ct(wh), v @ ur
        y = a @ v
        kept = (s > tau)[:, None, :]
        fits = np.linalg.norm((y - u * s[:, None, :]) * kept, axis=(1, 2)) <= PARTIAL_SVD_TOL * scale
        if fits.all():
            break
    return u, s, _ct(v), fits & _certified(a, u * kept, tau)


def partial_half_svd(stack, n3, tau, basis):
    """Leading singular triplets of every half-spectrum slice, certified for
    thresholding at tau, from subspace iteration on the (h, n2, l) start
    `basis`; l must not exceed min(n1, n2). Returns (u, s, vh, certified).

    A slice is certified when its triplets with s > tau leave a residual
    ||a v - u s||_F at most PARTIAL_SVD_TOL * ||a||_F (u^H a = s v^H holds by
    construction) and an upper bound on the spectral norm of what they leave
    out is below tau. Thresholding the certified triplets at tau is then
    within that residual of the exact singular value thresholding of the
    slice, because the prox is nonexpansive. The real slices stay in real
    arithmetic. Every other slice, NaN included, is decomposed in one batch by
    half_svd, and the triplets are padded with zeros to the widest kept rank.
    With no slice certified the result is half_svd(stack, n3), bit for bit.
    """
    h, n1, n2 = stack.shape
    l = basis.shape[2]
    u = np.empty((h, n1, l), dtype=np.complex128)
    s = np.empty((h, l))
    vh = np.empty((h, l, n2), dtype=np.complex128)
    certified = np.zeros(h, dtype=bool)
    for pos, part in _batches(stack, n3):
        start = basis[pos] if np.iscomplexobj(part) else basis[pos].real
        # A non-finite or unconverged batch is left uncertified for half_svd.
        with np.errstate(all="ignore"):
            try:
                u[pos], s[pos], vh[pos], certified[pos] = _subspace_svd(part, start, tau)
            except np.linalg.LinAlgError:
                pass
    failed = np.flatnonzero(~certified)
    if failed.size == h:
        return (*half_svd(stack, n3), certified)
    if failed.size:
        fu, fs, fvh = half_svd(stack, n3, which=failed)
        w = max(l, int(np.count_nonzero(fs > tau, axis=1).max()))
        u = np.pad(u, ((0, 0), (0, 0), (0, w - l)))
        s = np.pad(s, ((0, 0), (0, w - l)))
        vh = np.pad(vh, ((0, 0), (0, w - l), (0, 0)))
        u[failed], s[failed], vh[failed] = fu[:, :, :w], fs[:, :w], fvh[:, :w]
    return u, s, vh, certified


def from_half_svd(u, s, vh, n3):
    """The real tensor whose half-spectrum slices are u @ diag(s) @ vh."""
    return from_half_spectrum(half_matmul(u * s[:, None, :], vh, n3), n3)


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
