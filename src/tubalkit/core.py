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
``half_svd``, the per-slice SVD behind every t-SVD and norm, keep them in
real arithmetic, so for n3 = 1 every path reduces to the matrix computation
bit for bit. ``half_svt``, the singular value thresholding behind every
``tsvt``, does too; given a start basis it tries a certified partial SVD
first, and thresholds every slice it cannot certify exactly as it does
without one.
"""

import numpy as np

from .errors import NumericalFailure, ShapeMismatch


def as_tensor3(a):
    """Coerce to a float64 3-way array, rejecting complex input, other ranks
    and an empty third mode, which has no Fourier slices."""
    if np.iscomplexobj(a):
        raise TypeError("expected a real tensor, got complex input")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] == 0:
        raise ShapeMismatch(f"expected a 3-way tensor with n3 >= 1, got shape {a.shape}")
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


def _batches(stack, n3):
    """(positions, slices) of the half spectrum in two batches: the real slices
    as real arrays, then the complex ones, a view. Empty batches are left out."""
    real, cx = real_slices(n3), complex_slices(n3)
    return [(pos, part) for pos, part in ((real, stack[real].real), (cx, stack[cx])) if len(part)]


def _svd(a, **kwargs):
    """np.linalg.svd of a batch of matrices; non-convergence is a NumericalFailure."""
    try:
        return np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"per-slice SVD did not converge: {exc}") from exc


def half_svd(stack, n3, full_matrices=False, compute_uv=True):
    """SVD of every half-spectrum slice: (u, s, vh), or s alone when not
    compute_uv; s has shape (h, min(n1, n2)), rows nonincreasing. The real
    slices are decomposed in real arithmetic in both modes."""
    h, n1, n2 = stack.shape
    k = min(n1, n2)
    s = np.empty((h, k))
    if compute_uv:
        u = np.empty((h, n1, n1 if full_matrices else k), dtype=np.complex128)
        vh = np.empty((h, n2 if full_matrices else k, n2), dtype=np.complex128)
    for pos, part in _batches(stack, n3):
        if compute_uv:
            u[pos], s[pos], vh[pos] = _svd(part, full_matrices=full_matrices)
        else:
            s[pos] = _svd(part, compute_uv=False)
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


def half_svt(stack, n3, tau, basis=None):
    """Singular value thresholding at tau of every half-spectrum slice:
    u max(s - tau, 0) vh. Returns (out, kept, v, certified): the thresholded
    (h, n1, n2) stack and, per slice, the count of singular values above tau,
    the (n2, l) leading right singular vectors and whether the partial SVD
    was certified.

    Without a basis l = 0 and every slice takes the full SVD. With an
    (h, n2, l) start `basis`, l at most min(n1, n2), each slice first gets
    its l leading triplets by subspace iteration. It is certified when those
    with s > tau leave a residual ||a v - u s||_F at most PARTIAL_SVD_TOL *
    ||a||_F (u^H a = s v^H holds by construction) and an upper bound on the
    spectral norm of what they leave out is below tau; because the prox is
    nonexpansive, the result is then within that residual of the exact one.
    Every other slice, NaN included, takes the full SVD and the same rebuild
    as without a basis, so it is thresholded exactly. The real slices stay in
    real arithmetic.
    """
    h, n1, n2 = stack.shape
    l = 0 if basis is None else basis.shape[2]
    batches = []
    for pos, a in _batches(stack, n3):
        triplets, ok = None, np.zeros(len(a), dtype=bool)
        if l:
            start = basis[pos] if np.iscomplexobj(a) else basis[pos].real
            # A non-finite or unconverged batch is left uncertified.
            with np.errstate(all="ignore"):
                try:
                    *triplets, ok = _subspace_svd(a, start, tau)
                except np.linalg.LinAlgError:
                    pass
        batches.append((np.arange(h)[pos], a, triplets, ok))
    # Allocated only now: the subspace iterations' temporaries peak first.
    out = np.empty((h, n1, n2), dtype=np.complex128)
    kept = np.empty(h, dtype=int)
    v = np.empty((h, n2, l), dtype=np.complex128)
    certified = np.zeros(h, dtype=bool)
    for idx, a, triplets, ok in batches:
        certified[idx] = ok
        parts = [(idx[ok], [t[ok] for t in triplets])] if ok.any() else []
        if not ok.all():  # a[~ok] is a copy, a itself a view
            parts.append((idx[~ok], _svd(a[~ok] if ok.any() else a, full_matrices=False)))
        for pos, (u, s, vh) in parts:
            u *= np.maximum(s - tau, 0.0)[:, None, :]
            out[pos], kept[pos], v[pos] = u @ vh, np.count_nonzero(s > tau, axis=1), _ct(vh[:, :l])
    return out, kept, v, certified


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
