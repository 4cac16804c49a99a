"""Dense 3-way tensor primitives and the mode-3 half-spectrum kernel.

A tensor here is a real float64 ndarray of shape (n1, n2, n3): frontal slice
k is ``a[:, :, k]`` and tube (i, j) is ``a[i, j, :]``. The mode-3 DFT uses the
unnormalized forward / (1/n3)-scaled inverse convention. The rules for a
tensor input are written once, here: ``as_tensor3`` for its type and shape,
``check_dims`` for dimensions given as numbers and ``as_finite_tensor3`` for
an input that must be finite.

The spectrum of a real tensor is conjugate symmetric, so Fourier slices
0..n3 // 2 carry all of it. Every Fourier-domain path works on that half
spectrum, an (h, n1, n2) stack with h = n3 // 2 + 1, through the kernel below:
``half_spectrum`` and ``from_half_spectrum`` are the real FFT and its inverse,
whose output is real by construction. Slice 0, and slice n3 // 2 when n3 is
even, are their own conjugates and therefore real. ``half_matmul`` and
``half_svd``, the per-slice SVD behind every t-SVD and norm, keep them in
real arithmetic, so for n3 = 1 every path reduces to the matrix computation
bit for bit. ``half_svt``, the singular value thresholding behind ``tsvt``
and the solve, does too, overwrites the stack it is given and keeps the
singular values of its result in the solve's ``WarmStart``. It alone
decides when a slice of the solve may take a certified partial SVD, started
from its ``WarmStart``'s vectors, and thresholds every other slice exactly. The
partial SVD is a shifted subspace iteration: each cycle is one Rayleigh-Ritz
step and one step in a^H a, shifted so that it damps the singular values below
the block's towards zero, and a slice is certified at the cycle it stops.
``leading_half_svd``, behind the skinny t-SVD and the tubal rank, runs the
same partial SVD from fixed-seed columns and returns the tubal rank's
triplets, or their values alone: the partial SVD's when it certifies every
slice, else ``half_svd``'s, cut where ``rank_above`` counts the rank.

The kernels take the slices, and ``half_svt`` its start columns, from
``_batches`` at basic slices: each real one alone, the complex ones in
contiguous blocks of at most BLOCK_BYTES, so their temporaries stay block-sized
however long the spectrum is. No slice's result depends on the slices batched
with it: the partial SVD stops and certifies each slice at the first cycle
whose triplets fit, so the outputs are the same bytes for any block size.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, NumericalFailure, ShapeMismatch


def as_tensor3(a):
    """Coerce to a float64 3-way array, rejecting complex input, other ranks
    and an empty third mode, which has no Fourier slices."""
    if np.iscomplexobj(a):
        raise TypeError("expected a real tensor, got complex input")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] == 0:
        raise ShapeMismatch(f"expected a 3-way tensor with n3 >= 1, got shape {a.shape}")
    return a


def as_finite_tensor3(a):
    """``as_tensor3`` for an input that must be finite: a NaN or infinite
    entry is a NonFiniteInput."""
    a = as_tensor3(a)
    if not np.isfinite(a).all():
        raise NonFiniteInput("input tensor contains NaN or Inf")
    return a


def check_dims(n1, n2, n3, least=0):
    """The rule of as_tensor3 for dimensions given as numbers: integers, n1 and
    n2 at least `least`, n3 >= 1."""
    dims = (n1, n2, n3)
    if not all(map(is_integer, dims)) or min(n1, n2) < least or n3 < 1:
        raise ShapeMismatch(f"need integers n1, n2 >= {least} and n3 >= 1, got {dims}")


def is_bool(x):
    """True for a Python or numpy bool, which compares as 0 or 1 but is no
    dimension, count, rate, threshold or tolerance."""
    return isinstance(x, (bool, np.bool_))


def is_integer(x):
    """True for a Python or numpy integer other than a bool, the one type that
    the package takes for a dimension, rank, count or iteration budget."""
    return isinstance(x, numbers.Integral) and not is_bool(x)


def half_spectrum(a, out=None):
    """Slices 0..n3 // 2 of a real tensor's mode-3 FFT, written straight in (h, n1, n2) C order,
    or into `out`, which may be a view such as the rows stack[:, rows] of a larger stack."""
    if out is None:
        out = np.empty((a.shape[2] // 2 + 1, *a.shape[:2]), dtype=np.complex128)
    # The non-finite spectrum of a non-finite or huge tensor is _svd's to reject.
    with np.errstate(invalid="ignore", over="ignore"):
        np.fft.rfft(a, axis=2, out=np.moveaxis(out, 0, 2))
    return out


def from_half_spectrum(stack, n3, out=None):
    """The real (n1, n2, n3) tensor whose half spectrum is the (h, n1, n2) `stack`,
    written by the inverse real FFT straight into C order, into `out` if given;
    the imaginary parts of the self-conjugate slices are ignored."""
    if out is None:
        out = np.empty((*stack.shape[1:], n3))
    return np.fft.irfft(np.moveaxis(stack, 0, 2), n=n3, axis=2, out=out)


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


def average_singular_values(s, n3):
    """The t-SVD singular values from the singular values s, (h, k), of the
    half-spectrum slices: their mean over all n3 Fourier slices, the one place
    that averages them. For s < 2^e and n3 < 2^f the sum is below 2^(e + f),
    so it is taken at the scale 2^-(e + f - 1023) where e + f exceeds 1023:
    a finite mean stays finite, and a power of two changes no other bit."""
    shift = max(0, math.frexp(s.max(initial=0.0))[1] + math.frexp(n3)[1] - 1023)
    return half_weights(n3) @ np.ldexp(s, -shift) / n3 * 2.0**shift


def half_matmul(a, b, n3):
    """Slice-wise a @ b of two half-spectrum stacks; real slices in real arithmetic."""
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.complex128)
    for pos, x, y in _batches(n3, a, b):
        out[pos] = x @ y
    return out


# Bytes of spectrum in one block of complex slices; the kernels below hold a few
# blocks of temporaries at a time. The smallest, so the lowest peak, of the sizes
# that took the same time on the criterion-1 solve (CHANGES.md, "The half
# spectrum is thresholded in blocks of slices").
BLOCK_BYTES = 1 << 19


def runs(shape, nbytes, dtype=np.float64):
    """(span, buffer) for each run of the leading axis of `shape` of at most
    `nbytes`, one entry at least: its slice of that axis, and its view of the one
    array of `dtype` that every run shares. The one walk of bounded runs."""
    n, *rest = shape
    step = max(1, nbytes // max(1, np.dtype(dtype).itemsize * math.prod(rest)))
    buffer = np.empty((min(step, n), *rest), dtype=dtype)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n)), buffer[:n - start]


def _batches(n3, *stacks):
    """(position, the slices of each stack there) over the half spectrum, the
    one place that splits it, at basic slices: each real one alone, a copy of
    its real part in the stack's layout, then the complex ones in contiguous
    blocks, views, of at most BLOCK_BYTES of the widest stack's slices."""
    for k in real_slices(n3):
        yield slice(k, k + 1), *(s.real[k:k + 1].copy("K") for s in stacks)
    cx = complex_slices(n3)
    step = max(1, BLOCK_BYTES // max(1, *(s[0].nbytes for s in stacks)))
    for start in range(cx.start, cx.stop, step):
        pos = slice(start, min(start + step, cx.stop))
        yield pos, *(s[pos] for s in stacks)


def _svd(a, **kwargs):
    """np.linalg.svd of a batch of matrices. A non-finite entry, which LAPACK
    is not given, non-convergence and a non-finite singular value, which a
    finite batch near the float64 limit can return, are a NumericalFailure."""
    if not np.isfinite(a).all():
        raise NumericalFailure("per-slice SVD of a slice with a non-finite entry")
    try:
        out = np.linalg.svd(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"per-slice SVD did not converge: {exc}") from exc
    if not np.isfinite(out[1] if kwargs.get("compute_uv", True) else out).all():
        raise NumericalFailure("per-slice SVD returned a non-finite singular value")
    return out


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
    for pos, part in _batches(n3, stack):
        if compute_uv:
            u[pos], s[pos], vh[pos] = _svd(part, full_matrices=full_matrices)
        else:
            s[pos] = _svd(part, compute_uv=False)
    return (u, s, vh) if compute_uv else s


# A slice fits once its residual is at most PARTIAL_SVD_TOL of its norm, which
# kept every step of the criterion-1 solve within 1e-12 of the exact one
# (CHANGES.md, "Warm-started, certified partial SVD"), or stops uncertified after
# PARTIAL_SVD_CYCLES cycles: there 7 certify 25 slices fewer than 8 (CHANGES.md,
# "core's tuning history").
PARTIAL_SVD_TOL = 1e-12
PARTIAL_SVD_CYCLES = 8
# Columns of the partial SVD beyond the last kept rank, fewer than a cold start
# takes because each slice starts from the last iteration's singular vectors: the
# smallest that slows no benchmark solve (CHANGES.md, "`core.OVERSAMPLE`, the
# partial SVD's columns beyond the kept rank").
OVERSAMPLE = 3
# The partial SVD runs while PARTIAL_SVD_FRACTION * (kept rank + OVERSAMPLE) is
# at most min(n1, n2): 4 ran the phase grid fastest of 2 to 8, and 40x40x400 as
# fast as 3 (CHANGES.md, "The certified partial SVD now runs on slices four
# times its column count wide").
PARTIAL_SVD_FRACTION = 4


def _ct(a):
    return np.conj(np.swapaxes(a, -1, -2))


def _fro_norms(x):
    """The Frobenius norm of each matrix of the batch x, by one vecdot over its
    flattened matrices: np.linalg.norm over axes (1, 2) of a complex batch
    takes two batch-sized temporaries, its conjugate and the product."""
    x = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(x, x).real)


def _certified(x, uk, tau):
    """Whether the spectral norm of w = (I - uk uk^H) x is below tau, by its
    upper bound ||(w^H w)^4||_F^(1/8). It bounds the norm of what the triplets
    leave out, w (I - vk vk^H). The bounds for p = 1 and 2 of
    ||(w^H w)^p||_F^(1/2p), a Schatten norm, never smaller, decide first, so
    each power is formed only while undecided. g is the smaller Gram matrix,
    w^H w, or w w^H for a wide w."""
    w = x - uk @ (_ct(uk) @ x)
    g = _ct(w) @ w if w.shape[0] >= w.shape[1] else w @ _ct(w)
    g /= tau * tau
    for _ in range(2):  # p = 1, then 2
        if _fro_norms(g[None])[0] < 1.0:
            return True
        g = g @ g
    return bool(_fro_norms(g[None])[0] < 1.0)


@np.errstate(all="ignore")
def _subspace_svd(a, v, tau):
    """Top singular triplets of each matrix of the batch a by shifted subspace
    iteration from the columns v; returns (u, s, vh, certified).

    Each cycle is a Rayleigh-Ritz step, q = qr(a v), z = a^H q and the
    eigenpairs (w, s^2) of z^H z, giving u = q w and v = z w / s, so that
    u^H a = s v^H; then, unless the triplets fit, one shifted step
    v <- (a^H a / s_1^2 - h) v, h = (s_l / s_1)^2 / 2, which maps the Ritz
    values below s_l into [-h, h] and s_1 to 1 - h. A matrix stops at the
    first cycle whose triplets fit, keeps them and is certified there by
    ``_certified``; one that does not fit within PARTIAL_SVD_CYCLES cycles,
    or whose l Ritz values all exceed tau at the first cycle, is not
    certified. So its result does not depend on the rest of the batch.
    It warns nothing: a non-finite matrix is left uncertified, and so is the
    whole batch when LAPACK fails to converge on it.
    The (n, l) temporaries are freed or overwritten where they die, so that
    few of them are alive at once."""
    # Contiguous, as the active subsets below are, so that a matrix meets the
    # same layouts in a batch and alone, also for a strided batch.
    a, v = np.ascontiguousarray(a), np.ascontiguousarray(v)
    (m, n1, n2), l = a.shape, v.shape[2]
    u, s = np.empty((m, n1, l), dtype=np.result_type(a, v)), np.empty((m, l))
    vh, ok = np.empty((m, l, n2), dtype=u.dtype), np.zeros(m, dtype=bool)
    scale = _fro_norms(a)
    act, b = np.arange(m), a  # the matrices still stepping
    y = a @ v
    try:
        for cycle in range(PARTIAL_SVD_CYCLES):
            q = np.linalg.qr(y)[0]
            z = _ct(_ct(q) @ b)  # a^H q
            s2, w = np.linalg.eigh(_ct(z) @ z)
            sb, w = np.sqrt(np.maximum(s2[:, ::-1], 0.0)), w[:, :, ::-1]
            r, v = q @ w, z @ w  # r holds u, then the residual
            del q, z
            np.divide(v, sb[:, None, :], out=v, where=sb[:, None, :] > 0)  # z w is ~0 where s = 0
            y = b @ v
            u[act], s[act], vh[act] = r, sb, _ct(v)
            np.subtract(y, np.multiply(r, sb[:, None, :], out=r), out=r)  # a v - u s
            r *= (sb > tau)[:, None, :]
            fit = _fro_norms(r) <= PARTIAL_SVD_TOL * scale[act]
            del r
            # A block whose values all exceed tau at the first cycle may not hold
            # every value above it: it stops there, uncertified.
            full = (sb[:, -1] > tau) & (cycle == 0)
            for i in act[fit & ~full]:
                ok[i] = _certified(a[i], u[i] * (s[i] > tau), tau)
            fit |= full
            if fit.all() or cycle == PARTIAL_SVD_CYCLES - 1:
                break
            if fit.any():
                act, y, v, sb = (t[~fit] for t in (act, y, v, sb))
                b = a[act]
            # A matrix that does not fit keeps some s > tau >= 0, so s_1 > 0.
            v *= ((sb[:, -1] / sb[:, 0]) ** 2 / 2)[:, None, None]  # h v
            np.subtract(_ct(_ct(y) @ b) / sb[:, :1, None] ** 2, v, out=v)
            y = b @ v
    except np.linalg.LinAlgError:  # none of the batch is certified
        ok[:] = False
    return u, s, vh, ok


@dataclass
class WarmStart:
    """State that ``half_svt`` carries from one call to the next within one
    solve, hence for one shape: the leading right singular vectors of every
    half-spectrum slice, the singular values that the last call kept and their
    largest count on a slice, plus the counts of slice SVDs the partial path
    certified and of those that fell back to the exact SVD."""

    basis: np.ndarray | None = None  # (h, n2, l) right singular vectors
    kept: np.ndarray | None = None  # (h, min(n1, n2)) max(s - tau, 0), nonincreasing rows
    rank: int = 0
    certified: int = 0
    fallbacks: int = 0


def half_svt(stack, n3, tau, warm=None):
    """Singular value thresholding at tau of every half-spectrum slice:
    u max(s - tau, 0) vh, written over the (h, n1, n2) `stack`, which it returns.

    Without a ``WarmStart`` every slice takes the full SVD. With one, while
    PARTIAL_SVD_FRACTION * l is at most min(n1, n2) for l = warm.rank +
    OVERSAMPLE (a quarter of the slice width: 10 columns, a kept rank of 7, on
    40-wide slices), each slice first gets its l leading triplets by shifted
    subspace iteration, started from the previous call's right singular
    vectors, then fixed-seed random columns. It is certified when some of its l
    Ritz values are at most tau at the first cycle, and those with
    s > tau leave a residual ||a v - u s||_F at most PARTIAL_SVD_TOL * ||a||_F
    (u^H a = s v^H holds by construction) and an upper bound on the spectral
    norm of what they leave out is below tau; because the prox is
    nonexpansive, the result is then within that residual of the exact one.
    Every other slice, NaN included, takes the full SVD and the same rebuild
    as without a ``WarmStart``, so it is thresholded exactly. Every slice is
    rebuilt in place, a real one in real arithmetic. ``warm`` keeps the l
    leading right singular vectors, each slice's kept values max(s - tau, 0),
    which are the singular values of the result, the largest kept rank that
    they count and the counts of certified and fallen-back slices.
    """
    h, n1, n2 = stack.shape
    l = 0 if warm is None else warm.rank + OVERSAMPLE
    if PARTIAL_SVD_FRACTION * l > min(n1, n2):
        l = 0
    # The start basis; each batch's new right singular vectors replace its own.
    basis = None if warm is None else warm.basis
    if basis is None:
        basis = np.empty((h, n2, 0), dtype=np.complex128)
    if basis.shape[2] != l:  # else reused in place: each batch reads its start columns before it writes
        extra = np.random.default_rng(0).standard_normal((h, n2, l - min(l, basis.shape[2])))
        basis = np.concatenate([basis[:, :, :l], extra], axis=2, dtype=np.complex128)
    if warm is not None:  # a previous basis not reused is freed now; this one is filled batch by batch
        warm.basis = basis

    kept, certified = np.zeros((h, min(n1, n2))), 0
    for pos, a, start in _batches(n3, stack, basis):
        ok, triplets = np.zeros(len(a), dtype=bool), None
        if l:
            *triplets, ok = _subspace_svd(a, start, tau)
        certified += int(ok.sum())
        # A mixed batch goes one slice at a time, the certified ones first, so that
        # the full SVD copies no more of the batch than the exact path does.
        parts = [slice(i, i + 1) for i in np.argsort(~ok, kind="stable")]
        for view in [slice(None)] if ok.all() or not ok.any() else parts:
            if ok[view].all():
                u, s, vh = (t[view] for t in triplets)
            else:
                triplets = None  # freed before the full SVD
                u, s, vh = _svd(a[view], full_matrices=False)
            basis[pos][view] = _ct(vh[:, :l])
            u *= np.maximum(s - tau, 0.0, out=kept[pos][view, :s.shape[1]])[:, None, :]
            np.matmul(u, vh, out=stack[pos][view])
            del u, s, vh  # freed before the next part's SVD
    if warm is not None:
        warm.kept, warm.rank = kept, int(np.count_nonzero(kept, axis=1).max())
        if l:
            warm.certified += certified
            warm.fallbacks += h - certified
    return stack


def rank_above(avg, rank_tol):
    """How many of the singular values avg exceed rank_tol times the largest
    of all, counted along the last axis: the tubal rank at rank_tol, the one
    place that counts it. A cut beyond the float64 range counts none."""
    with np.errstate(over="ignore"):
        return np.count_nonzero(avg > rank_tol * avg.max(initial=0.0), axis=-1)


def leading_half_svd(stack, n3, rank_tol, compute_uv=True):
    """The leading r singular triplets (u, s, vh) of every half-spectrum
    slice, or s alone when not compute_uv, as ``half_svd`` returns them, for
    r the tubal rank at rank_tol that ``rank_above`` counts off their
    averaged values.

    The certified partial SVD of ``half_svt`` takes l = min(n1, n2) //
    PARTIAL_SVD_FRACTION triplets of each slice, started from fixed-seed
    random columns, at tau = rank_tol * sum_j w_j ||a_j||_F / (n3 sqrt(min(n1,
    n2))): at most rank_tol times the largest averaged value, because s_j1 >=
    ||a_j||_F / sqrt(min(n1, n2)). A certified slice has every singular value
    beyond its kept triplets below tau, so an averaged value is off by less
    than tau, and none beyond the l reaches the cut. A slice whose l values
    all exceed tau at the first cycle is not certified. Unless every slice is
    certified and no averaged value lies within tau of the cut, or when l = 0,
    r and the triplets come from ``half_svd(stack, n3,
    compute_uv=compute_uv)``: without vectors, a dense stack pays one cycle
    on its first slice beyond the values-only SVD.
    """
    h, n1, n2 = stack.shape
    l, w = min(n1, n2) // PARTIAL_SVD_FRACTION, half_weights(n3)
    certified = False
    if l:
        with np.errstate(all="ignore"):  # the norms of a non-finite stack
            tau = rank_tol * (w @ _fro_norms(stack)) / (n3 * math.sqrt(min(n1, n2)))
        s = np.empty((h, l))
        if compute_uv:  # else each batch's vectors are dropped with it
            u, vh = np.empty((h, n1, l), dtype=np.complex128), np.empty((h, l, n2), dtype=np.complex128)
        start = np.random.default_rng(0).standard_normal((h, n2, l))
        for pos, a, v in _batches(n3, stack, start):
            bu, s[pos], bvh, ok = _subspace_svd(a, v, tau)
            if not ok.all():
                break
            if compute_uv:
                u[pos], vh[pos] = bu, bvh
        else:
            avg = average_singular_values(s, n3)
            with np.errstate(all="ignore"):  # a cut beyond the float64 range, or a non-finite tau
                certified = not np.any(np.abs(avg - rank_tol * avg.max()) <= tau)
    if not certified:
        u, s, vh = half_svd(stack, n3) if compute_uv else (None, half_svd(stack, n3, compute_uv=False), None)
    r = rank_above(average_singular_values(s, n3), rank_tol)
    return (u[:, :, :r], s[:, :r], vh[:, :r]) if compute_uv else s[:, :r]


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
    """Largest |entry|: +0.0 if none, NaN if any is NaN; real arrays by their extremes."""
    a = np.abs(a) if np.iscomplexobj(a) else np.asarray(a)
    return float(np.maximum(abs(a.max(initial=0.0)), abs(a.min(initial=0.0))))
