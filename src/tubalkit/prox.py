"""Proximal operators: tensor singular value thresholding and elementwise
soft-thresholding.

The shrinkage inside ``tsvt`` acts on the Fourier-domain singular values, not
on the averaged ones; applying it after averaging would not solve the nuclear
norm proximal problem.

``tsvt`` thresholds exactly, from every singular triplet, through
``core.half_svt``. The solver calls ``core.half_svt`` itself, between its own
row-chunked transforms, with the state that lets it take certified partial
SVDs.
"""

import numpy as np

from .core import as_tensor3, from_half_spectrum, half_spectrum, half_svt, is_bool


def soft_threshold(x, kappa, *, out=None):
    """Elementwise sign(x) * max(|x| - kappa, 0) of a real array of any rank,
    written into `out` if given, which may be x itself."""
    if is_bool(kappa) or not kappa >= 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    if np.iscomplexobj(x):
        raise TypeError("expected a real array, got complex input")
    x = np.asarray(x, dtype=np.float64)
    clipped = np.clip(x, -kappa, kappa, out=np.empty_like(x))
    out = np.subtract(x, clipped, out=clipped if out is None else out)
    return out if out.ndim else out[()]  # a scalar for a rank-0 input, as a ufunc returns


def tsvt(y, tau):
    """Proximal operator of the tensor nuclear norm at threshold tau.

    Minimizes tau * ||x||_tnn + 0.5 * ||x - y||_F^2 by soft-thresholding the
    singular values of each half-spectrum slice and inverting the real FFT.
    For n3 = 1 this is matrix singular value thresholding, bit for bit.
    """
    if is_bool(tau) or not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    y = as_tensor3(y)
    n3 = y.shape[2]
    return from_half_spectrum(half_svt(half_spectrum(y), n3, tau), n3)
