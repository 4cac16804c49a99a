"""Proximal operators: tensor singular value thresholding and elementwise
soft-thresholding.

The shrinkage inside ``tsvt`` acts on the Fourier-domain singular values, not
on the averaged ones; applying it after averaging would not solve the nuclear
norm proximal problem.

``tsvt`` thresholds through ``core.half_svt``: exactly, from every singular
triplet, or, given a ``core.WarmStart``, from certified partial SVDs where the
kernel's policy allows them. The solver calls ``core.half_svt`` itself,
between its own row-chunked transforms.
"""

import numpy as np

from .core import as_tensor3, from_half_spectrum, half_spectrum, half_svt


def soft_threshold(x, kappa, *, out=None):
    """Elementwise sign(x) * max(|x| - kappa, 0) of a real array of any rank,
    written into `out` if given, which may be x itself."""
    if not kappa >= 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    if np.iscomplexobj(x):
        raise TypeError("expected a real array, got complex input")
    x = np.asarray(x, dtype=np.float64)
    clipped = np.clip(x, -kappa, kappa, out=np.empty_like(x))
    out = np.subtract(x, clipped, out=clipped if out is None else out)
    return out if out.ndim else out[()]  # a scalar for a rank-0 input, as a ufunc returns


def tsvt(y, tau, warm=None, *, out=None):
    """Proximal operator of the tensor nuclear norm at threshold tau.

    Minimizes tau * ||x||_tnn + 0.5 * ||x - y||_F^2 by soft-thresholding the
    singular values of each half-spectrum slice and inverting the real FFT.
    For n3 = 1 this is matrix singular value thresholding, bit for bit.

    With a ``core.WarmStart`` the result may come from the certified partial SVD,
    within ~1e-12 of ||y||_F of the exact one, and updates ``warm``; use one
    WarmStart per sequence of related calls, such as one solve.

    The result is written into `out` if given, a float64 array of y's shape
    in C order, which may be y itself: y is read in full before it is written.
    """
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    y = as_tensor3(y)
    n3 = y.shape[2]
    return from_half_spectrum(half_svt(half_spectrum(y), n3, tau, warm), n3, out=out)
