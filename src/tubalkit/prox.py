"""Proximal operators: tensor singular value thresholding and elementwise
soft-thresholding.

The shrinkage inside ``tsvt`` acts on the Fourier-domain singular values, not
on the averaged ones; applying it after averaging would not solve the nuclear
norm proximal problem.
"""

import numpy as np

from .core import as_tensor3, from_half_spectrum, half_matmul, half_spectrum
from .decomposition import _svd_half


def soft_threshold(x, kappa):
    """Elementwise sign(x) * max(|x| - kappa, 0)."""
    if kappa < 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)


def tsvt(y, tau):
    """Proximal operator of the tensor nuclear norm at threshold tau.

    Minimizes tau * ||x||_tnn + 0.5 * ||x - y||_F^2 by soft-thresholding the
    singular values of each half-spectrum slice and inverting the real FFT.
    For n3 = 1 this is matrix singular value thresholding, bit for bit.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    y = as_tensor3(y)
    n3 = y.shape[2]
    u, s, vh = _svd_half(half_spectrum(y), n3, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return from_half_spectrum(half_matmul(u * shrunk[:, None, :], vh, n3), n3)
