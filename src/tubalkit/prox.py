"""Proximal operators: tensor singular value thresholding and elementwise
soft-thresholding.

The shrinkage inside ``tsvt`` acts on the Fourier-domain singular values, not
on the averaged ones; applying it after averaging would not solve the nuclear
norm proximal problem.

Both forms of ``tsvt`` call ``core.half_svt``. ``tsvt(y, tau)`` computes
every singular triplet and is exact. The solver passes a ``WarmStart`` as
well: while the kept rank plus OVERSAMPLE columns stays small next to the
slices, it hands the kernel the previous call's right singular vectors, so
each slice gets only its leading triplets and keeps them only under the
kernel's certificate; a slice that fails it is thresholded exactly.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_tensor3, from_half_spectrum, half_spectrum, half_svt


def soft_threshold(x, kappa):
    """Elementwise sign(x) * max(|x| - kappa, 0) of a real array of any rank."""
    if not kappa >= 0:
        raise ValueError(f"threshold must be nonnegative, got {kappa}")
    if np.iscomplexobj(x):
        raise TypeError("expected a real array, got complex input")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)


# Columns of the partial SVD beyond the last kept rank. On the criterion-1
# solve 5, 6 and 7 certified the same 2074 of 2091 slice SVDs at the same speed
# (3: 2066). With 7, slices narrower than 8 * 7 = 56 stay on the full SVD: on
# 40- and 50-wide slices the partial path gained no time and cost 2-5% more
# peak memory.
OVERSAMPLE = 7
# The partial SVD runs while PARTIAL_SVD_FRACTION * (kept rank + OVERSAMPLE) is
# at most min(n1, n2). With that many columns a warm call cost 0.55-0.9 of the
# full SVD on slices 40 to 200 wide; with min(n1, n2) / 6 columns 0.8-1.3, and
# with min(n1, n2) / 4 1.1-2.3.
PARTIAL_SVD_FRACTION = 8


@dataclass
class WarmStart:
    """State that ``tsvt`` carries from one call to the next within a solve:
    the leading right singular vectors of every half-spectrum slice and the
    largest kept rank, plus the counts of slice SVDs the partial path
    certified and of those that fell back to the exact SVD."""

    basis: np.ndarray | None = None  # (h, n2, l) right singular vectors
    rank: int = 0
    certified: int = 0
    fallbacks: int = 0

    def svt(self, stack, n3, tau):
        """The half spectrum of stack thresholded at tau, from partial SVDs
        started from the last call's vectors, then fixed-seed random columns,
        while the kept rank is small next to the slices."""
        h, n1, n2 = stack.shape
        l = self.rank + OVERSAMPLE
        start = None
        if PARTIAL_SVD_FRACTION * l <= min(n1, n2):
            fits = self.basis is not None and self.basis.shape[:2] == (h, n2)
            have = self.basis[:, :, :l] if fits else np.empty((h, n2, 0))
            extra = np.random.default_rng(0).standard_normal((h, n2, l - have.shape[2]))
            start = np.concatenate([have, extra], axis=2)
        out, kept, self.basis, certified = half_svt(stack, n3, tau, start)
        self.rank = int(kept.max())
        if start is not None:
            self.certified += int(certified.sum())
            self.fallbacks += h - int(certified.sum())
        return out


def tsvt(y, tau, warm=None):
    """Proximal operator of the tensor nuclear norm at threshold tau.

    Minimizes tau * ||x||_tnn + 0.5 * ||x - y||_F^2 by soft-thresholding the
    singular values of each half-spectrum slice and inverting the real FFT.
    For n3 = 1 this is matrix singular value thresholding, bit for bit.

    With a ``WarmStart`` the result may come from the certified partial SVD,
    within ~1e-12 of ||y||_F of the exact one, and updates ``warm``; use one
    WarmStart per sequence of related calls, such as one solve.
    """
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    y = as_tensor3(y)
    n3 = y.shape[2]
    if warm is None:
        return from_half_spectrum(half_svt(half_spectrum(y), n3, tau)[0], n3)
    return from_half_spectrum(warm.svt(half_spectrum(y), n3, tau), n3)
