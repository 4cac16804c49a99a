"""Proximal operators: tensor singular value thresholding and elementwise
soft-thresholding.

The shrinkage inside ``tsvt`` acts on the Fourier-domain singular values, not
on the averaged ones; applying it after averaging would not solve the nuclear
norm proximal problem.

``tsvt(y, tau)`` computes every singular triplet and is exact. The solver
passes a ``WarmStart`` as well: while the kept rank plus OVERSAMPLE columns
stays small next to the slices, each slice then gets only its leading
triplets, by subspace iteration from the previous call's right singular
vectors, and keeps them only under the certificate of
``core.partial_half_svd``; a slice that fails it is decomposed exactly.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_tensor3, from_half_svd, half_spectrum, half_svd, partial_half_svd


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

    basis: np.ndarray | None = None  # (h, n2, m) right singular vectors
    rank: int = 0
    certified: int = 0
    fallbacks: int = 0

    def start(self, h, n2, l):
        """The (h, n2, l) start: the kept basis, then fixed-seed random columns."""
        fits = self.basis is not None and self.basis.shape[:2] == (h, n2)
        have = self.basis[:, :, :l] if fits else np.empty((h, n2, 0))
        extra = np.random.default_rng(0).standard_normal((h, n2, l - have.shape[2]))
        return np.concatenate([have, extra], axis=2)

    def partial(self, n1, n2):
        """Whether the next call may take the partial path."""
        return PARTIAL_SVD_FRACTION * (self.rank + OVERSAMPLE) <= min(n1, n2)

    def svd(self, stack, n3, tau):
        """Half-spectrum triplets of stack enough to threshold it at tau."""
        h, n1, n2 = stack.shape
        l = self.rank + OVERSAMPLE
        if self.partial(n1, n2):
            u, s, vh, certified = partial_half_svd(stack, n3, tau, self.start(h, n2, l))
            self.certified += int(certified.sum())
            self.fallbacks += int(h - certified.sum())
            width = l
        else:
            u, s, vh = half_svd(stack, n3)
            certified, width = np.zeros(h, dtype=bool), s.shape[1]
        self.rank = int(np.count_nonzero(s > tau, axis=1).max())
        self.basis = None
        if self.partial(n1, n2):
            self.basis = np.conj(np.swapaxes(vh[:, :min(self.rank + OVERSAMPLE, width)], 1, 2))
        if certified.any():
            # Rebuild from the kept columns only; with nothing certified the
            # triplets are half_svd's and the rebuild is the exact path's.
            return u[:, :, :self.rank], s[:, :self.rank], vh[:, :self.rank]
        return u, s, vh


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
        u, s, vh = half_svd(half_spectrum(y), n3)
    else:
        u, s, vh = warm.svd(half_spectrum(y), n3, tau)
    return from_half_svd(u, np.maximum(s - tau, 0.0), vh, n3)
