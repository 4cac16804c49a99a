"""Convex low-rank + sparse tensor decomposition by ADMM.

Solves  min ||L||_tnn + lambda * ||E||_1  subject to  X = L + E.

Each iteration of the paper's Algorithm 1 takes one tensor singular value
thresholding step for L, one elementwise soft-threshold for E and a step of the
scaled dual Y/mu, the only form in which the dual Y enters:
Y'/mu' = (Y/mu + L' + E' - X) * mu/mu' with mu' = min(RHO * mu, MU_MAX), a
schedule from mu = MU0 fixed as in the paper. Thresholding hands
``core.half_svt`` one ``core.WarmStart`` per solve: the iterates change slowly
and keep few singular values, so a slice's leading triplets usually come from a
certified partial SVD started from the previous iteration's, within ~1e-12 of
the exact step; any other slice is thresholded exactly, from the full SVD. The
loop holds three tensors, L, E and Y/mu, and the half spectrum of X - E - Y/mu,
which ``half_svt`` thresholds in place. One sweep over chunks of rows of X,
of at most ``core.BLOCK_BYTES``, transforms each chunk's rows back, writes L's
and E's next rows over their spent ones, takes the gap and the dual step there
and transforms the rows' next X - E - Y/mu forward into the spectrum. The FFTs
act on tubes, so the chunks leave every byte as one whole transform would. It
stops when the successive changes of L and E and the feasibility gap are all
below eps in max norm. Non-convergence is a reported outcome, not an exception:
phase-transition experiments need failed cells as data points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import WarmStart, as_tensor3, from_half_spectrum, half_spectrum, half_svt, linf_norm
from .errors import NonFiniteInput
from .prox import soft_threshold


def default_lambda(n1, n2, n3):
    """Regularization weight 1 / sqrt(max(n1, n2) * n3)."""
    if min(n1, n2, n3) < 1:
        raise ValueError(f"dimensions must be positive, got ({n1}, {n2}, {n3})")
    return 1.0 / math.sqrt(max(n1, n2) * n3)


# Algorithm 1 fixes its penalty schedule (inexact ALM); these are the paper's values.
RHO = 1.1
MU0 = 1e-3
MU_MAX = 1e10


@dataclass
class SolverConfig:
    """A solve's settable parameters. ``lam=None`` means default_lambda of the input."""

    lam: float | None = None
    eps: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.lam is not None and not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not core.is_integer(self.max_iters) or not self.max_iters >= 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters}")


@dataclass
class Solution:
    """Recovered pair plus convergence diagnostics.

    ``lam`` is the regularization weight the solve used.
    ``residual_history[k]`` is the max of the three stopping quantities at
    iteration k; ``final_residual`` is the feasibility gap at exit.
    ``svd_certified`` and ``svd_fallbacks`` count the half-spectrum slice SVDs
    the partial path certified and those that failed its certificate and took
    the full SVD; the slices of iterations whose kept rank was too large for
    the partial path are in neither.
    """

    l_hat: np.ndarray
    e_hat: np.ndarray
    iters: int
    final_residual: float
    converged: bool
    lam: float
    residual_history: list[float] = field(default_factory=list)
    svd_certified: int = 0
    svd_fallbacks: int = 0


def solve(x, cfg=None):
    """Decompose x into a low-tubal-rank part and a sparse part."""
    x = as_tensor3(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("input tensor contains NaN or Inf")
    if cfg is None:
        cfg = SolverConfig()
    lam = cfg.lam if cfg.lam is not None else default_lambda(*x.shape)

    n1, n2, n3 = x.shape
    l_cur = np.zeros_like(x)
    e_cur = np.zeros_like(x)
    shift = np.zeros_like(x)  # the scaled dual Y / mu
    stack = half_spectrum(x)  # of x - e_cur - shift, thresholded in place, rows renewed per chunk
    step = max(1, min(n1, core.BLOCK_BYTES // max(1, x.itemsize * n2 * n3)))  # rows per chunk
    chunks = [slice(i, min(i + step, n1)) for i in range(0, n1, step)]
    history = []
    mu = MU0
    warm = WarmStart()

    for iters in range(1, cfg.max_iters + 1):
        mu_next = min(mu * RHO, MU_MAX)
        half_svt(stack, n3, 1.0 / mu, warm)
        res = np.zeros(3)  # dl, de and dfit, the max over the chunks
        a = buf = np.empty((step, n2, n3))  # the chunk temporary, a the rows in use
        for rows in chunks:
            l, e, s = l_cur[rows], e_cur[rows], shift[rows]
            a = from_half_spectrum(stack[:, rows], n3, out=buf[:rows.stop - rows.start])  # l_new
            dl = linf_norm(np.subtract(a, l, out=l))  # into the spent iterate's rows
            np.copyto(l, a)
            np.subtract(np.subtract(x[rows], l, out=a), s, out=a)  # x - l_new - shift
            de = linf_norm(np.subtract(soft_threshold(a, lam / mu, out=a), e, out=e))  # e_new - e_cur
            np.copyto(e, a)
            np.subtract(np.add(l, e, out=a), x[rows], out=a)  # the gap l_new + e_new - x
            np.maximum(res, (dl, de, linf_norm(a)), out=res)
            s += a  # the dual step, unused if this iteration converges
            s *= mu / mu_next
            half_spectrum(np.subtract(np.subtract(x[rows], e, out=a), s, out=a), out=stack[:, rows])
        del a, buf  # not kept through the thresholding
        dl, de, dfit = res.tolist()
        history.append(max(dl, de, dfit))
        converged = dl <= cfg.eps and de <= cfg.eps and dfit <= cfg.eps
        if converged:
            break
        mu = mu_next

    return Solution(
        l_hat=l_cur,
        e_hat=e_cur,
        iters=iters,
        final_residual=dfit,
        converged=converged,
        lam=lam,
        residual_history=history,
        svd_certified=warm.certified,
        svd_fallbacks=warm.fallbacks,
    )
