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
the exact step; any other slice is thresholded exactly, from the full SVD.
The E-step soft-thresholds T = X - L' - Y/mu at kappa = lambda/mu, so
E' = T - clip(T, kappa) and, exactly, Y'/mu' = -clip(T, kappa) * mu/mu'. The
loop therefore holds two tensors, L and T, and the half spectrum of
X - E - Y/mu, which ``half_svt`` thresholds in place; E is formed once, at
exit. One sweep over chunks of rows of X, the runs of ``core.BLOCK_BYTES``
that ``core.runs`` walks, transforms each chunk's rows back, writes L's next
rows over their spent ones, clips the rows of T for E and Y/mu, writes the next
T over them, takes the changes and the gap there and transforms the rows' next
X - E - Y/mu forward into the spectrum. The FFTs act on tubes, so the chunks
leave every byte as one whole transform would. It stops when the successive
changes of L and E and the feasibility gap are all below eps in max norm.
Non-convergence is a reported outcome, not an exception: phase-transition
experiments need failed cells as data points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import WarmStart, from_half_spectrum, half_spectrum, half_svt, linf_norm, runs
from .prox import soft_threshold


def default_lambda(n1, n2, n3):
    """Regularization weight 1 / sqrt(max(n1, n2) * n3)."""
    core.check_dims(n1, n2, n3, least=1)
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
        # A bool, Python's or numpy's, compares as 1; an infinite lam would force E = 0.
        if self.lam is not None and (core.is_bool(self.lam) or not 0 < self.lam < math.inf):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if core.is_bool(self.eps) or not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not core.is_integer(self.max_iters) or not self.max_iters >= 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters}")


@dataclass
class Solution:
    """Recovered pair plus convergence diagnostics.

    ``lam`` is the regularization weight the solve used.
    ``l_singular_values`` are the t-SVD singular values of ``l_hat``,
    min(n1, n2) of them, nonincreasing: the mean over all Fourier slices of
    max(s - tau, 0), the values that the solve's last thresholding kept. They
    equal ``singular_values(l_hat)`` to rounding and take no SVD of their own.
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
    l_singular_values: np.ndarray
    residual_history: list[float] = field(default_factory=list)
    svd_certified: int = 0
    svd_fallbacks: int = 0


def solve(x, cfg=None):
    """Decompose x into a low-tubal-rank part and a sparse part."""
    x = core.as_finite_tensor3(x)
    if cfg is None:
        cfg = SolverConfig()
    lam = cfg.lam if cfg.lam is not None else default_lambda(*x.shape)

    n3 = x.shape[2]
    l_cur = np.zeros_like(x)
    t_cur = np.zeros_like(x)  # x - l - Y/mu at the last E-step, whose clip holds E and Y/mu
    stack = half_spectrum(x)  # of x - e - Y/mu, thresholded in place, rows renewed per chunk
    history = []
    mu = MU0
    kappa = ratio = 0.0  # the last E-step's lam / mu and mu / mu_next; t_cur = 0 needs neither
    warm = WarmStart()

    for iters in range(1, cfg.max_iters + 1):
        mu_next = min(mu * RHO, MU_MAX)
        half_svt(stack, n3, 1.0 / mu, warm)
        res = np.zeros(3)  # dl, de and dfit, the max over the chunks
        for rows, a in runs(x.shape, core.BLOCK_BYTES):  # a, the chunk temporary
            l, t = l_cur[rows], t_cur[rows]
            from_half_spectrum(stack[:, rows], n3, out=a)  # l_new
            dl = linf_norm(np.subtract(a, l, out=l))  # into the spent iterate's rows
            np.copyto(l, a)
            t -= np.clip(t, -kappa, kappa, out=a)  # e_cur, as soft_threshold forms it
            a *= ratio  # -Y/mu
            np.subtract(np.add(x[rows], a, out=a), l, out=a)  # t_new = x - l_new - Y/mu
            e = soft_threshold(a, lam / mu)  # e_new, the chunk's second temporary
            de = linf_norm(np.subtract(e, t, out=t))  # e_new - e_cur
            np.subtract(np.add(l, e, out=t), x[rows], out=t)  # the gap l_new + e_new - x
            np.maximum(res, (dl, de, linf_norm(t)), out=res)
            np.copyto(t, a)  # t_new over the spent rows
            np.multiply(np.clip(a, -lam / mu, lam / mu, out=a), mu / mu_next, out=a)  # -Y'/mu'
            half_spectrum(np.subtract(np.add(x[rows], a, out=a), e, out=a), out=stack[:, rows])
            del a, e  # e freed before the next chunk's; no view of the buffer outlives the walk
        kappa, ratio = lam / mu, mu / mu_next
        dl, de, dfit = res.tolist()
        history.append(max(dl, de, dfit))
        converged = dl <= cfg.eps and de <= cfg.eps and dfit <= cfg.eps
        if converged:
            break
        mu = mu_next

    del stack  # its memory goes to the clip of the one soft-threshold of the whole tensor
    return Solution(
        l_hat=l_cur,
        e_hat=soft_threshold(t_cur, kappa, out=t_cur),
        iters=iters,
        final_residual=dfit,
        converged=converged,
        lam=lam,
        l_singular_values=core.average_singular_values(warm.kept, n3),
        residual_history=history,
        svd_certified=warm.certified,
        svd_fallbacks=warm.fallbacks,
    )
