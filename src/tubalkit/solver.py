"""Convex low-rank + sparse tensor decomposition by ADMM.

Solves  min ||L||_tnn + lambda * ||E||_1  subject to  X = L + E.

Each iteration of the paper's Algorithm 1 takes one tensor singular value
thresholding step for the low-rank part, one elementwise soft-threshold for
the sparse part and a dual ascent step, then sets mu to min(rho * mu, mu_max).
The thresholding step carries a ``prox.WarmStart`` from one iteration to the
next: the iterates change slowly and keep few singular values, so a slice's
leading triplets usually come from a certified partial SVD started from the
previous iteration's, within ~1e-12 of the exact step; any other slice is
thresholded exactly, from the full SVD. The iteration stops when the
successive changes of both primal blocks and the feasibility gap are all below
eps in max norm. Non-convergence is a reported outcome, not an exception:
phase-transition experiments need failed cells as data points.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import as_tensor3, linf_norm
from .errors import NonFiniteInput
from .prox import WarmStart, soft_threshold, tsvt


def default_lambda(n1, n2, n3):
    """Regularization weight 1 / sqrt(max(n1, n2) * n3)."""
    if min(n1, n2, n3) < 1:
        raise ValueError(f"dimensions must be positive, got ({n1}, {n2}, {n3})")
    return 1.0 / math.sqrt(max(n1, n2) * n3)


@dataclass
class SolverConfig:
    """Solver parameters. ``lam=None`` means use default_lambda of the input."""

    lam: float | None = None
    rho: float = 1.1
    mu0: float = 1e-3
    mu_max: float = 1e10
    eps: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        if self.lam is not None and not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.rho > 1:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        if not 0 < self.mu0 < self.mu_max < math.inf:
            raise ValueError(f"need 0 < mu0 < mu_max < inf, got {self.mu0}, {self.mu_max}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")


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

    l_cur = np.zeros_like(x)
    e_cur = np.zeros_like(x)
    dual = np.zeros_like(x)
    shift = np.zeros_like(x)  # dual / mu
    history = []
    mu = cfg.mu0
    warm = WarmStart()

    for iters in range(1, cfg.max_iters + 1):
        l_new = tsvt(x - e_cur - shift, 1.0 / mu, warm)
        e_new = soft_threshold(x - l_new - shift, lam / mu)
        gap = l_new + e_new - x
        dl = linf_norm(l_new - l_cur)
        de = linf_norm(e_new - e_cur)
        dfit = linf_norm(gap)
        history.append(max(dl, de, dfit))
        l_cur, e_cur = l_new, e_new
        converged = dl <= cfg.eps and de <= cfg.eps and dfit <= cfg.eps
        if converged:
            break
        dual += mu * gap
        mu = min(mu * cfg.rho, cfg.mu_max)
        shift = np.divide(dual, mu, out=gap)  # gap's memory: one array fewer live in tsvt

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
