"""Seeded generators for synthetic recovery experiments and the
phase-transition grid runner.

All randomness flows through numpy's PCG64 via ``default_rng``. The grid
runner derives one child ``SeedSequence`` per (cell, trial) and splits it into
independent streams for the low-rank and sparse draws, so results do not
depend on evaluation order and are reproducible across platforms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ctranspose, tprod
from .core import check_dims, fro_norm, is_bool, is_integer
from .errors import CountOutOfRange, RankOutOfRange
from .solver import SolverConfig, solve


def gen_low_tubal_rank(n1, n2, n3, r, seed):
    """Tubal-rank-r tensor p * q^T with factor entries N(0, 1/n1)."""
    check_dims(n1, n2, n3)
    if not is_integer(r) or not 0 <= r <= min(n1, n2):
        raise RankOutOfRange(f"rank must be an integer in [0, {min(n1, n2)}], got {r}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(max(n1, 1))  # n1 = 0 forces r = 0: no entries to scale
    p = rng.normal(0.0, scale, size=(n1, r, n3))
    q = rng.normal(0.0, scale, size=(n2, r, n3))
    return tprod(p, ctranspose(q))


def gen_sparse_bernoulli(n1, n2, n3, m_or_rho, mode, seed):
    """Sparse sign tensor.

    mode="count": exactly ``m_or_rho`` support entries drawn uniformly without
    replacement, each +1 or -1 equiprobably.
    mode="rho": each entry independently +1 or -1 with probability rho/2 each,
    0 otherwise.
    """
    check_dims(n1, n2, n3)
    total = n1 * n2 * n3
    rng = np.random.default_rng(seed)
    out = np.zeros((n1, n2, n3))
    if mode == "count":
        m = m_or_rho
        if not is_integer(m) or not 0 <= m <= total:
            raise CountOutOfRange(f"count must be an integer in [0, {total}], got {m}")
        if m > 0:
            support = rng.choice(total, size=m, replace=False)
            signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
            out.ravel()[support] = signs
    elif mode == "rho":
        rho = float(m_or_rho)
        if is_bool(m_or_rho) or not 0.0 <= rho <= 1.0:
            raise CountOutOfRange(f"rate {m_or_rho} outside [0, 1]")
        u = rng.random(size=(n1, n2, n3))
        out[u < rho / 2.0] = 1.0
        out[u > 1.0 - rho / 2.0] = -1.0
    else:
        raise ValueError(f"mode must be 'count' or 'rho', got {mode!r}")
    return out


@dataclass(frozen=True)
class PhaseCell:
    """Recovery statistics for one (rank fraction, sparsity rate) grid cell."""

    r_frac: float
    rho_s: float
    trials: int
    successes: int


def phase_grid(n, n3, r_fracs, rho_ss, trials, success_tol=1e-3, seed=0):
    """Run the recovery experiment over a grid of (r/n, rho_s) cells.

    Each cell solves ``trials`` independent n x n x n3 instances with the
    default lambda; a trial succeeds when the relative recovery error of the
    low-rank part is at most ``success_tol``. Returns a list of rows, one per
    r_frac, each a list of PhaseCell per rho_s.
    """
    check_dims(n, n, n3, least=1)
    r_fracs = list(r_fracs)
    rho_ss = list(rho_ss)
    if not r_fracs or not rho_ss:
        raise ValueError("grid axes must be nonempty")
    if not is_integer(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if is_bool(success_tol) or not success_tol > 0:
        raise ValueError(f"success_tol must be positive, got {success_tol}")
    ranks = [np.floor(r_frac * n + 0.5) for r_frac in r_fracs]  # rounded half up
    for r_frac, r in zip(r_fracs, ranks):
        if is_bool(r_frac) or not 1 <= r <= n:  # NaN included
            raise RankOutOfRange(f"r_frac {r_frac} rounds to rank {r:g}, outside [1, {n}]")
    if any(is_bool(rho_s) or not 0.0 <= float(rho_s) <= 1.0 for rho_s in rho_ss):  # NaN included
        raise CountOutOfRange(f"every rate must lie in [0, 1], got {rho_ss}")
    children = np.random.SeedSequence(seed).spawn(len(r_fracs) * len(rho_ss) * trials)
    grid = []
    for i, (r_frac, r) in enumerate(zip(r_fracs, ranks)):
        row = []
        for j, rho_s in enumerate(rho_ss):
            successes = 0
            for t in range(trials):
                cell_seq = children[(i * len(rho_ss) + j) * trials + t]
                lr_seed, sp_seed = cell_seq.spawn(2)
                l0 = gen_low_tubal_rank(n, n, n3, int(r), lr_seed)
                e0 = gen_sparse_bernoulli(n, n, n3, rho_s, "rho", sp_seed)
                sol = solve(l0 + e0, SolverConfig())
                rel = fro_norm(sol.l_hat - l0) / fro_norm(l0)
                if rel <= success_tol:
                    successes += 1
            row.append(PhaseCell(r_frac=r_frac, rho_s=rho_s, trials=trials, successes=successes))
        grid.append(row)
    return grid
