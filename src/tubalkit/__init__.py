"""Tubal-rank tensor toolkit.

Dense 3-way tensor algebra built on the circular-convolution tensor product:
the t-SVD factorization, tensor nuclear and spectral norms, their proximal
operators, and a convex solver that splits a tensor into a low-tubal-rank part
plus a sparse part. Includes seeded generators and file formats for
reproducible recovery experiments.
"""

from .algebra import ctranspose, identity_tensor, is_fdiagonal, is_orthogonal, tprod
from .core import fro_norm, inner, l1_norm, linf_norm
from .decomposition import (
    TSvdFactors,
    average_rank,
    best_rank_k,
    singular_values,
    skinny_tsvd,
    tsvd,
    tubal_rank,
)
from .norms import IncoherenceReport, check_subgradient, incoherence, spectral_norm, tnn
from .prox import soft_threshold, tsvt
from .solver import Solution, SolverConfig, default_lambda, solve
from .synth import PhaseCell, gen_low_tubal_rank, gen_sparse_bernoulli, phase_grid

__all__ = [
    "IncoherenceReport",
    "PhaseCell",
    "Solution",
    "SolverConfig",
    "TSvdFactors",
    "average_rank",
    "best_rank_k",
    "check_subgradient",
    "ctranspose",
    "default_lambda",
    "fro_norm",
    "gen_low_tubal_rank",
    "gen_sparse_bernoulli",
    "identity_tensor",
    "incoherence",
    "inner",
    "is_fdiagonal",
    "is_orthogonal",
    "l1_norm",
    "linf_norm",
    "phase_grid",
    "singular_values",
    "skinny_tsvd",
    "soft_threshold",
    "solve",
    "spectral_norm",
    "tnn",
    "tprod",
    "tsvd",
    "tsvt",
    "tubal_rank",
]

__version__ = "0.1.0"
