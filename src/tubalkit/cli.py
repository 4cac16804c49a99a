"""Command-line front door.

Four subcommands: ``decompose`` runs the solver on a T3F1 tensor file,
``synth`` generates and solves a synthetic low-rank + sparse instance,
``phase`` runs a phase-transition grid, and ``image`` corrupts and recovers a
P6 image. All reports are machine-first JSON/CSV; plotting is left to
external tools.

Exit codes: 0 ok, 1 I/O or format error, 2 solver did not converge, 64 usage.
"""

import argparse
import math
import sys

import numpy as np

from . import io
from .core import l1_norm, fro_norm
from .decomposition import tubal_rank
from .errors import (
    BadMagic,
    DimensionOverflow,
    MalformedHeader,
    Truncated,
    UnsupportedFormat,
)
from .norms import tnn
from .solver import SolverConfig, default_lambda, solve
from .synth import gen_low_tubal_rank, gen_sparse_bernoulli, phase_grid

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64

# Rank reporting tolerance for solver outputs: ADMM iterates carry O(eps)
# noise, so the factorization default would overcount.
SOLUTION_RANK_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _lambda_arg(text):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("lambda must be positive")
    return value


def _fraction_arg(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"fraction {value} outside [0, 1]")
    return value


def _solver_config(args):
    return SolverConfig(lam=args.lam, eps=args.eps, max_iters=args.max_iters)


def _emit_report(args, fields):
    text = io.render_report(fields)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rel_err(estimate, truth):
    denom = fro_norm(truth)
    if denom == 0.0:
        return 0.0 if fro_norm(estimate) == 0.0 else math.inf
    return fro_norm(estimate - truth) / denom


def cmd_decompose(args):
    try:
        x = io.read_tensor(args.input)
    except (OSError, BadMagic, Truncated, DimensionOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    cfg = _solver_config(args)
    lam = cfg.lam if cfg.lam is not None else default_lambda(*x.shape)
    try:
        sol = solve(x, cfg)
    except ValueError as exc:  # non-finite payload
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.out_l:
            io.write_tensor(args.out_l, sol.l_hat)
        if args.out_e:
            io.write_tensor(args.out_e, sol.e_hat)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    n1, n2, n3 = x.shape
    _emit_report(args, {
        "n1": n1, "n2": n2, "n3": n3,
        "lambda": lam,
        "iters": sol.iters,
        "converged": sol.converged,
        "residual": sol.final_residual,
        "tubal_rank": tubal_rank(sol.l_hat, SOLUTION_RANK_TOL),
        "tnn": tnn(sol.l_hat),
        "l1": l1_norm(sol.e_hat),
    })
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def cmd_synth(args):
    ss = np.random.SeedSequence(args.seed)
    lr_seed, sp_seed = ss.spawn(2)
    l0 = gen_low_tubal_rank(args.n1, args.n2, args.n3, args.rank, lr_seed)
    if args.sparsity_count is not None:
        e0 = gen_sparse_bernoulli(
            args.n1, args.n2, args.n3, args.sparsity_count, "count", sp_seed
        )
    else:
        e0 = gen_sparse_bernoulli(
            args.n1, args.n2, args.n3, args.sparsity_rho, "rho", sp_seed
        )
    cfg = _solver_config(args)
    lam = cfg.lam if cfg.lam is not None else default_lambda(args.n1, args.n2, args.n3)
    sol = solve(l0 + e0, cfg)
    # Recovery-table columns: instance parameters plus recovered rank,
    # support size, and relative errors.
    table = {
        "n1": args.n1, "n2": args.n2, "n3": args.n3,
        "rank": args.rank,
        "m": int(np.count_nonzero(e0)),
        "tubal_rank": tubal_rank(sol.l_hat, SOLUTION_RANK_TOL),
        "recovered_nnz": int(np.count_nonzero(sol.e_hat)),
        "rel_err_l": _rel_err(sol.l_hat, l0),
        "rel_err_e": _rel_err(sol.e_hat, e0),
    }
    _emit_report(args, {
        **table,
        "lambda": lam,
        "iters": sol.iters,
        "converged": sol.converged,
        "residual": sol.final_residual,
        "tnn": tnn(sol.l_hat),
        "l1": l1_norm(sol.e_hat),
    })
    if args.csv:
        try:
            io.write_scalar_csv(args.csv, table)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def _parse_grid(text, parser, flag):
    """MATLAB-style inclusive range a:step:b."""
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"{flag} must be a:step:b, got {text!r}")
    try:
        a, step, b = (float(p) for p in parts)
    except ValueError:
        parser.error(f"{flag} must be numeric a:step:b, got {text!r}")
    if step <= 0:
        parser.error(f"{flag} step must be positive")
    values = []
    v = a
    while v <= b + 1e-12:
        values.append(round(v, 12))
        v += step
    if not values:
        parser.error(f"{flag} describes an empty grid")
    return values


def cmd_phase(args, parser):
    r_fracs = _parse_grid(args.r_grid, parser, "--r-grid")
    rho_ss = _parse_grid(args.rho_grid, parser, "--rho-grid")
    grid = phase_grid(
        args.n, args.n3, r_fracs, rho_ss, args.trials,
        success_tol=args.success_tol, seed=args.seed,
    )
    try:
        io.write_grid_csv(args.out, grid)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_image(args):
    try:
        with open(args.input, "rb") as fh:
            original = io.image_to_tensor(fh.read())
    except (OSError, UnsupportedFormat, MalformedHeader) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    n1, n2, _ = original.shape
    corrupted, _mask = io.corrupt_pixels(original, args.corrupt, args.seed)
    lam = default_lambda(n1, n2, 3)
    sol = solve(corrupted, SolverConfig(lam=lam, eps=args.eps, max_iters=args.max_iters))
    recovered_bytes = io.tensor_to_image(sol.l_hat)
    try:
        with open(args.out, "wb") as fh:
            fh.write(recovered_bytes)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    # PSNR of the recovered image is measured on the written (quantized)
    # pixels, so a clean roundtrip reports the exact-match sentinel.
    recovered = io.image_to_tensor(recovered_bytes)
    _emit_report(args, {
        "n1": n1, "n2": n2, "n3": 3,
        "lambda": lam,
        "iters": sol.iters,
        "converged": sol.converged,
        "residual": sol.final_residual,
        "psnr_corrupted": io.psnr(original, corrupted),
        "psnr_recovered": io.psnr(original, recovered),
    })
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def build_parser():
    parser = _Parser(prog="tubalkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--lambda", dest="lam", type=_lambda_arg, default=None,
                       help="regularization weight, or 'auto'")
        p.add_argument("--eps", type=float, default=1e-8)
        p.add_argument("--max-iters", type=int, default=500)

    p = sub.add_parser("decompose", help="low-rank + sparse split of a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--out-l")
    p.add_argument("--out-e")
    p.add_argument("--report")
    add_solver_flags(p)

    p = sub.add_parser("synth", help="generate and solve a synthetic instance")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--n3", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sparsity-count", type=int)
    group.add_argument("--sparsity-rho", type=float)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report")
    p.add_argument("--csv")
    add_solver_flags(p)

    p = sub.add_parser("phase", help="phase-transition success grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n3", type=int, required=True)
    p.add_argument("--r-grid", required=True, help="rank fractions a:step:b")
    p.add_argument("--rho-grid", required=True, help="sparsity rates a:step:b")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--success-tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("image", help="corrupt and recover a P6 image")
    p.add_argument("--input", required=True)
    p.add_argument("--corrupt", type=_fraction_arg, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=500)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decompose":
        return cmd_decompose(args)
    if args.command == "synth":
        return cmd_synth(args)
    if args.command == "phase":
        return cmd_phase(args, parser)
    if args.command == "image":
        return cmd_image(args)
    parser.error(f"unknown command {args.command!r}")


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
