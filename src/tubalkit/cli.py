"""Command-line front door.

Four subcommands: ``decompose`` runs the solver on a T3F1 tensor file,
``synth`` generates and solves a synthetic low-rank + sparse instance,
``phase`` runs a phase-transition grid, and ``image`` corrupts and recovers a
P6 image. All reports are machine-first JSON/CSV; plotting is left to
external tools.

Exit codes: 0 ok, 1 I/O or format error (unreadable or unwritable file, bad
file or image contents, non-finite tensor), 2 solver did not converge,
3 numerical failure (a per-slice SVD did not converge), 64 usage (bad flags,
or a parameter value the library rejects).
"""

import argparse
import math
import sys

import numpy as np

from . import io
from .core import l1_norm, fro_norm
from .decomposition import tubal_rank
from .errors import DataError, NumericalFailure
from .norms import tnn
from .solver import SolverConfig, solve
from .synth import gen_low_tubal_rank, gen_sparse_bernoulli, phase_grid

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_CONVERGED = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

# Library exception -> exit code; the first matching row wins, so the data
# errors are listed before the ValueError that covers every other rejected
# parameter value.
EXIT_CODES = (
    (OSError, EXIT_IO),
    (DataError, EXIT_IO),
    (NumericalFailure, EXIT_NUMERICAL),
    (ValueError, EXIT_USAGE),
)

# Rank reporting tolerance for solver outputs: ADMM iterates carry O(eps)
# noise, so the factorization default would overcount.
SOLUTION_RANK_TOL = 1e-6

# Largest --r-grid/--rho-grid accepted; each value is a row or column of solves.
MAX_GRID_VALUES = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Argument types. argparse names the function in its message for text that
# does not parse ("invalid grid value: ..."); range checks on single values are
# left to the library, whose ValueError maps to EXIT_USAGE.
def lambda_or_auto(text):
    """A number, or 'auto' (None) for default_lambda of the input."""
    return None if text == "auto" else float(text)


def grid(text):
    """MATLAB-style inclusive range a:step:b of at most MAX_GRID_VALUES values."""
    a, step, b = map(float, text.split(":"))
    if not all(map(math.isfinite, (a, step, b))):
        raise argparse.ArgumentTypeError("bounds and step must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("step must be positive")
    values = []
    v = a
    while v <= b + 1e-12:
        # Also stops a step too small to move v, which would loop forever.
        if len(values) == MAX_GRID_VALUES:
            raise argparse.ArgumentTypeError(f"more than {MAX_GRID_VALUES} values")
        values.append(round(v, 12))
        v += step
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} describes an empty grid")
    return values


def _solve(x, args):
    """Solve x under the command's flags."""
    return solve(x, SolverConfig(lam=args.lam, eps=args.eps, max_iters=args.max_iters))


def _emit_report(args, x, sol, fields):
    """Write the report, the solve fields every command shares plus its own,
    to --report or stdout; return the exit code the solve earned."""
    n1, n2, n3 = x.shape
    text = io.render_report({
        "n1": n1, "n2": n2, "n3": n3,
        "lambda": sol.lam,
        "iters": sol.iters,
        "converged": sol.converged,
        "residual": sol.final_residual,
        "svd_certified": sol.svd_certified,
        "svd_fallbacks": sol.svd_fallbacks,
        **fields,
    })
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def _rel_err(estimate, truth):
    denom = fro_norm(truth)
    if denom == 0.0:
        return 0.0 if fro_norm(estimate) == 0.0 else math.inf
    return fro_norm(estimate - truth) / denom


def cmd_decompose(args):
    x = io.read_tensor(args.input)
    sol = _solve(x, args)
    if args.out_l:
        io.write_tensor(args.out_l, sol.l_hat)
    if args.out_e:
        io.write_tensor(args.out_e, sol.e_hat)
    return _emit_report(args, x, sol, {
        "tubal_rank": tubal_rank(sol.l_hat, SOLUTION_RANK_TOL),
        "tnn": tnn(sol.l_hat),
        "l1": l1_norm(sol.e_hat),
    })


def cmd_synth(args):
    ss = np.random.SeedSequence(args.seed)
    lr_seed, sp_seed = ss.spawn(2)
    l0 = gen_low_tubal_rank(args.n1, args.n2, args.n3, args.rank, lr_seed)
    if args.sparsity_count is not None:
        value, mode = args.sparsity_count, "count"
    else:
        value, mode = args.sparsity_rho, "rho"
    e0 = gen_sparse_bernoulli(args.n1, args.n2, args.n3, value, mode, sp_seed)
    x = l0 + e0
    sol = _solve(x, args)
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
    code = _emit_report(args, x, sol, {
        **table,
        "tnn": tnn(sol.l_hat),
        "l1": l1_norm(sol.e_hat),
    })
    if args.csv:
        io.write_scalar_csv(args.csv, table)
    return code


def cmd_phase(args):
    cells = phase_grid(
        args.n, args.n3, args.r_grid, args.rho_grid, args.trials,
        success_tol=args.success_tol, seed=args.seed,
    )
    io.write_grid_csv(args.out, cells)
    return EXIT_OK


def cmd_image(args):
    with open(args.input, "rb") as fh:
        original = io.image_to_tensor(fh.read())
    corrupted, _mask = io.corrupt_pixels(original, args.corrupt, args.seed)
    sol = _solve(corrupted, args)
    recovered_bytes = io.tensor_to_image(sol.l_hat)
    with open(args.out, "wb") as fh:
        fh.write(recovered_bytes)
    # PSNR of the recovered image is measured on the written (quantized)
    # pixels, so a clean roundtrip reports the exact-match sentinel.
    recovered = io.image_to_tensor(recovered_bytes)
    return _emit_report(args, corrupted, sol, {
        "psnr_corrupted": io.psnr(original, corrupted),
        "psnr_recovered": io.psnr(original, recovered),
    })


def build_parser():
    parser = _Parser(prog="tubalkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--lambda", dest="lam", type=lambda_or_auto, default=None,
                       help="regularization weight, or 'auto'")
        p.add_argument("--eps", type=float, default=SolverConfig.eps)
        p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)

    p = sub.add_parser("decompose", help="low-rank + sparse split of a tensor file")
    p.set_defaults(run=cmd_decompose)
    p.add_argument("--input", required=True)
    p.add_argument("--out-l")
    p.add_argument("--out-e")
    p.add_argument("--report")
    add_solver_flags(p)

    p = sub.add_parser("synth", help="generate and solve a synthetic instance")
    p.set_defaults(run=cmd_synth)
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
    p.set_defaults(run=cmd_phase)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n3", type=int, required=True)
    p.add_argument("--r-grid", type=grid, required=True, help="rank fractions a:step:b")
    p.add_argument("--rho-grid", type=grid, required=True, help="sparsity rates a:step:b")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--success-tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("image", help="corrupt and recover a P6 image")
    p.set_defaults(run=cmd_image, lam=None)
    p.add_argument("--input", required=True)
    p.add_argument("--corrupt", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--eps", type=float, default=SolverConfig.eps)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)

    return parser


def main(argv=None):
    # The parser is built per call so that it dispatches to the cmd_*
    # functions bound in this module at call time.
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
