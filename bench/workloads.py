"""The four benchmark workloads.

Each workload makes its inputs from a seed (``setup``), runs one measured pass
through tubalkit's public functions or its CLI entry point (``run``), and
checks the outputs of that pass (``check``). Solves the library makes on its
own behalf, inside ``phase_grid`` or the CLI, are seen through the
``solver.solve`` spans the caller records around them.

Why these four:

- recover_100 is the paper's headline experiment (criterion 1). It is bound by
  the batched SVD, and keeps at most 5 of 100 singular values per slice, so a
  partial-SVD change shows here first.
- phase_50x20 is many short solves on 50x50 slices, where fixed per-iteration
  cost in solver and prox weighs most and the kept rank nears half the slice.
- decompose_tall is the only end-to-end path through io, cli and the
  post-solve report; its 201 tiny spectral slices per SVD batch leave partial
  SVD little to win, while FFT and mirror passes still run every iteration.
- tensor_ops runs no solver: it uses decomposition with full factors,
  singular values only and a fixed k, and is the only measurement of algebra,
  norms and T3F1 read/write speed.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

import tubalkit as tk
from tubalkit import cli, io

SUCCESS_TOL = 1e-3  # relative L error at which a solve counts as recovered


@dataclass
class Checked:
    """What one pass attempted and how its outputs held up."""

    ops: int
    failed: set = field(default_factory=set)  # names of failed operations
    messages: list = field(default_factory=list)
    hashes: list = field(default_factory=list)
    # (relative L error, whether the solve is expected to recover) per solve
    errors: list = field(default_factory=list)

    def fail(self, op, message):
        self.failed.add(op)
        self.messages.append(f"{op}: {message}")


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def rel_err(estimate, truth):
    return float(np.linalg.norm((estimate - truth).ravel()) / np.linalg.norm(truth.ravel()))


def solves_in(spans):
    return [s for s in spans if s.name == "solver.solve"]


@dataclass
class Instance:
    l0: np.ndarray
    e0: np.ndarray
    x: np.ndarray
    path: object = None


def _instance(seed, n1, n2, n3, r, m_or_rho, mode):
    lr_seed, sp_seed = np.random.SeedSequence(seed).spawn(2)
    l0 = tk.gen_low_tubal_rank(n1, n2, n3, r, lr_seed)
    e0 = tk.gen_sparse_bernoulli(n1, n2, n3, m_or_rho, mode, sp_seed)
    return Instance(l0, e0, l0 + e0)


class Recover100:
    """Criterion 1: 100x100x100, tubal rank 5, 50,000 +-1 corruptions."""

    n, n3, rank, count = 100, 100, 5, 50_000
    ops = 1

    def setup(self, seed, work):
        return _instance(seed, self.n, self.n, self.n3, self.rank, self.count, "count")

    def run(self, inst, work):
        return tk.solve(inst.x, tk.SolverConfig(lam=1.0 / math.sqrt(self.n * self.n3)))

    def check(self, inst, sol, spans):
        c = Checked(self.ops, hashes=[digest(sol.l_hat, sol.e_hat)])
        err_l = rel_err(sol.l_hat, inst.l0)
        c.errors.append((err_l, True))
        if not sol.converged:
            c.fail("solve", "did not converge")
        rank = tk.tubal_rank(sol.l_hat, 1e-6)
        if rank != self.rank:
            c.fail("solve", f"tubal rank {rank}, expected {self.rank}")
        if not err_l <= 1e-5:
            c.fail("solve", f"L error {err_l:.3e} > 1e-5")
        err_e = rel_err(sol.e_hat, inst.e0)
        if not err_e <= 1e-8:
            c.fail("solve", f"E error {err_e:.3e} > 1e-8")
        nnz = int(np.count_nonzero(sol.e_hat))
        if abs(nnz - self.count) > 0.01 * self.count:
            c.fail("solve", f"nnz(E) {nnz}, expected {self.count} within 1%")
        return c


class Phase50x20:
    """phase_grid at n=50, n3=20: a recoverable and an unrecoverable row.

    Rank fraction 0.05 recovers to ~1e-9 at both sparsities; 0.4 stays above
    0.2 relative error. Every solve converges.
    """

    n, n3 = 50, 20
    r_fracs, rho_ss, trials = (0.05, 0.4), (0.05, 0.1), 2
    recoverable = {0.05}
    ops = len(r_fracs) * len(rho_ss) * trials

    def setup(self, seed, work):
        return seed

    def run(self, seed, work):
        return tk.phase_grid(self.n, self.n3, self.r_fracs, self.rho_ss, self.trials, seed=seed)

    def check(self, seed, grid, spans):
        c = Checked(self.ops)
        solves = solves_in(spans)
        if len(solves) != self.ops:
            for i in range(self.ops):
                c.fail(f"solve{i}", f"grid made {len(solves)} solves, expected {self.ops}")
            return c
        # phase_grid draws each trial's low-rank truth right before solving it.
        truths, l0 = [], None
        for s in spans:
            if s.name == "synth.gen_low_tubal_rank":
                l0 = s.result
            elif s.name == "solver.solve":
                truths.append(l0)
        cells = [(r, rho) for r in self.r_fracs for rho in self.rho_ss]
        for i, (s, l0) in enumerate(zip(solves, truths)):
            sol, op = s.result, f"solve{i}"
            r_frac, rho = cells[i // self.trials]
            expected = r_frac in self.recoverable
            err = rel_err(sol.l_hat, l0)
            c.errors.append((err, expected))
            c.hashes.append(digest(sol.l_hat, sol.e_hat))
            if not sol.converged:
                c.fail(op, "did not converge")
            if (err <= SUCCESS_TOL) != expected:
                c.fail(op, f"cell r={r_frac} rho={rho}: L error {err:.3e}, expected "
                       f"{'<=' if expected else '>'} {SUCCESS_TOL}")
        for k, cell in enumerate(cell for row in grid for cell in row):
            seen = sum(err <= SUCCESS_TOL for err, _ in c.errors[k * self.trials:(k + 1) * self.trials])
            if cell.successes != seen:
                c.fail(f"solve{k * self.trials}",
                       f"cell {k} reports {cell.successes} successes, solves show {seen}")
        return c


class DecomposeTall:
    """`tubalkit decompose` on a 40x40x400 rank-2 + 5% Bernoulli T3F1 file."""

    n, n3, rank, rho = 40, 400, 2, 0.05
    ops = 1

    def setup(self, seed, work):
        inst = _instance(seed, self.n, self.n, self.n3, self.rank, self.rho, "rho")
        inst.path = work / "x.t3f"
        io.write_tensor(inst.path, inst.x)
        return inst

    def run(self, inst, work):
        argv = ["decompose", "--input", str(inst.path), "--out-l", str(work / "l.t3f"),
                "--out-e", str(work / "e.t3f"), "--report", str(work / "report.json")]
        return cli.main(argv)

    def check(self, inst, code, spans):
        c = Checked(self.ops)
        if code != cli.EXIT_OK:
            c.fail("decompose", f"exit code {code}")
        solves = solves_in(spans)
        if len(solves) != 1:
            c.fail("decompose", f"{len(solves)} solves, expected 1")
            return c
        sol = solves[0].result
        c.hashes.append(digest(sol.l_hat, sol.e_hat))
        c.errors.append((rel_err(sol.l_hat, inst.l0), True))
        work = inst.path.parent
        report = json.loads((work / "report.json").read_text())
        if report.get("tubal_rank") != self.rank:
            c.fail("decompose", f"report tubal_rank {report.get('tubal_rank')}, expected {self.rank}")
        for name, want in (("l.t3f", sol.l_hat), ("e.t3f", sol.e_hat)):
            if not np.array_equal(io.read_tensor(work / name), want):
                c.fail("decompose", f"{name} differs from the solver's output")
        return c


@dataclass
class OpsInputs:
    a: np.ndarray
    b: np.ndarray
    low: np.ndarray
    big: np.ndarray


class TensorOps:
    """t-product, t-SVDs, norms and ranks on 100^3 tensors; a 64 MB T3F1 round trip."""

    n, rank, k, big_n = 100, 10, 10, 200
    names = ("tprod", "tsvd", "skinny_tsvd", "best_rank_k", "tnn", "spectral_norm",
             "tubal_rank", "incoherence", "write_tensor", "read_tensor")
    ops = len(names)

    def setup(self, seed, work):
        dense_seed, low_seed, big_seed = np.random.SeedSequence(seed).spawn(3)
        rng = np.random.default_rng(dense_seed)
        n = self.n
        a = rng.standard_normal((n, n, n))
        b = rng.standard_normal((n, n, n))
        low = tk.gen_low_tubal_rank(n, n, n, self.rank, low_seed)
        big = np.random.default_rng(big_seed).standard_normal((self.big_n,) * 3)
        return OpsInputs(a, b, low, big)

    def run(self, inp, work):
        path = work / "big.t3f"
        calls = {
            "tprod": lambda: tk.tprod(inp.a, inp.b),
            "tsvd": lambda: tk.tsvd(inp.a),
            "skinny_tsvd": lambda: tk.skinny_tsvd(inp.low),
            "best_rank_k": lambda: tk.best_rank_k(inp.a, self.k),
            "tnn": lambda: tk.tnn(inp.a),
            "spectral_norm": lambda: tk.spectral_norm(inp.a),
            "tubal_rank": lambda: tk.tubal_rank(inp.low),
            "incoherence": lambda: tk.incoherence(inp.low),
            "write_tensor": lambda: io.write_tensor(path, inp.big),
            "read_tensor": lambda: io.read_tensor(path),
        }
        return {name: calls[name]() for name in self.names}

    def check(self, inp, out, spans):
        fac, skinny, coh = out["tsvd"], out["skinny_tsvd"], out["incoherence"]
        c = Checked(self.ops, hashes=[
            digest(out["tprod"]), digest(fac.u, fac.s, fac.v), digest(skinny.u, skinny.s, skinny.v),
            digest(out["best_rank_k"]), digest(np.array([out["tnn"], out["spectral_norm"]])),
            digest(np.array([out["tubal_rank"], coh.mu_u, coh.mu_v, coh.mu_joint])),
            digest(out["read_tensor"]),
        ])
        rebuilt = tk.tprod(fac.u, tk.tprod(fac.s, tk.ctranspose(fac.v)))
        err = rel_err(rebuilt, inp.a)
        if not err <= 1e-10:
            c.fail("tsvd", f"reconstruction error {err:.3e} > 1e-10")
        total = float(np.sum(tk.singular_values(inp.a)))
        if not math.isclose(out["tnn"], total, rel_tol=1e-12):
            c.fail("tnn", f"tnn {out['tnn']!r} != sum of singular values {total!r}")
        for op, rank in (("tubal_rank", out["tubal_rank"]), ("skinny_tsvd", skinny.u.shape[1]),
                         ("incoherence", coh.r)):
            if rank != self.rank:
                c.fail(op, f"rank {rank}, expected {self.rank}")
        if not np.array_equal(out["read_tensor"], inp.big):
            c.fail("read_tensor", "T3F1 round trip changed the tensor")
        return c


WORKLOADS = {
    "recover_100": Recover100(),
    "phase_50x20": Phase50x20(),
    "decompose_tall": DecomposeTall(),
    "tensor_ops": TensorOps(),
}
