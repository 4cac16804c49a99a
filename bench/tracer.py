"""Spans around the calls into each tubalkit layer.

A Tracer wraps a chosen set of functions. ``install()`` swaps each one,
wherever a tubalkit module or the package namespace refers to it, for a
wrapper that records a Span; ``uninstall()`` puts the originals back. numpy's
FFT and SVD entry points are wrapped in the numpy namespace, because every
tubalkit layer reaches them as ``np.fft.*`` and ``np.linalg.svd``: the span
``core.fft`` is every FFT call and ``decomposition.svd`` every SVD call,
whichever module makes it. Spans stay in memory until the run ends.

Layer names are the tubalkit modules: core, algebra, decomposition, norms,
prox, solver, synth, io and cli.
"""

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("core", "algebra", "decomposition", "norms", "prox", "solver", "synth", "io", "cli")


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    request: int  # pass number; the spans of one pass share it
    phase: str  # "setup", "pass" or "check"
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0  # seconds covered by direct child spans
    attrs: dict = field(default_factory=dict)
    result: object = None

    @property
    def ms(self):
        return 1e3 * (self.end - self.start)

    @property
    def self_ms(self):
        return 1e3 * (self.end - self.start - self.child)


def _tsvt_enter(args, kwargs):
    return {"tau": float(kwargs["tau"] if "tau" in kwargs else args[1])}


def _keep_result(tracer, span, args, kwargs, result):
    span.result = result


def _solve_leave(tracer, span, args, kwargs, result):
    span.attrs["iters"] = result.iters
    span.attrs["converged"] = result.converged
    span.result = result


def _fft_leave(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = getattr(args[0], "nbytes", 0) + result.nbytes


def _svd_leave(tracer, span, args, kwargs, result):
    s = result[1] if isinstance(result, tuple) else result
    span.attrs["matrices"] = int(np.prod(s.shape[:-1]))
    tsvt = tracer.enclosing(span, "prox.tsvt")
    if tsvt is not None:
        # tsvt keeps exactly the singular values above its threshold tau.
        kept = np.count_nonzero(s > tsvt.attrs["tau"], axis=-1)
        span.attrs["computed"] = s.size
        span.attrs["kept"] = int(kept.sum())
        span.attrs["kept_max"] = int(kept.max(initial=0))


def _read_leave(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = result.nbytes


def _write_leave(tracer, span, args, kwargs, result):
    span.attrs["bytes"] = np.asarray(args[1] if len(args) > 1 else kwargs["a"]).nbytes


# (tubalkit module, attribute, span name, enter hook, leave hook)
LIBRARY = (
    ("algebra", "tprod", "algebra.tprod", None, None),
    ("decomposition", "tsvd", "decomposition.tsvd", None, None),
    ("decomposition", "skinny_tsvd", "decomposition.skinny_tsvd", None, None),
    ("decomposition", "best_rank_k", "decomposition.best_rank_k", None, None),
    ("decomposition", "tubal_rank", "decomposition.tubal_rank", None, None),
    ("norms", "tnn", "norms.tnn", None, None),
    ("norms", "spectral_norm", "norms.spectral_norm", None, None),
    ("norms", "incoherence", "norms.incoherence", None, None),
    ("prox", "tsvt", "prox.tsvt", _tsvt_enter, None),
    ("prox", "soft_threshold", "prox.soft_threshold", None, None),
    ("solver", "solve", "solver.solve", None, _solve_leave),
    ("synth", "gen_low_tubal_rank", "synth.gen_low_tubal_rank", None, _keep_result),
    ("synth", "gen_sparse_bernoulli", "synth.gen_sparse_bernoulli", None, None),
    ("synth", "phase_grid", "synth.phase_grid", None, None),
    ("io", "read_tensor", "io.read_tensor", None, _read_leave),
    ("io", "write_tensor", "io.write_tensor", None, _write_leave),
    ("cli", "cmd_decompose", "cli.decompose", None, None),
)

# (numpy submodule, attribute, span name, enter hook, leave hook)
NUMPY = (
    ("fft", "fft", "core.fft", None, _fft_leave),
    ("fft", "ifft", "core.fft", None, _fft_leave),
    ("fft", "rfft", "core.fft", None, _fft_leave),
    ("fft", "irfft", "core.fft", None, _fft_leave),
    ("linalg", "svd", "decomposition.svd", None, _svd_leave),
)

# What the untraced runs observe: one span per solve, and the low-rank truth
# phase_grid generates for it. Both calls take milliseconds or more.
PROBE = frozenset({"solver.solve", "synth.gen_low_tubal_rank"})


class Tracer:
    """Records spans for the named functions (all of them when names is None)."""

    def __init__(self, names=None):
        self.names = names
        self.spans = []
        self.request = 0
        self.phase = "setup"
        self._stack = []
        self._patched = []

    def _traced(self, name):
        return self.names is None or name in self.names

    def install(self):
        import tubalkit

        mods = {m: importlib.import_module(f"tubalkit.{m}") for m in MODULES}
        namespaces = [tubalkit, *mods.values()]
        for module, attr, name, enter, leave in LIBRARY:
            if not self._traced(name):
                continue
            orig = getattr(mods[module], attr)
            wrapper = self._wrap(orig, name, enter, leave)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, key, wrapper)
        for sub, attr, name, enter, leave in NUMPY:
            if self._traced(name):
                ns = getattr(np, sub)
                self._patch(ns, attr, self._wrap(getattr(ns, attr), name, enter, leave))

    def _patch(self, ns, key, wrapper):
        self._patched.append((ns, key, getattr(ns, key)))
        setattr(ns, key, wrapper)

    def uninstall(self):
        while self._patched:
            ns, key, orig = self._patched.pop()
            setattr(ns, key, orig)

    def _wrap(self, fn, name, enter, leave):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.request, self.phase)
            if enter is not None:
                span.attrs.update(enter(args, kwargs))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child += span.end - span.start
            if leave is not None:
                leave(self, span, args, kwargs, result)
            return result

        return traced

    def enclosing(self, span, name):
        """Nearest ancestor of span with the given name, or None."""
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return span
        return None


def aggregate(spans):
    """Per span name: calls, inclusive and self milliseconds."""
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["ms"] += s.ms
        row["self_ms"] += s.self_ms
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, pass_s):
    """The per-layer metrics of one traced pass that took pass_s seconds.

    Counts, shares and per-iteration costs cover the pass. The ``.ms`` metrics
    of single operations are mean milliseconds per call over everything traced,
    set-up and output checks included, so generator and t-product costs show
    on every workload. A layer the workload does not call reports 0.
    """
    spans = tracer.spans
    passed = [s for s in spans if s.phase == "pass"]
    pass_ms = 1e3 * pass_s

    def named(name, pool=passed):
        return [s for s in pool if s.name == name]

    def ms(pool):
        return sum((s.ms for s in pool), 0.0)

    def self_ms(pool):
        return sum((s.self_ms for s in pool), 0.0)

    def mean_ms(name):
        pool = named(name, spans)
        return _ratio(ms(pool), len(pool))

    def mb_per_s(name):
        pool = named(name, spans)
        return _ratio(sum(s.attrs["bytes"] for s in pool) / 1e6, ms(pool) / 1e3)

    solves = named("solver.solve")
    iters = sum(s.attrs["iters"] for s in solves)
    tsvt = named("prox.tsvt")
    soft = named("prox.soft_threshold")
    svd = named("decomposition.svd")
    fft = named("core.fft")
    svd_in_solve = [s for s in svd if tracer.enclosing(s, "solver.solve")]
    fft_in_solve = [s for s in fft if tracer.enclosing(s, "solver.solve")]
    svd_in_tsvt = [s for s in svd if "kept" in s.attrs]
    computed = sum(s.attrs["computed"] for s in svd_in_tsvt)

    return {
        "solver.solve.calls": len(solves),
        "solver.solve.iters": iters,
        "solver.solve.ms_per_iter": _ratio(ms(solves), iters),
        "solver.solve.self_ms_per_iter": _ratio(self_ms(solves), iters),
        "solver.solve.self_share": _ratio(self_ms(solves), pass_ms),
        "prox.tsvt.calls": len(tsvt),
        "prox.tsvt.ms_per_call": _ratio(ms(tsvt), len(tsvt)),
        "prox.tsvt.self_ms_per_call": _ratio(self_ms(tsvt), len(tsvt)),
        "prox.tsvt.share": _ratio(ms(tsvt), pass_ms),
        "prox.tsvt.self_share": _ratio(self_ms(tsvt), pass_ms),
        "prox.tsvt.kept_rank_max": max((s.attrs["kept_max"] for s in svd_in_tsvt), default=0),
        "prox.tsvt.kept_frac": _ratio(sum(s.attrs["kept"] for s in svd_in_tsvt), computed),
        "prox.soft_threshold.ms_per_call": _ratio(ms(soft), len(soft)),
        "prox.soft_threshold.share": _ratio(ms(soft), pass_ms),
        "decomposition.svd.calls": len(svd),
        "decomposition.svd.matrices": sum(s.attrs["matrices"] for s in svd),
        "decomposition.svd.ms_per_iter": _ratio(ms(svd_in_solve), iters),
        "decomposition.svd.share": _ratio(ms(svd), pass_ms),
        "core.fft.calls": len(fft),
        "core.fft.ms_per_iter": _ratio(ms(fft_in_solve), iters),
        "core.fft.share": _ratio(ms(fft), pass_ms),
        "core.fft.bytes_computed": sum(s.attrs["bytes"] for s in fft),
        "decomposition.tsvd.ms": mean_ms("decomposition.tsvd"),
        "decomposition.skinny_tsvd.ms": mean_ms("decomposition.skinny_tsvd"),
        "decomposition.best_rank_k.ms": mean_ms("decomposition.best_rank_k"),
        "decomposition.tubal_rank.ms": mean_ms("decomposition.tubal_rank"),
        "algebra.tprod.ms": mean_ms("algebra.tprod"),
        "norms.tnn.ms": mean_ms("norms.tnn"),
        "norms.spectral_norm.ms": mean_ms("norms.spectral_norm"),
        "norms.incoherence.ms": mean_ms("norms.incoherence"),
        "synth.gen_low_tubal_rank.ms": mean_ms("synth.gen_low_tubal_rank"),
        "synth.gen_sparse_bernoulli.ms": mean_ms("synth.gen_sparse_bernoulli"),
        "io.read_tensor.mb_per_s": mb_per_s("io.read_tensor"),
        "io.write_tensor.mb_per_s": mb_per_s("io.write_tensor"),
        "cli.decompose.self_ms": self_ms(named("cli.decompose")),
    }
