"""Tensor primitives: mode-3 DFT, dense reference operators, inner products,
and the package layering around the half-spectrum kernel."""

import ast
from pathlib import Path

import numpy as np
import pytest

from tubalkit import core
from tubalkit.algebra import tprod
from tubalkit.core import fro_norm, half_spectrum, half_svt, inner, l1_norm, linf_norm
from tubalkit.errors import ShapeMismatch
from tubalkit.norms import spectral_norm, tnn
from tubalkit.prox import WarmStart, soft_threshold, tsvt
from tubalkit.solver import SolverConfig, solve
from tubalkit.synth import gen_low_tubal_rank

from oracles import SymmetryViolation, bcirc, bdiag, dft3, fold, idft3, unfold


def brute_dft(v):
    """O(n^2) DFT straight from the transform matrix definition."""
    n = len(v)
    w = np.exp(-2j * np.pi / n)
    f = w ** (np.outer(np.arange(n), np.arange(n)))
    return f @ np.asarray(v, dtype=complex)


# ── dft3 / idft3 ─────────────────────────────────────────────────────────────


def test_dft3_length_one_tubes_are_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 2, 1))
    abar = dft3(a)
    assert np.allclose(abar.imag, 0.0)
    assert np.allclose(abar.real, a)


def test_dft3_matches_brute_force_tube():
    a = np.zeros((1, 1, 4))
    a[0, 0, :] = [1.0, 2.0, 3.0, 4.0]
    expected = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
    assert np.allclose(brute_dft([1.0, 2.0, 3.0, 4.0]), expected)
    assert np.allclose(dft3(a)[0, 0, :], expected, atol=1e-12)


def test_dft3_zeros():
    assert np.all(dft3(np.zeros((2, 3, 5))) == 0.0)


@pytest.mark.parametrize("n3", [2, 3, 4, 5, 8])
def test_dft3_conjugate_symmetry(n3):
    rng = np.random.default_rng(n3)
    a = rng.normal(size=(3, 2, n3))
    abar = dft3(a)
    scale = np.linalg.norm(abar.ravel())
    assert np.max(np.abs(abar[:, :, 0].imag)) <= 1e-10 * scale
    for j in range(1, n3):
        assert np.allclose(abar[:, :, j], np.conj(abar[:, :, n3 - j]), rtol=1e-10, atol=1e-10 * scale)


def test_idft3_roundtrip_seeded():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(4, 3, 5))
    back = idft3(dft3(a))
    assert np.linalg.norm((back - a).ravel()) <= 1e-10 * np.linalg.norm(a.ravel())


def test_idft3_frozen_tube():
    abar = np.zeros((1, 1, 4), dtype=complex)
    abar[0, 0, :] = [10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j]
    assert np.allclose(idft3(abar)[0, 0, :], [1.0, 2.0, 3.0, 4.0], atol=1e-12)


def test_idft3_rejects_asymmetric_spectrum():
    a = np.random.default_rng(1).normal(size=(2, 2, 4))
    abar = dft3(a)
    abar[:, :, 1] += 5.0j  # mirror slice 3 untouched
    with pytest.raises(SymmetryViolation):
        idft3(abar)


def test_roundtrip_shape_sweep():
    rng = np.random.default_rng(7)
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for n3 in range(1, 9):
                a = rng.normal(size=(n1, n2, n3))
                back = idft3(dft3(a))
                assert np.linalg.norm((back - a).ravel()) <= 1e-10 * np.linalg.norm(a.ravel())


def test_parseval_transfer():
    rng = np.random.default_rng(3)
    for n3 in (1, 2, 5, 8):
        a = rng.normal(size=(4, 3, n3))
        lhs = fro_norm(a)
        rhs = np.linalg.norm(dft3(a).ravel()) / np.sqrt(n3)
        assert abs(lhs - rhs) <= 1e-10 * rhs


# ── bcirc / bdiag / unfold / fold ────────────────────────────────────────────


def test_bcirc_single_slice():
    a = np.arange(6.0).reshape(2, 3, 1)
    assert np.array_equal(bcirc(a), a[:, :, 0])


def test_bcirc_tube_circulant():
    a = np.zeros((1, 1, 3))
    a[0, 0, :] = [1.0, 2.0, 3.0]  # (a, b, c)
    expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    assert np.array_equal(bcirc(a), expected)


def test_bcirc_block_diagonalization():
    # (F kron I) bcirc(a) (F^-1 kron I) must equal bdiag of the spectrum.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2, 3))
    n1, n2, n3 = a.shape
    f = np.fft.fft(np.eye(n3), axis=0)
    finv = np.conj(f) / n3
    lhs = np.kron(f, np.eye(n1)) @ bcirc(a) @ np.kron(finv, np.eye(n2))
    rhs = bdiag(dft3(a))
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_unfold_fold_roundtrip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 2))
    assert np.array_equal(fold(unfold(a), 2), a)


def test_unfold_tube_is_column():
    a = np.zeros((1, 1, 3))
    a[0, 0, :] = [1.0, 2.0, 3.0]
    assert np.array_equal(unfold(a), np.array([[1.0], [2.0], [3.0]]))


def test_fold_rejects_indivisible_rows():
    with pytest.raises(ShapeMismatch):
        fold(np.zeros((7, 3)), 2)


# ── inner products and elementwise norms ─────────────────────────────────────


def test_inner_self_is_squared_fro():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3, 4))
    assert np.isclose(inner(a, a), fro_norm(a) ** 2)


def test_inner_fourier_transfer():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3, 4))
    b = rng.normal(size=(3, 3, 4))
    lhs = inner(a, b)
    rhs = inner(dft3(a), dft3(b)) / 4
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_inner_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        inner(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_complex_input_is_rejected():
    z = np.ones((2, 2, 2)) * (1 + 1j)
    with pytest.raises(TypeError):
        tprod(z, np.ones((2, 2, 2)))
    with pytest.raises(TypeError):
        tnn(z)
    with pytest.raises(TypeError):
        solve(z)
    with pytest.raises(TypeError):
        soft_threshold(z, 0.5)


def test_empty_third_mode_is_rejected():
    # No Fourier slices: rejected where the tensor enters, not inside the FFT.
    # An empty second mode, as in rank-0 skinny factors, stays valid.
    empty = np.ones((3, 3, 0))
    for call in (
        lambda: tsvt(empty, 0.5),
        lambda: tsvt(empty, 0.5, WarmStart()),
        lambda: tprod(empty, empty),
        lambda: spectral_norm(empty),
        lambda: solve(empty, SolverConfig(lam=1.0)),
        lambda: gen_low_tubal_rank(3, 3, 0, 1, 0),
    ):
        with pytest.raises(ShapeMismatch):
            call()


def test_l1_linf():
    a = np.zeros((1, 3, 1))
    a[0, :, 0] = [1.0, -2.0, 0.0]
    assert l1_norm(a) == 3.0
    assert linf_norm(a) == 2.0


# ── singular value thresholding kernel ───────────────────────────────────────


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_uncertified_slices_are_thresholded_exactly(monkeypatch, n3):
    # Wide enough, and keeping enough values, that a rebuild from fewer
    # columns than the full SVD's rounds differently under OpenBLAS, which
    # takes another kernel for a short inner dimension.
    rng = np.random.default_rng(n3)
    y = gen_low_tubal_rank(100, 90, n3, 6, seed=n3) + 1e-2 * rng.normal(size=(100, 90, n3))
    stack, tau = half_spectrum(y), 1.0
    basis = rng.normal(size=(n3 // 2 + 1, 90, 12))
    exact, exact_kept, v, certified = half_svt(stack, n3, tau)
    assert v.shape[2] == 0 and not certified.any()
    # Within each batch (the real slices, then the complex ones) the first,
    # third, ... slice fails its certificate.
    passes = core._certified
    monkeypatch.setattr(core, "_certified",
                        lambda a, uk, tau: passes(a, uk, tau) & (np.arange(len(a)) % 2 == 1))
    out, kept, v, certified = half_svt(stack, n3, tau, basis)
    assert v.shape == basis.shape
    assert np.array_equal(kept, exact_kept)
    failed = ~certified
    assert not certified[0] and certified.any() == (n3 > 1)
    assert np.array_equal(out[failed], exact[failed])
    assert fro_norm(out - exact) <= 1e-10 * fro_norm(exact)


# ── layering ─────────────────────────────────────────────────────────────────

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tubalkit"


def package_trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert any(p.name == "core.py" for p in paths)
    return [(p.name, ast.parse(p.read_text())) for p in paths]


def dotted(node):
    """'np.linalg.svd' for a chain of attribute accesses on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_only_core_calls_the_fft_and_the_svd():
    # The real-slice decision lives in core's half_matmul, half_svd and
    # half_svt; a module that called numpy's FFT or a matrix factorization
    # itself could bypass it.
    kernels = ("np.fft", *(f"np.linalg.{f}" for f in ("svd", "qr", "eigh", "eigvalsh", "eig",
                                                         "eigvals", "cholesky", "svdvals")))

    def reaches_kernel(used):
        used = used.replace("numpy.", "np.", 1)
        return any(used == k or used.startswith(k + ".") for k in kernels)

    for name, tree in package_trees():
        if name == "core.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert not reaches_kernel(dotted(node) or ""), (name, dotted(node))
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    assert not reaches_kernel(f"{node.module}.{alias.name}"), (name, alias.name)


def test_no_module_imports_a_private_name_from_a_sibling():
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("tubalkit")
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (name, node.module, private)


def test_numerical_failure_is_raised_in_one_function():
    # Every LinAlgError that reaches a caller is mapped in one place.
    raisers = []
    for name, tree in package_trees():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                raises = [n for n in ast.walk(func) if isinstance(n, ast.Raise) and n.exc is not None]
                names = {x.id for r in raises for x in ast.walk(r.exc) if isinstance(x, ast.Name)}
                if "NumericalFailure" in names:
                    raisers.append((name, func.name))
    assert raisers == [("core.py", "_svd")]
