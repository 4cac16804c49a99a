"""Seeded generators and the phase-grid runner."""

import numpy as np
import pytest

from tubalkit import synth
from tubalkit.decomposition import tubal_rank
from tubalkit.errors import CountOutOfRange, RankOutOfRange, ShapeMismatch
from tubalkit.synth import PhaseCell, gen_low_tubal_rank, gen_sparse_bernoulli, phase_grid


# ── low tubal rank generator ─────────────────────────────────────────────────


def test_rank_zero_gives_zero_tensor():
    for shape in ((5, 4, 3), (4, 5, 1), (0, 4, 3)):
        a = gen_low_tubal_rank(*shape, 0, seed=0)
        assert a.shape == shape
        assert np.all(a == 0.0) and not np.signbit(a).any()


def test_generated_rank_is_exact():
    a = gen_low_tubal_rank(20, 20, 5, 3, seed=1)
    assert tubal_rank(a, 1e-10) == 3


def test_generated_rank_across_shapes():
    for n1, n2, n3, r in [(10, 8, 4, 2), (8, 10, 3, 1), (12, 12, 6, 5)]:
        a = gen_low_tubal_rank(n1, n2, n3, r, seed=n1 + n2)
        assert tubal_rank(a, 1e-10) == r


def test_low_rank_determinism():
    a = gen_low_tubal_rank(6, 6, 4, 2, seed=42)
    b = gen_low_tubal_rank(6, 6, 4, 2, seed=42)
    assert np.array_equal(a, b)


def test_rank_out_of_range():
    for r in (5, -1, 1.5):
        with pytest.raises(RankOutOfRange):
            gen_low_tubal_rank(4, 4, 2, r, seed=0)
    assert gen_low_tubal_rank(4, 4, 2, np.int64(1), seed=0).shape == (4, 4, 2)
    # The dimensions follow as_tensor3's rule, before the rank is checked.
    for shape, r in (((4, 4, 2.5), 1), ((-1, 4, 2), 0), ((4, 4, 0), 0)):
        with pytest.raises(ShapeMismatch):
            gen_low_tubal_rank(*shape, r, seed=0)
    assert gen_low_tubal_rank(np.int64(4), 4, np.int32(2), 1, seed=0).shape == (4, 4, 2)


# ── sparse generator ─────────────────────────────────────────────────────────


def test_sparse_empty():
    assert np.all(gen_sparse_bernoulli(4, 4, 2, 0, "count", seed=0) == 0.0)
    assert np.all(gen_sparse_bernoulli(4, 4, 2, 0.0, "rho", seed=0) == 0.0)


def test_sparse_count_is_exact():
    e = gen_sparse_bernoulli(100, 100, 100, 50_000, "count", seed=1)
    assert np.count_nonzero(e) == 50_000
    vals = np.unique(e[e != 0.0])
    assert set(vals) <= {-1.0, 1.0}


def test_sparse_rho_within_three_sigma():
    n1, n2, n3, rho = 100, 100, 50, 0.2
    e = gen_sparse_bernoulli(n1, n2, n3, rho, "rho", seed=2)
    total = n1 * n2 * n3
    mean = rho * total
    sigma = np.sqrt(total * rho * (1 - rho))
    assert abs(np.count_nonzero(e) - mean) <= 3 * sigma
    vals = np.unique(e[e != 0.0])
    assert set(vals) <= {-1.0, 1.0}


def test_sparse_determinism():
    a = gen_sparse_bernoulli(10, 10, 5, 0.3, "rho", seed=3)
    b = gen_sparse_bernoulli(10, 10, 5, 0.3, "rho", seed=3)
    assert np.array_equal(a, b)


def test_sparse_range_errors():
    with pytest.raises(CountOutOfRange):
        gen_sparse_bernoulli(2, 2, 2, 9, "count", seed=0)
    with pytest.raises(CountOutOfRange):
        gen_sparse_bernoulli(3, 3, 2, 2.5, "count", seed=0)
    with pytest.raises(CountOutOfRange):
        gen_sparse_bernoulli(2, 2, 2, 1.5, "rho", seed=0)
    for flag in (True, False, np.True_):  # a bool compares as 0 or 1, not as a rate
        with pytest.raises(CountOutOfRange):
            gen_sparse_bernoulli(2, 2, 2, flag, "rho", seed=0)
    with pytest.raises(ValueError):
        gen_sparse_bernoulli(2, 2, 2, 1, "bogus", seed=0)
    for shape in ((2.5, 3, 2), (3, 3, 0), (3, -1, 2)):
        with pytest.raises(ShapeMismatch):
            gen_sparse_bernoulli(*shape, 0.1, "rho", seed=0)
    assert gen_sparse_bernoulli(np.int64(3), 3, 2, 1, "count", seed=0).shape == (3, 3, 2)


# ── phase grid ───────────────────────────────────────────────────────────────


def test_phase_grid_tiny_deterministic():
    grid1 = phase_grid(20, 5, [0.05], [0.05], trials=2, seed=7)
    grid2 = phase_grid(20, 5, [0.05], [0.05], trials=2, seed=7)
    assert grid1 == grid2
    cell = grid1[0][0]
    assert isinstance(cell, PhaseCell)
    assert cell.trials == 2
    assert 0 <= cell.successes <= 2


def test_phase_grid_easy_cell_succeeds():
    grid = phase_grid(20, 5, [0.05], [0.05], trials=2, seed=11)
    assert grid[0][0].successes == 2


def test_phase_grid_validation(monkeypatch):
    with pytest.raises(ValueError):
        phase_grid(10, 3, [], [0.1], trials=1, seed=0)
    with pytest.raises(ValueError):
        phase_grid(10, 3, [0.1], [0.1], trials=0, seed=0)
    with pytest.raises(ValueError):
        phase_grid(10, 3, [0.1], [0.1], trials=2.0, seed=0)
    for success_tol in (0.0, np.nan, True, np.True_):  # a bool compares as 0 or 1
        with pytest.raises(ValueError):
            phase_grid(10, 3, [0.1], [0.1], trials=1, success_tol=success_tol, seed=0)
    for n, n3 in ((10.5, 3), (0, 3), (10, 0), (10, 2.0)):
        with pytest.raises(ShapeMismatch):
            phase_grid(n, n3, [0.1], [0.1], trials=1, seed=0)

    # Every rank fraction must round half up to a rank in [1, n] before the
    # first solve; the solve below marks a grid that got past that check.
    class Solved(Exception):
        pass

    def solve(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(synth, "solve", solve)
    for r_frac in (-0.5, 0.0, 0.04, 1.05, 1.1, np.nan, np.inf, True, np.True_):
        with pytest.raises(RankOutOfRange):
            phase_grid(10, 3, [0.1, r_frac], [0.1], trials=1, seed=0)
    for r_frac in (0.05, 1.04):
        with pytest.raises(Solved):
            phase_grid(10, 3, [r_frac], [0.1], trials=1, seed=0)
    # So must every sparsity rate lie in [0, 1], before the first solve.
    for rho_s in (1.5, -0.1, np.nan, np.inf, True, np.False_):
        with pytest.raises(CountOutOfRange):
            phase_grid(10, 2, [0.1, 0.2], [0.1, rho_s], trials=1, seed=0)
    for rho_s in (0.0, 1.0):
        with pytest.raises(Solved):
            phase_grid(10, 2, [0.1], [rho_s], trials=1, seed=0)
