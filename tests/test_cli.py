"""End-to-end command-line behavior: flags, files, reports, exit codes."""

import json
import sys

import numpy as np
import pytest

from tubalkit import cli, core, decomposition, errors, io, norms
from tubalkit.cli import EXIT_CODES, SOLUTION_RANK_TOL, grid, main, size
from tubalkit.core import fro_norm
from tubalkit.synth import gen_low_tubal_rank, gen_sparse_bernoulli


def run_cli(*argv):
    return main(list(argv))


# ── decompose ────────────────────────────────────────────────────────────────


def test_decompose_recovers_synthetic_parts(tmp_path):
    l0 = gen_low_tubal_rank(50, 50, 20, 3, seed=1)
    e0 = gen_sparse_bernoulli(50, 50, 20, 0.05, "rho", seed=2)
    xpath = tmp_path / "x.t3f"
    io.write_tensor(xpath, l0 + e0)
    report = tmp_path / "report.json"
    code = run_cli(
        "decompose", "--input", str(xpath),
        "--out-l", str(tmp_path / "l.t3f"), "--out-e", str(tmp_path / "e.t3f"),
        "--report", str(report),
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["converged"] is True
    assert data["tubal_rank"] == 3
    l_hat = io.read_tensor(tmp_path / "l.t3f")
    e_hat = io.read_tensor(tmp_path / "e.t3f")
    assert fro_norm(l_hat - l0) / fro_norm(l0) <= 1e-5
    assert fro_norm(e_hat - e0) / fro_norm(e0) <= 1e-8


def test_decompose_reports_partial_svd_counts(tmp_path):
    # Slices 80 wide keep the solver's partial SVD open for a rank-1 part.
    l0 = gen_low_tubal_rank(80, 80, 4, 1, seed=3)
    e0 = gen_sparse_bernoulli(80, 80, 4, 0.05, "rho", seed=4)
    xpath = tmp_path / "x.t3f"
    io.write_tensor(xpath, l0 + e0)
    report = tmp_path / "report.json"
    assert run_cli("decompose", "--input", str(xpath), "--report", str(report)) == 0
    data = json.loads(report.read_text())
    assert data["svd_certified"] > 0 and data["svd_fallbacks"] >= 0
    assert data["svd_certified"] + data["svd_fallbacks"] <= data["iters"] * (4 // 2 + 1)


def test_decompose_report_takes_no_svd_after_the_solve(tmp_path, monkeypatch):
    # tubal_rank and tnn are both read off the singular values that the solve's
    # last thresholding kept, and equal what the two functions report on their
    # own, tnn to rounding.
    real = core.half_svd
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    for module in (core, decomposition, norms):
        monkeypatch.setattr(module, "half_svd", spy)
    x = gen_low_tubal_rank(20, 20, 6, 2, seed=5) + gen_sparse_bernoulli(20, 20, 6, 0.05, "rho", seed=6)
    report = tmp_path / "r.json"
    assert run_cli("decompose", "--input", tensor_file(tmp_path, x), "--out-l", str(tmp_path / "l.t3f"),
                   "--report", str(report)) == 0
    assert calls == []
    monkeypatch.undo()
    data = json.loads(report.read_text())
    l_hat = io.read_tensor(tmp_path / "l.t3f")
    assert data["tubal_rank"] == decomposition.tubal_rank(l_hat, SOLUTION_RANK_TOL) == 2
    assert data["tnn"] == pytest.approx(norms.tnn(l_hat), rel=1e-12, abs=0)


def test_decompose_counts_the_rank_of_values_whose_sum_overflows(tmp_path):
    # The mean of each value over the Fourier slices is finite, though its sum
    # is not: the rank is counted, not cut to 0. The TNN itself overflows, as
    # norms.tnn's sum does, and is written as "inf", valid JSON.
    x = np.random.default_rng(0).standard_normal((20, 20, 4)) * 1e307
    report = tmp_path / "r.json"
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = run_cli("decompose", "--input", tensor_file(tmp_path, x), "--max-iters", "20",
                       "--report", str(report))
    assert code == 2
    data = json.loads(report.read_text(), parse_constant=pytest.fail)
    assert data["tubal_rank"] == 20
    assert data["tnn"] == "inf"


def test_decompose_zero_tensor(tmp_path):
    xpath = tmp_path / "zero.t3f"
    io.write_tensor(xpath, np.zeros((6, 5, 4)))
    code = run_cli(
        "decompose", "--input", str(xpath),
        "--out-l", str(tmp_path / "l.t3f"), "--out-e", str(tmp_path / "e.t3f"),
        "--report", str(tmp_path / "r.json"),
    )
    assert code == 0
    assert np.all(io.read_tensor(tmp_path / "l.t3f") == 0.0)
    assert np.all(io.read_tensor(tmp_path / "e.t3f") == 0.0)


def test_decompose_reports_nonconvergence_long_after_mu_reaches_its_cap(tmp_path):
    # 1.1**k overflows a float near k = 7,450; mu must settle at MU_MAX instead.
    x = np.random.default_rng(0).normal(size=(4, 4, 2))
    report = tmp_path / "r.json"
    code = run_cli("decompose", "--input", tensor_file(tmp_path, x), "--eps", "1e-300",
                   "--max-iters", "8000", "--report", str(report))
    assert code == 2
    data = json.loads(report.read_text())
    assert data["converged"] is False and data["iters"] == 8000


def test_decompose_missing_input(tmp_path, capsys):
    code = run_cli("decompose", "--input", str(tmp_path / "nope.t3f"))
    assert code == 1
    assert "error" in capsys.readouterr().err


# ── synth ────────────────────────────────────────────────────────────────────


def test_synth_end_to_end(tmp_path):
    report = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    code = run_cli(
        "synth", "--n1", "30", "--n2", "30", "--n3", "10",
        "--rank", "2", "--sparsity-rho", "0.05", "--seed", "5",
        "--report", str(report), "--csv", str(csv),
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["tubal_rank"] == 2
    assert data["rel_err_l"] <= 1e-5
    assert data["rel_err_e"] <= 1e-8
    assert abs(data["recovered_nnz"] - data["m"]) <= 0.01 * max(data["m"], 1)
    assert csv.read_text().startswith("key,value\n")


def test_synth_trivial_instance(tmp_path):
    report = tmp_path / "z.json"
    code = run_cli(
        "synth", "--n1", "8", "--n2", "8", "--n3", "4",
        "--rank", "0", "--sparsity-count", "0", "--seed", "1",
        "--report", str(report),
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["rel_err_l"] == 0.0
    assert data["rel_err_e"] == 0.0
    assert data["tubal_rank"] == 0


@pytest.mark.parametrize("instance, zero_truth", [
    (("--rank", "0", "--sparsity-rho", "0.9", "--lambda", "2"), "rel_err_l"),
    (("--rank", "3", "--sparsity-count", "0", "--lambda", "0.01"), "rel_err_e"),
], ids=["rank_0", "no_corruption"])
def test_synth_reports_the_error_against_a_zero_truth(tmp_path, instance, zero_truth):
    # The solver misplaces all of X here: the error against the zero part is
    # its absolute error, a number, not the "exact" sentinel of a perfect match.
    report, csv = tmp_path / "s.json", tmp_path / "s.csv"
    code = run_cli("synth", "--n1", "10", "--n2", "10", "--n3", "4", "--seed", "1", *instance,
                   "--report", str(report), "--csv", str(csv))
    assert code == 0
    data = json.loads(report.read_text())
    rows = dict(line.split(",") for line in csv.read_text().splitlines()[1:])
    for key in ("rel_err_l", "rel_err_e"):
        assert isinstance(data[key], float) and data[key] > 0.0
        assert float(rows[key]) == data[key]
    assert data[zero_truth] > 1.0


def test_synth_reports_reproducible(tmp_path):
    args = [
        "synth", "--n1", "20", "--n2", "20", "--n3", "5",
        "--rank", "1", "--sparsity-rho", "0.05", "--seed", "9",
    ]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli(*args, "--report", str(r1)) == 0
    assert run_cli(*args, "--report", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


# ── phase ────────────────────────────────────────────────────────────────────


def test_phase_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli(
        "phase", "--n", "20", "--n3", "5",
        "--r-grid", "0.05:0.2:0.25", "--rho-grid", "0.05:0.2:0.25",
        "--trials", "1", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r_frac,rho_s,trials,successes"
    assert len(lines) == 5  # header + 2x2 cells
    for line in lines[1:]:
        successes = int(line.split(",")[-1])
        assert successes in (0, 1)


def test_phase_empty_grid_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "phase", "--n", "20", "--n3", "5",
            "--r-grid", "0.5:0.1:0.1", "--rho-grid", "0.05:0.1:0.25",
            "--trials", "1", "--seed", "3", "--out", str(tmp_path / "g.csv"),
        )
    assert exc.value.code == 64


@pytest.mark.parametrize("r_grid", [
    pytest.param("nonsense", id="nonsense"),
    pytest.param("0:1e307:inf", id="infinite-bound"),
    pytest.param("0:1e-300:1", id="too-many-values"),
    pytest.param("0:nan:1", id="nan-step"),
])
def test_phase_bad_grid_range_is_usage_error(tmp_path, r_grid):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "phase", "--n", "20", "--n3", "5",
            "--r-grid", r_grid, "--rho-grid", "0.05:0.1:0.25",
            "--trials", "1", "--seed", "3", "--out", str(tmp_path / "g.csv"),
        )
    assert exc.value.code == 64


def test_grid_values_are_a_plus_i_step():
    # Summing the step would drift to 999.900000000159 and drop 1000.
    values = grid("0.1:0.1:1000")
    assert len(values) == 10_000 and values[-3:] == [999.8, 999.9, 1000.0]
    # A step that cannot move a huge bound still gives the one value.
    assert grid("1e300:1:1e300") == [1e300]


def test_phase_deterministic(tmp_path):
    args = [
        "phase", "--n", "20", "--n3", "5",
        "--r-grid", "0.05:0.1:0.15", "--rho-grid", "0.05:0.1:0.05",
        "--trials", "2", "--seed", "8",
    ]
    out1 = tmp_path / "g1.csv"
    out2 = tmp_path / "g2.csv"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ── image ────────────────────────────────────────────────────────────────────


def low_rank_image_bytes(n, rank, seed):
    base = gen_low_tubal_rank(n, n, 3, rank, seed=seed)
    lo, hi = base.min(), base.max()
    return io.tensor_to_image((base - lo) / (hi - lo))


def test_image_no_corruption_reports_exact(tmp_path):
    src = tmp_path / "in.ppm"
    src.write_bytes(low_rank_image_bytes(32, 4, seed=6))
    report = tmp_path / "img.json"
    code = run_cli(
        "image", "--input", str(src), "--corrupt", "0", "--seed", "1",
        "--out", str(tmp_path / "out.ppm"), "--report", str(report),
    )
    assert code in (0, 2)
    data = json.loads(report.read_text())
    assert data["psnr_corrupted"] == "exact"
    # recovered pixels land back on the original grid values
    assert data["psnr_recovered"] == "exact" or data["psnr_recovered"] >= 53.0


def test_image_recovery_beats_corruption(tmp_path):
    src = tmp_path / "in.ppm"
    src.write_bytes(low_rank_image_bytes(48, 5, seed=7))
    report = tmp_path / "img.json"
    code = run_cli(
        "image", "--input", str(src), "--corrupt", "0.1", "--seed", "2",
        "--out", str(tmp_path / "out.ppm"), "--report", str(report),
    )
    assert code in (0, 2)
    data = json.loads(report.read_text())
    assert data["psnr_recovered"] - data["psnr_corrupted"] >= 10.0


def test_image_rejects_non_p6(tmp_path):
    src = tmp_path / "in.pgm"
    src.write_bytes(b"P5\n2 2\n255\n" + b"\0" * 4)
    code = run_cli(
        "image", "--input", str(src), "--seed", "1",
        "--out", str(tmp_path / "out.ppm"),
    )
    assert code == 1


# ── exit-code table ──────────────────────────────────────────────────────────


def tensor_file(tmp_path, x):
    path = tmp_path / "x.t3f"
    io.write_tensor(path, x)
    return str(path)


def nan_tensor(tmp_path, monkeypatch):
    x = np.zeros((3, 3, 2))
    x[0, 0, 0] = np.nan
    return ["decompose", "--input", tensor_file(tmp_path, x)]


def report_in_missing_dir(tmp_path, monkeypatch):
    return ["decompose", "--input", tensor_file(tmp_path, np.ones((3, 3, 2))),
            "--report", str(tmp_path / "missing" / "r.json")]


def black_image(tmp_path, monkeypatch):
    src = tmp_path / "black.ppm"
    src.write_bytes(io.tensor_to_image(np.zeros((4, 4, 3))))
    return ["image", "--input", str(src), "--seed", "1", "--out", str(tmp_path / "o.ppm")]


def svd_fails(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    return ["decompose", "--input", tensor_file(tmp_path, np.ones((3, 3, 2)))]


def synth(*extra):
    return lambda tmp_path, monkeypatch: [
        "synth", "--n1", "4", "--n2", "4", "--n3", "2", "--rank", "1",
        "--sparsity-count", "1", "--seed", "1", *extra,
    ]


def phase(*extra):
    return lambda tmp_path, monkeypatch: [
        "phase", "--n", "4", "--n3", "2", "--r-grid", "0.25:0.25:0.25",
        "--rho-grid", "0.1:0.1:0.1", "--trials", "1", "--seed", "1",
        "--out", str(tmp_path / "g.csv"), *extra,
    ]


def phase_rate_above_one(tmp_path, monkeypatch):
    # The bad rate follows a good one; it must be rejected before any solve.
    def solve(*args, **kwargs):
        raise AssertionError("phase_grid solved before checking every rate")

    monkeypatch.setattr("tubalkit.synth.solve", solve)
    return phase("--rho-grid", "0.1:0.7:1.5")(tmp_path, monkeypatch)


def phase_out_of_memory(tmp_path, monkeypatch):
    # A 100000 x 100000 x 1000 grid asks numpy for 7.28 TiB; the generator
    # stands in for that request, so that nothing is allocated.
    def gen_low_tubal_rank(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr("tubalkit.synth.gen_low_tubal_rank", gen_low_tubal_rank)
    return phase("--n", "100000", "--n3", "1000", "--r-grid", "0.1:0.1:0.1")(tmp_path, monkeypatch)


def image_corrupt_out_of_range(tmp_path, monkeypatch):
    argv = black_image(tmp_path, monkeypatch)
    return argv + ["--corrupt", "2"]


@pytest.mark.parametrize("make_argv, code", [
    pytest.param(synth("--rank", "9"), 64, id="rank-above-n"),
    pytest.param(synth("--max-iters", "0"), 64, id="max-iters-zero"),
    pytest.param(synth("--eps", "-1"), 64, id="negative-eps"),
    pytest.param(synth("--lambda", "0"), 64, id="zero-lambda"),
    pytest.param(synth("--lambda", "nan"), 64, id="nan-lambda"),
    pytest.param(synth("--lambda", "inf"), 64, id="inf-lambda"),
    pytest.param(synth("--eps", "nan"), 64, id="nan-eps"),
    pytest.param(synth("--eps", "inf"), 64, id="inf-eps"),
    pytest.param(phase("--trials", "0"), 64, id="phase-trials-zero"),
    pytest.param(phase("--success-tol=nan"), 64, id="nan-success-tol"),
    pytest.param(phase("--success-tol=-1"), 64, id="negative-success-tol"),
    pytest.param(phase("--r-grid=-0.5:0.1:-0.4"), 64, id="phase-negative-rank-fraction"),
    pytest.param(phase("--r-grid", "0:0.01:0.02"), 64, id="phase-rank-fraction-rounds-to-zero"),
    pytest.param(phase_rate_above_one, 64, id="phase-rate-above-one"),
    pytest.param(phase_out_of_memory, 64, id="phase-out-of-memory"),
    pytest.param(image_corrupt_out_of_range, 64, id="corrupt-above-one"),
    pytest.param(report_in_missing_dir, 1, id="report-in-missing-dir"),
    pytest.param(nan_tensor, 1, id="nan-payload"),
    pytest.param(black_image, 1, id="all-black-image"),
    pytest.param(svd_fails, 3, id="svd-linalg-error"),
])
def test_library_errors_map_to_exit_codes(tmp_path, monkeypatch, capsys, make_argv, code):
    assert run_cli(*make_argv(tmp_path, monkeypatch)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("make_argv, flag", [
    pytest.param(phase("--trials", str(10**20)), "--trials", id="phase-trials-overflow"),
    pytest.param(synth("--n1", str(10**20)), "--n1", id="synth-dimension-too-large"),
])
def test_oversized_size_flags_are_named(tmp_path, monkeypatch, capsys, make_argv, flag):
    # A size above sys.maxsize fails in argparse, which names the flag and the
    # value, before numpy can fail on it with a message that names neither.
    with pytest.raises(SystemExit) as exc:
        run_cli(*make_argv(tmp_path, monkeypatch))
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {10**20} is larger than {sys.maxsize}" in err, err
    assert size(str(sys.maxsize)) == sys.maxsize


def test_every_library_error_has_an_exit_code():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert classes
    for cls in classes:
        assert any(issubclass(cls, row) for row, _ in EXIT_CODES), cls.__name__


@pytest.mark.parametrize("argv, code", [
    (["synth", "--n1", "20", "--n2", "20", "--n3", "8", "--rank", "2", "--sparsity-rho", "0.05", "--seed", "1"],
     cli.EXIT_OK),
    (["synth", "--n1", "x"], cli.EXIT_USAGE),
], ids=["ok", "usage"])
def test_the_console_script_exits_with_the_command_code(monkeypatch, capsys, argv, code):
    # pyproject.toml's entry point, cli.run, reads sys.argv and exits with the
    # code that main returns or that the parser exits with.
    monkeypatch.setattr(sys, "argv", ["tubalkit", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code


# ── reports ──────────────────────────────────────────────────────────────────


def test_reports_name_their_blas(tmp_path, monkeypatch):
    # Reports are byte-identical only under one BLAS, so they say which.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = tmp_path / "in.ppm"
    src.write_bytes(low_rank_image_bytes(8, 1, seed=1))
    report = tmp_path / "r.json"
    for argv in (
        ["decompose", "--input", tensor_file(tmp_path, np.ones((3, 3, 2)))],
        synth()(tmp_path, monkeypatch),
        ["image", "--input", str(src), "--seed", "1", "--out", str(tmp_path / "o.ppm")],
    ):
        assert run_cli(*argv, "--report", str(report)) in (0, 2)
        assert json.loads(report.read_text())["blas"] == f"{blas['name']} {blas['version']}"
    # A build record that does not name its BLAS leaves the field out.
    monkeypatch.setattr(np, "show_config", lambda mode: {})
    assert run_cli(*synth()(tmp_path, monkeypatch), "--report", str(report)) == 0
    assert "blas" not in json.loads(report.read_text())
