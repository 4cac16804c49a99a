"""End-to-end command-line behavior: flags, files, reports, exit codes."""

import json

import numpy as np
import pytest

from tubalkit import errors, io
from tubalkit.cli import EXIT_CODES, main
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
    # 1.1**k overflows a float near k = 7,450; mu must settle at mu_max instead.
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


def image_corrupt_out_of_range(tmp_path, monkeypatch):
    argv = black_image(tmp_path, monkeypatch)
    return argv + ["--corrupt", "2"]


@pytest.mark.parametrize("make_argv, code", [
    pytest.param(synth("--rank", "9"), 64, id="rank-above-n"),
    pytest.param(synth("--max-iters", "0"), 64, id="max-iters-zero"),
    pytest.param(synth("--eps", "-1"), 64, id="negative-eps"),
    pytest.param(synth("--lambda", "0"), 64, id="zero-lambda"),
    pytest.param(synth("--lambda", "nan"), 64, id="nan-lambda"),
    pytest.param(synth("--eps", "nan"), 64, id="nan-eps"),
    pytest.param(synth("--eps", "inf"), 64, id="inf-eps"),
    pytest.param(phase("--trials", "0"), 64, id="phase-trials-zero"),
    pytest.param(phase("--success-tol=nan"), 64, id="nan-success-tol"),
    pytest.param(phase("--success-tol=-1"), 64, id="negative-success-tol"),
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


def test_every_library_error_has_an_exit_code():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert classes
    for cls in classes:
        assert any(issubclass(cls, row) for row, _ in EXIT_CODES), cls.__name__
