"""Tensor file format, P6 image conversion, corruption, PSNR, reports."""

import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubalkit import io
from tubalkit.errors import (
    BadMagic,
    DataError,
    DimensionOverflow,
    MalformedHeader,
    NonFiniteInput,
    ShapeMismatch,
    Truncated,
    UnsupportedFormat,
    ZeroReference,
)

from oracles import traced_peak


# ── T3F1 tensor files ────────────────────────────────────────────────────────


def test_tensor_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 5))
    path = tmp_path / "a.t3f"
    io.write_tensor(path, a)
    back = io.read_tensor(path)
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


def test_tensor_layout_is_slice_slowest(tmp_path):
    a = np.arange(12.0).reshape(2, 3, 2)
    path = tmp_path / "a.t3f"
    io.write_tensor(path, a)
    raw = path.read_bytes()
    assert raw[:4] == b"T3F1"
    assert struct.unpack("<III", raw[4:16]) == (2, 3, 2)
    values = np.frombuffer(raw[16:], dtype="<f8")
    # slice 0 row-major, then slice 1
    assert np.array_equal(values[:6], a[:, :, 0].ravel())
    assert np.array_equal(values[6:], a[:, :, 1].ravel())


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_copies_the_payload_once(tmp_path, order):
    # The payload goes out through one run buffer of ten frontal slices,
    # 240 KB: 0.256 of the 960 KB payload measured, in either order.
    a = np.asarray(np.random.default_rng(1).normal(size=(60, 50, 40)), order=order)
    path = tmp_path / "a.t3f"
    assert traced_peak(lambda: io.write_tensor(path, a)) <= 0.3 * a.nbytes
    assert path.read_bytes()[16:] == np.ascontiguousarray(a.transpose(2, 0, 1)).tobytes()


def test_read_holds_one_payload(tmp_path):
    # The payload goes into the result a few frontal slices at a time.
    a = np.random.default_rng(2).normal(size=(100, 100, 100))
    path = tmp_path / "a.t3f"
    io.write_tensor(path, a)
    back = []
    assert traced_peak(lambda: back.append(io.read_tensor(path))) <= 1.1 * a.nbytes
    assert back[0].tobytes() == a.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.t3f"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(BadMagic):
        io.read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.t3f"
    payload = struct.pack("<III", 10, 10, 10) + b"\0" * 8 * (1000 - 100)
    path.write_bytes(b"T3F1" + payload)
    with pytest.raises(Truncated):
        io.read_tensor(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "stub.t3f"
    path.write_bytes(b"T3F1\x01\x00")
    with pytest.raises(Truncated):
        io.read_tensor(path)


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.t3f"
    path.write_bytes(b"T3F1" + struct.pack("<III", 2**31, 2**31, 4))
    with pytest.raises(DimensionOverflow):
        io.read_tensor(path)
    path.write_bytes(b"T3F1" + struct.pack("<III", 0, 3, 3))
    with pytest.raises(DimensionOverflow):
        io.read_tensor(path)


@pytest.mark.parametrize("a", [
    np.zeros((2, 0, 3)),
    np.zeros((2**32, 1, 0)),
    np.broadcast_to(0.0, (2**32, 1, 1)),  # a view: no payload is allocated
    np.broadcast_to(0.0, (2**16, 2**16, 2)),
], ids=["zero-mode", "zero-mode-and-2^32", "dim-2^32", "over-max-elements"])
def test_write_rejects_dimensions_read_would_reject(tmp_path, a):
    path = tmp_path / "a.t3f"
    with pytest.raises(DimensionOverflow):
        io.write_tensor(path, a)
    assert not path.exists()


# A float64 from any 64-bit pattern: signed zeros, infinities, subnormals and
# NaNs with every payload.
any_float64 = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64))
small_dims = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
special_float64 = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan,
                                   np.uint64(0x7FF0_0000_DEAD_BEEF).view(np.float64)])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(dims=small_dims, data=st.data())
def test_tensor_roundtrip_is_exact_for_every_bit_pattern(dims, data):
    n = int(np.prod(dims))
    values = data.draw(st.lists(any_float64 | special_float64, min_size=n, max_size=n))
    a = np.array(values, dtype=np.float64).reshape(dims)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.t3f"
        io.write_tensor(path, a)
        back = io.read_tensor(path)
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(dims=st.tuples(*[st.integers(0, 3)] * 3))
def test_write_accepts_exactly_the_shapes_read_accepts(dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.t3f"
        path.write_bytes(b"T3F1" + struct.pack("<III", *dims) + bytes(8 * int(np.prod(dims))))
        try:
            read_ok = io.read_tensor(path).shape == dims
        except DimensionOverflow:
            read_ok = False
        path.unlink()
        try:
            io.write_tensor(path, np.zeros(dims))
            write_ok = True
        except DimensionOverflow:
            write_ok = False
        assert write_ok == read_ok == (min(dims) > 0)
        assert path.exists() == write_ok


def mutated(valid, byte):
    """`valid` after up to three edits, each cutting it at a random index or
    writing or inserting a byte drawn from `byte` there."""
    edit = st.tuples(st.sampled_from(["cut", "write", "insert"]),
                     st.sampled_from(range(len(valid) + 1)), byte)

    def apply(edits):
        out = bytearray(valid)
        for op, i, b in edits:
            if op == "cut":
                del out[i:]
            else:
                out[i:i + (op == "write")] = [b]
        return bytes(out)

    return st.lists(edit, max_size=3).map(apply)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(raw=mutated(b"T3F1" + struct.pack("<III", 1, 2, 3) + np.arange(6.0).tobytes(),
                   st.integers(0, 255)))
def test_fuzzed_tensor_files_raise_only_data_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.t3f"
        path.write_bytes(raw)
        try:
            a = io.read_tensor(path)
        except DataError:
            return
    assert a.shape == struct.unpack("<III", raw[4:16])


# ── P6 images ────────────────────────────────────────────────────────────────


def white_ppm(w, h):
    return f"P6\n{w} {h}\n255\n".encode() + b"\xff" * (3 * w * h)


def test_white_image_to_tensor():
    a = io.image_to_tensor(white_ppm(2, 2))
    assert a.shape == (2, 2, 3)
    assert np.all(a == 1.0)


def test_image_roundtrip_bytes():
    rng = np.random.default_rng(1)
    raster = rng.integers(0, 256, size=3 * 4 * 5, dtype=np.uint8).tobytes()
    ppm = b"P6\n4 5\n255\n" + raster
    assert io.tensor_to_image(io.image_to_tensor(ppm)) == ppm


def test_image_header_comments():
    # Tokens are separated by whitespace, \x0b and \x0c included, or by comments
    # that run to the end of their line, whatever they hold; int() reads a width.
    for header, width in [
        (b"P6\n# a comment\n2 1\n255\n", 2),
        (b"P6#c\n2 1\n255\n", 2),  # a comment glued to a token
        (b"P6 #_\n1 1\n255\n", 1),  # a token-like byte inside a comment
        (b"P6\x0b2\x0c1\x0b\x0c255\n", 2),
        (b"P6 +2 1 255\n", 2),
        (b"P6 1_0 1 255\n", 10),
    ]:
        raster = bytes(range(3 * width))
        a = io.image_to_tensor(header + raster)
        assert a.shape == (1, width, 3), header
        assert a.tobytes() == (np.frombuffer(raster, dtype=np.uint8) / 255.0).tobytes(), header


def test_image_decoding_holds_one_tensor():
    # The raster is read in place, not copied out of the file's bytes.
    ppm = white_ppm(400, 300)
    assert traced_peak(lambda: io.image_to_tensor(ppm)) <= 1.05 * 300 * 400 * 3 * 8


def test_image_encoding_holds_one_tensor():
    # Clamped, scaled and rounded in one float buffer before the uint8 cast.
    a = np.random.default_rng(3).uniform(-0.2, 1.2, (300, 400, 3))
    assert traced_peak(lambda: io.tensor_to_image(a)) <= 1.25 * a.nbytes


def test_tensor_to_image_clamps():
    a = np.full((1, 1, 3), 1.5)
    out = io.tensor_to_image(a)
    assert out.endswith(b"\xff\xff\xff")
    b = np.full((1, 1, 3), -0.2)
    assert io.tensor_to_image(b).endswith(b"\x00\x00\x00")


def test_image_rejects_other_formats():
    with pytest.raises(UnsupportedFormat):
        io.image_to_tensor(b"P5\n2 2\n255\n" + b"\0" * 4)
    with pytest.raises(UnsupportedFormat):
        io.image_to_tensor(b"P6\n2 2\n65535\n" + b"\0" * 24)
    with pytest.raises(MalformedHeader):
        io.image_to_tensor(b"JUNK")
    for ends_in_a_comment in (b"P6 2 1 # 255", b"P6 2 1\n# 255\n"):
        with pytest.raises(MalformedHeader, match="unexpected end of header"):
            io.image_to_tensor(ends_in_a_comment)


def test_image_rejects_short_raster():
    with pytest.raises(MalformedHeader):
        io.image_to_tensor(b"P6\n4 4\n255\n" + b"\0" * 10)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example(ppm=b"P6 0 2 255\n" + bytes(6))  # bad size
@example(ppm=b"P6 1 2 255")  # no separator before the raster
@example(ppm=b"P6 1 2")  # header ends early
@example(ppm=b"P6 1 x 255\n" + bytes(6))  # not an integer
@given(ppm=mutated(b"P6\n# c\n1 2\n255\n" + bytes(range(6)),
                   st.sampled_from(b" \n#-x0159P") | st.integers(0, 255)))
def test_fuzzed_images_raise_only_data_errors(ppm):
    try:
        a = io.image_to_tensor(ppm)
    except DataError:
        return
    assert a.ndim == 3 and a.shape[2] == 3 and a.size > 0


def test_tensor_to_image_needs_three_channels():
    with pytest.raises(ShapeMismatch):
        io.tensor_to_image(np.zeros((2, 2, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tensor_to_image_rejects_non_finite_entries(bad):
    a = np.full((2, 2, 3), 0.5)
    a[1, 0, 2] = bad
    with pytest.raises(NonFiniteInput):
        io.tensor_to_image(a)


@pytest.mark.parametrize("shape", [(0, 2, 3), (2, 0, 3)])
def test_tensor_to_image_rejects_an_empty_image(shape):
    # Its header would carry a size that image_to_tensor rejects.
    with pytest.raises(ShapeMismatch):
        io.tensor_to_image(np.zeros(shape))


# ── corruption ───────────────────────────────────────────────────────────────


def test_corrupt_zero_fraction():
    rng = np.random.default_rng(2)
    a = rng.random(size=(5, 4, 3))
    out, mask = io.corrupt_pixels(a, 0.0, seed=0)
    assert np.array_equal(out, a)
    assert not mask.any()


def test_corrupt_full_fraction():
    a = np.zeros((4, 4, 3))
    out, mask = io.corrupt_pixels(a, 1.0, seed=1)
    assert mask.all()
    assert np.all((0.0 <= out) & (out < 1.0))


def test_corrupt_count_is_floor():
    a = np.zeros((320, 480, 3))
    _, mask = io.corrupt_pixels(a, 0.1, seed=2)
    assert int(mask.sum()) == 15_360


def test_corrupt_hits_whole_tubes():
    a = np.full((6, 6, 3), 0.5)
    out, mask = io.corrupt_pixels(a, 0.25, seed=3)
    changed = np.any(out != a, axis=2)
    assert np.array_equal(changed, mask)
    # all three channel values replaced at every masked position
    assert np.all(out[mask, :] != 0.5)


@pytest.mark.parametrize("fraction", [-0.1, 1.5, np.nan, True, False, np.True_])
def test_corrupt_rejects_a_fraction_outside_the_unit_interval(fraction):
    # A bool compares as 0 or 1: True would replace every pixel.
    with pytest.raises(ValueError):
        io.corrupt_pixels(np.zeros((4, 4, 3)), fraction, seed=0)


def test_corrupt_deterministic():
    a = np.zeros((8, 8, 3))
    out1, m1 = io.corrupt_pixels(a, 0.2, seed=4)
    out2, m2 = io.corrupt_pixels(a, 0.2, seed=4)
    assert np.array_equal(out1, out2)
    assert np.array_equal(m1, m2)


# ── PSNR ─────────────────────────────────────────────────────────────────────


def test_psnr_exact_sentinel():
    a = np.full((3, 3, 3), 0.5)
    assert io.psnr(a, a.copy()) == math.inf


def test_psnr_closed_form():
    ref = np.ones((10, 10, 3))
    est = ref - 0.1
    assert np.isclose(io.psnr(ref, est), 20.0)


def test_psnr_scale_invariant():
    rng = np.random.default_rng(5)
    ref = rng.random(size=(4, 4, 3)) + 0.1
    est = ref + 0.05 * rng.random(size=(4, 4, 3))
    assert np.isclose(io.psnr(ref, est), io.psnr(2 * ref, 2 * est))


def test_psnr_errors():
    with pytest.raises(ShapeMismatch):
        io.psnr(np.ones((2, 2, 2)), np.ones((2, 2, 3)))
    with pytest.raises(ZeroReference):
        io.psnr(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["reference", "estimate"])
def test_psnr_rejects_non_finite_input(where, bad):
    ref, est = np.ones((2, 2, 2)), np.full((2, 2, 2), 0.9)
    (ref if where == "reference" else est)[0, 1, 1] = bad
    with pytest.raises(NonFiniteInput):
        io.psnr(ref, est)


def test_psnr_of_huge_and_tiny_finite_input_is_finite():
    ref = np.ones((10, 10, 3))
    est = ref - 0.1
    for c in (1e200, 2.0 ** 1000, 2.0 ** -1000, 1e-310):
        assert np.isclose(io.psnr(c * ref, c * est), 20.0), c
    # One huge entry: its error dominates the mean square.
    big = est.copy()
    big[0, 0, 0] = 1e200
    assert np.isclose(io.psnr(ref, big), -10.0 * (400 - math.log10(300)))
    # A difference that overflows: peak 1e308, every error 2e308.
    huge = np.full((2, 2, 2), 1e308)
    assert np.isclose(io.psnr(huge, -huge), -20.0 * math.log10(2.0))
    assert io.psnr(huge, huge.copy()) == math.inf


def test_psnr_holds_one_tensor():
    # The error is divided and squared where it was taken.
    rng = np.random.default_rng(4)
    ref = rng.uniform(0.0, 1.0, (300, 400, 3))
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    assert traced_peak(lambda: io.psnr(ref, est)) <= 1.25 * ref.nbytes


# ── reports ──────────────────────────────────────────────────────────────────


def test_render_report_sentinel_and_omission():
    # A non-finite float is written as its name, valid JSON; only the image
    # report's PSNR writes an infinity as "exact".
    fields = {"b": math.inf, "a": 1.5, "skip": None, "n": np.int64(3), "c": np.float64(-math.inf),
              "d": math.nan}
    data = json.loads(io.render_report(fields), parse_constant=pytest.fail)
    assert data == {"a": 1.5, "b": "inf", "c": "-inf", "d": "nan", "n": 3}
    assert list(data) == ["a", "b", "c", "d", "n"]  # sorted keys


def test_scalar_csv(tmp_path):
    path = tmp_path / "r.csv"
    io.write_scalar_csv(path, {"n1": 4, "err": 0.5, "skip": None})
    assert path.read_text() == "key,value\nn1,4\nerr,0.5\n"


def test_grid_csv(tmp_path):
    from tubalkit.synth import PhaseCell

    grid = [[PhaseCell(0.1, 0.2, 3, 2), PhaseCell(0.1, 0.3, 3, 0)]]
    path = tmp_path / "g.csv"
    io.write_grid_csv(path, grid)
    assert path.read_text() == (
        "r_frac,rho_s,trials,successes\n0.1,0.2,3,2\n0.1,0.3,3,0\n"
    )
