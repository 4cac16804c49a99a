"""Persistence and interchange: T3F1 tensor files, P6 image conversion,
pixel corruption, PSNR, and CSV/JSON experiment reports.

T3F1 layout: magic bytes ``T3F1``, three little-endian uint32 dims n1, n2, n3,
then n1*n2*n3 little-endian float64 values ordered frontal-slice-slowest and
row-major within each slice. Trailing bytes after the payload are ignored.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

from .core import as_tensor3, linf_norm
from .errors import (
    BadMagic,
    DimensionOverflow,
    MalformedHeader,
    ShapeMismatch,
    Truncated,
    UnsupportedFormat,
    ZeroReference,
)

MAGIC = b"T3F1"
# Caps header-driven allocation; 2^32 doubles is already 32 GiB.
MAX_ELEMENTS = 1 << 32


def _check_dims(path, shape):
    """Reject dimensions that a T3F1 header cannot hold or that read_tensor
    would refuse: zero, 2^32 or more, or more than MAX_ELEMENTS in all."""
    n1, n2, n3 = shape
    if min(shape) == 0 or max(shape) >= 1 << 32 or n1 * n2 * n3 > MAX_ELEMENTS:
        raise DimensionOverflow(f"{path}: unusable dimensions ({n1}, {n2}, {n3})")


def write_tensor(path, a):
    """Serialize a tensor to a T3F1 file."""
    # Before as_tensor3, so that an empty third mode is a DimensionOverflow too.
    if np.ndim(a) == 3:
        _check_dims(path, np.shape(a))
    a = as_tensor3(a)
    payload = np.ascontiguousarray(a.transpose(2, 0, 1)).astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", *a.shape))
        fh.write(payload)


def read_tensor(path):
    """Parse a T3F1 file back into a tensor, rejecting malformed input."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"{path}: not a T3F1 file")
    if len(raw) < 16:
        raise Truncated(f"{path}: header incomplete")
    n1, n2, n3 = struct.unpack("<III", raw[4:16])
    _check_dims(path, (n1, n2, n3))
    count = n1 * n2 * n3
    need = 16 + 8 * count
    if len(raw) < need:
        raise Truncated(f"{path}: expected {need} bytes, found {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=16)
    return np.ascontiguousarray(flat.reshape(n3, n1, n2).transpose(1, 2, 0))


def image_to_tensor(ppm_bytes):
    """Decode a binary 8-bit P6 image into an (n1, n2, 3) tensor in [0, 1]."""
    magic, rest = _token(ppm_bytes)
    if magic in (b"P1", b"P2", b"P3", b"P4", b"P5"):
        raise UnsupportedFormat(f"only binary P6 is supported, got {magic.decode()}")
    if magic != b"P6":
        raise MalformedHeader("missing P6 signature")
    width, rest = _int_token(rest)
    height, rest = _int_token(rest)
    maxval, rest = _int_token(rest)
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad image size {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the raster.
    if not rest or rest[:1] not in (b"\n", b" ", b"\t", b"\r"):
        raise MalformedHeader("missing separator before raster")
    raster = rest[1:]
    need = width * height * 3
    if len(raster) < need:
        raise MalformedHeader(f"raster needs {need} bytes, found {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8, count=need)
    return pixels.reshape(height, width, 3).astype(np.float64) / 255.0


def tensor_to_image(a):
    """Encode an (n1, n2, 3) tensor as P6 bytes: clamp to [0, 1], scale to
    0..255, round half up."""
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    if n3 != 3:
        raise ShapeMismatch(f"image tensor needs 3 channels, got {n3}")
    levels = np.floor(np.clip(a, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    header = f"P6\n{n2} {n1}\n255\n".encode()
    return header + levels.tobytes()


def _token(data):
    """Next whitespace-delimited token, skipping '#' comment lines."""
    i = 0
    while True:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i < len(data) and data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        break
    start = i
    while i < len(data) and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
        i += 1
    if start == i:
        raise MalformedHeader("unexpected end of header")
    return data[start:i], data[i:]


def _int_token(data):
    tok, rest = _token(data)
    try:
        return int(tok), rest
    except ValueError:
        raise MalformedHeader(f"expected integer, got {tok!r}") from None


def corrupt_pixels(a, fraction, seed):
    """Replace floor(fraction * n1 * n2) whole tubes with uniform [0, 1) noise.

    Returns (corrupted, mask) where mask is an (n1, n2) boolean array marking
    the replaced positions.
    """
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    count = int(np.floor(fraction * n1 * n2))
    rng = np.random.default_rng(seed)
    mask = np.zeros((n1, n2), dtype=bool)
    corrupted = a.copy()
    if count > 0:
        flat = rng.choice(n1 * n2, size=count, replace=False)
        mask.ravel()[flat] = True
        corrupted[mask, :] = rng.random(size=(count, n3))
    return corrupted, mask


def psnr(reference, estimate):
    """Peak signal-to-noise ratio in dB, with the reference max-norm as peak.

    Returns math.inf when the estimate matches the reference exactly; report
    writers render that sentinel as the string "exact".
    """
    reference = as_tensor3(reference)
    estimate = as_tensor3(estimate)
    if reference.shape != estimate.shape:
        raise ShapeMismatch(f"shape {reference.shape} vs {estimate.shape}")
    peak = linf_norm(reference)
    if peak == 0.0:
        raise ZeroReference("PSNR reference has zero peak")
    mse = float(np.mean((estimate - reference) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def _report_values(fields):
    """Report fields as written: None-valued fields omitted, infinities as the
    string "exact", numpy scalars as Python scalars."""
    clean = {}
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, float) and math.isinf(value):
            value = "exact"
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        clean[key] = value
    return clean


def render_report(fields):
    """Canonical JSON for experiment reports.

    None-valued fields are omitted, infinities become the string "exact", and
    keys are sorted, so identical runs produce identical bytes.
    """
    return json.dumps(_report_values(fields), sort_keys=True, indent=2) + "\n"


def write_scalar_csv(path, fields):
    """Key/value CSV for scalar reports, in insertion order."""
    lines = ["key,value"]
    for key, value in _report_values(fields).items():
        lines.append(f"{key},{value}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(path, grid):
    """Per-cell CSV for phase grids, rows in grid order."""
    lines = ["r_frac,rho_s,trials,successes"]
    for row in grid:
        for cell in row:
            lines.append(f"{cell.r_frac},{cell.rho_s},{cell.trials},{cell.successes}")
    Path(path).write_text("\n".join(lines) + "\n")
