"""Persistence and interchange: T3F1 tensor files, P6 image conversion,
pixel corruption, PSNR, and CSV/JSON experiment reports.

T3F1 layout: magic bytes ``T3F1``, three little-endian uint32 dims n1, n2, n3,
then n1*n2*n3 little-endian float64 values ordered frontal-slice-slowest and
row-major within each slice. Trailing bytes after the payload are ignored.

P6 header: the tokens ``P6``, width, height and maxval, separated by whitespace
or by ``#`` comments that run to the end of their line; one space, tab, CR or LF
then precedes the raster, which is read in place rather than copied.
"""

import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np

from .core import as_finite_tensor3, as_tensor3, is_bool, linf_norm, runs
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
# read_tensor and write_tensor move the payload in runs of whole frontal slices
# of at most this many bytes (one slice at least). One slice per read took 1.1 s
# for a 1 x 1 x 10^6 file, whose whole payload reads in 2 ms; 256 KiB runs keep
# the peak of reading a 64 MB file at 1.005 payloads.
RUN_BYTES = 1 << 18


def _check_dims(path, shape):
    """Reject dimensions that a T3F1 header cannot hold or that read_tensor
    would refuse: zero, 2^32 or more, or more than MAX_ELEMENTS in all."""
    n1, n2, n3 = shape
    if min(shape) == 0 or max(shape) >= 1 << 32 or n1 * n2 * n3 > MAX_ELEMENTS:
        raise DimensionOverflow(f"{path}: unusable dimensions ({n1}, {n2}, {n3})")


def write_tensor(path, a):
    """Serialize a tensor to a T3F1 file, a run of frontal slices at a time, so
    that no copy of the whole payload is made."""
    # Before as_tensor3, so that an empty third mode is a DimensionOverflow too.
    if np.ndim(a) == 3:
        _check_dims(path, np.shape(a))
    a = as_tensor3(a)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", *a.shape))
        for span, run in runs((a.shape[2], *a.shape[:2]), RUN_BYTES, "<f8"):
            run[...] = a[:, :, span].transpose(2, 0, 1)
            fh.write(run)


def read_tensor(path):
    """Parse a T3F1 file back into a tensor, rejecting malformed input. The
    payload goes into the (n1, n2, n3) result a run of frontal slices at a
    time, so the file is never held whole."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 4 or head[:4] != MAGIC:
            raise BadMagic(f"{path}: not a T3F1 file")
        if len(head) < 16:
            raise Truncated(f"{path}: header incomplete")
        n1, n2, n3 = struct.unpack("<III", head[4:16])
        _check_dims(path, (n1, n2, n3))
        need, size = 16 + 8 * n1 * n2 * n3, os.fstat(fh.fileno()).st_size
        if size < need:
            raise Truncated(f"{path}: expected {need} bytes, found {size}")
        out = np.empty((n1, n2, n3))
        for span, run in runs((n3, n1, n2), RUN_BYTES, "<f8"):
            if fh.readinto(run) < run.nbytes:
                raise Truncated(f"{path}: file shrank while being read")
            out[:, :, span] = run.transpose(1, 2, 0)
    return out


def image_to_tensor(ppm_bytes):
    """Decode a binary 8-bit P6 image into an (n1, n2, 3) tensor in [0, 1]."""
    magic, pos = _token(ppm_bytes, 0)
    if magic in (b"P1", b"P2", b"P3", b"P4", b"P5"):
        raise UnsupportedFormat(f"only binary P6 is supported, got {magic.decode()}")
    if magic != b"P6":
        raise MalformedHeader("missing P6 signature")
    width, pos = _int_token(ppm_bytes, pos)
    height, pos = _int_token(ppm_bytes, pos)
    maxval, pos = _int_token(ppm_bytes, pos)
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad image size {width}x{height}")
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    # Exactly one whitespace byte separates the header from the raster.
    if ppm_bytes[pos:pos + 1] not in (b"\n", b" ", b"\t", b"\r"):
        raise MalformedHeader("missing separator before raster")
    need, found = width * height * 3, len(ppm_bytes) - pos - 1
    if found < need:
        raise MalformedHeader(f"raster needs {need} bytes, found {found}")
    pixels = np.frombuffer(ppm_bytes, dtype=np.uint8, count=need, offset=pos + 1)
    return pixels.reshape(height, width, 3).astype(np.float64) / 255.0


def tensor_to_image(a):
    """Encode an (n1, n2, 3) tensor as P6 bytes: clamp to [0, 1], scale to
    0..255, round half up. An empty image or a non-finite entry, which no
    pixel value stands for, is rejected."""
    a = as_finite_tensor3(a)
    n1, n2, n3 = a.shape
    if n3 != 3 or a.size == 0:
        raise ShapeMismatch(f"image tensor needs n1, n2 >= 1 and 3 channels, got shape {a.shape}")
    levels = np.clip(a, 0.0, 1.0)  # the one float buffer, scaled and rounded in place
    levels *= 255.0
    levels += 0.5
    levels = np.floor(levels, out=levels).astype(np.uint8)
    header = f"P6\n{n2} {n1}\n255\n".encode()
    return header + levels.tobytes()


# A header token after whitespace and comments. The lookahead holds a comment to
# its line's end, so a failed match cannot backtrack into it and read a token.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)")


def _token(data, pos):
    """The header token at or after offset pos, and the offset just past it."""
    match = _TOKEN.match(data, pos)
    if match is None:
        raise MalformedHeader("unexpected end of header")
    return match[1], match.end()


def _int_token(data, pos):
    tok, pos = _token(data, pos)
    try:
        return int(tok), pos
    except ValueError:
        raise MalformedHeader(f"expected integer, got {tok!r}") from None


def corrupt_pixels(a, fraction, seed):
    """Replace floor(fraction * n1 * n2) whole tubes with uniform [0, 1) noise.

    Returns (corrupted, mask) where mask is an (n1, n2) boolean array marking
    the replaced positions.
    """
    a = as_tensor3(a)
    n1, n2, n3 = a.shape
    if is_bool(fraction) or not 0.0 <= fraction <= 1.0:
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

    Returns math.inf when the estimate matches the reference exactly; the
    CLI's image report writes that sentinel as the string "exact". Any other
    pair of finite tensors gets a finite value: the error is scaled by its
    max-norm before it is squared, and halved first if the difference
    overflows. A non-finite entry is a NonFiniteInput.
    """
    reference = as_finite_tensor3(reference)
    estimate = as_finite_tensor3(estimate)
    if reference.shape != estimate.shape:
        raise ShapeMismatch(f"shape {reference.shape} vs {estimate.shape}")
    peak = linf_norm(reference)
    if peak == 0.0:
        raise ZeroReference("PSNR reference has zero peak")
    with np.errstate(over="ignore"):
        err, scale = estimate - reference, 1.0
    if np.isinf(err).any():  # finite operands whose difference overflows
        err, scale = np.divide(estimate, 2, out=err), 2.0
        err -= reference / 2
    top = linf_norm(err)
    if top == 0.0:
        return math.inf
    err /= top
    mse = float(np.mean(np.square(err, out=err)))  # in [1 / size, 1]
    return 20.0 * (math.log10(peak) - math.log10(top) - math.log10(scale)) - 10.0 * math.log10(mse)


def _report_values(fields):
    """Report fields as written: None-valued fields omitted, numpy scalars as
    Python scalars, and a non-finite float as the string "inf", "-inf" or
    "nan", which JSON can hold."""
    clean = {}
    for key, value in fields.items():
        if value is None:
            continue
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, float) and not math.isfinite(value):
            value = str(value)
        clean[key] = value
    return clean


def render_report(fields):
    """Canonical JSON for experiment reports.

    None-valued fields are omitted, non-finite floats become the strings
    "inf", "-inf" and "nan", and keys are sorted, so identical runs produce
    identical bytes.
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
