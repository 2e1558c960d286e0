"""16-bit binary PGM (P5) read/write.

Binary PGM stores samples most-significant byte first when maxval > 255;
images here are always written with maxval 65535.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .serialize import write_atomic

MAXVAL = 65535


def write_pgm16(path, pixels):
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise DataError(f"PGM writer expects a 2-D image, got shape {arr.shape}")
    if arr.dtype != np.uint16:
        if np.any(arr < 0) or np.any(arr > MAXVAL):
            raise DataError("pixel values outside the uint16 range")
        arr = arr.astype(np.uint16)
    h, w = arr.shape
    write_atomic(path, [f"P5\n{w} {h}\n{MAXVAL}\n".encode("ascii"),
                        arr.astype(">u2").tobytes()])


def read_pgm16(path):
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise DataError(f"{path}: not a binary PGM (P5) file")
    # header is three whitespace-separated tokens after the magic, with
    # optional '#' comment lines
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PGM header")
        tokens.append(buf[start:pos])
    pos += 1  # single whitespace ends the header
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DataError(f"{path}: malformed PGM header tokens {tokens}") from None
    if maxval != MAXVAL:
        raise DataError(f"{path}: expected 16-bit PGM (maxval {MAXVAL}), got {maxval}")
    if w < 1 or h < 1:
        raise DataError(f"{path}: PGM extents {w}x{h} are not positive")
    need = w * h * 2
    raw = buf[pos:pos + need]
    if len(raw) != need:
        raise DataError(f"{path}: expected {need} payload bytes, found {len(raw)}")
    return np.frombuffer(raw, dtype=">u2").reshape(h, w).astype(np.uint16)
