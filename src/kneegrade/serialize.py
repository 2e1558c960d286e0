"""On-disk formats: atomic writes, JSON sidecars, and a flat binary container
for named float32 tensors, laid out as (all integers little-endian):

    magic   4 bytes  b"KGWB"
    version u32      currently 1
    count   u64      number of tensors
    then per tensor, sorted by name:
        name_len u32, name utf-8, rank u32, extents u64 * rank,
        payload float32 * prod(extents)

Writing sorts tensors by name, so save(load(path)) reproduces ``path``
byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import DataError, WeightLoadError

MAGIC = b"KGWB"
VERSION = 1

_written = None     # paths write_atomic replaced or make_dirs made inside rollback(), else None


def write_atomic(path, data):
    """Replace ``path`` whole with ``data``, or leave it as it was.

    ``data`` is a str (written as UTF-8), bytes, or a sequence of bytes-like
    pieces written in order, never joined. They go to a dot-named temp file
    in the same directory, renamed over ``path`` once complete and removed
    on any failure; an ``OSError`` names ``path``. :func:`rollback` records
    the write once renamed. No fsync: this holds against a killed process,
    not against a power cut.
    """
    head, name = os.path.split(path)
    partial = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(partial, "wb") as fh:
            for piece in [data] if isinstance(data, bytes) else data:
                fh.write(piece)
        os.replace(partial, path)
        if (record := _written) is not None:     # one read: rollback may end meanwhile
            record.append(path)
    except OSError as exc:          # name the artifact, not its temp file
        exc.filename, exc.filename2 = os.fspath(path), None
        raise
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def make_dirs(path):
    """Make directory ``path`` and its missing parents, like ``os.makedirs``
    with ``exist_ok``. :func:`rollback` records each one that was missing,
    before it is made, so one made before a failure partway counts too."""
    missing = []
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        missing.append(head)
        head = os.path.dirname(head)
    if (record := _written) is not None:
        record.extend(reversed(missing))    # parents first, as they are made
    os.makedirs(path, exist_ok=True)


@contextlib.contextmanager
def rollback():
    """On any exception in the block, Ctrl-C included, undo what it recorded
    from any thread, newest first, then re-raise: remove each file that
    write_atomic replaced and each directory that make_dirs made, if empty.
    A directory that was there before the block is kept."""
    global _written
    _written = []
    try:
        yield
    except BaseException:
        for path in reversed(_written):     # a directory after everything made in it
            with contextlib.suppress(OSError):      # a directory not empty stays
                (os.rmdir if os.path.isdir(path) else os.remove)(path)
        raise
    finally:
        _written = None


def write_sidecar(artifact_path, doc):
    """Drop a small JSON description next to an artifact (path + .meta.json)."""
    path = str(artifact_path) + ".meta.json"
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_sidecar(artifact_path):
    """The JSON object beside ``artifact_path``; DataError if it is not one."""
    path = str(artifact_path) + ".meta.json"
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:       # undecodable bytes or malformed JSON
            raise DataError(f"{path}: not a JSON sidecar: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def save_tensors(path, named):
    """Write a mapping of name -> array-like to ``path``.

    Values are cast to float32; anything non-finite is written as-is (the
    container is a dumb transport, validation belongs to the caller).
    """
    blobs = [MAGIC + struct.pack("<IQ", VERSION, len(named))]
    for name in sorted(named):
        arr = named[name]
        data = np.asarray(getattr(arr, "data", arr), dtype="<f4")
        raw = name.encode("utf-8")
        head = struct.pack("<I", len(raw)) + raw + struct.pack("<I", data.ndim)
        head += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
        blobs += [head, data.tobytes()]
    write_atomic(path, blobs)


def load_tensors(path):
    """Read a container written by :func:`save_tensors`.

    Returns a dict of name -> float32 ndarray in file order. Raises
    WeightLoadError on a bad magic, version, truncated payload or a name
    that appears twice, on extents whose product overflows or exceeds the
    bytes left, checked on the header before any array is made, and on a
    shape numpy cannot make (more than 64 axes, or an extent too large
    beside a zero one).
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16 or buf[:4] != MAGIC:
        raise WeightLoadError(f"{path}: not a weight container (bad magic)")
    version, count = struct.unpack_from("<IQ", buf, 4)
    if version != VERSION:
        raise WeightLoadError(f"{path}: unsupported container version {version}")
    out = {}
    off = 16
    for i in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", buf, off)
            off += 4
            name = buf[off:off + name_len].decode("utf-8")
            if name in out:
                raise WeightLoadError(f"{path}: tensor {name!r} appears twice")
            off += name_len
            (rank,) = struct.unpack_from("<I", buf, off)
            off += 4
            if 8 * rank > len(buf) - off:
                raise struct.error(f"rank {rank} runs past end of file")
            shape = struct.unpack_from(f"<{rank}Q", buf, off)
            off += 8 * rank
            n = 1
            for extent in shape:        # Python ints: a huge product cannot wrap
                n *= extent
            if 4 * n > len(buf) - off:
                raise struct.error(f"extents {shape} need {4 * n} bytes, "
                                   f"{len(buf) - off} left")
            end = off + 4 * n
            data = np.frombuffer(buf, "<f4", count=n, offset=off).reshape(shape).copy()
            off = end
        except (struct.error, ValueError) as exc:    # ValueError: a bad UTF-8 name or shape
            raise WeightLoadError(f"{path}: truncated or corrupt at tensor {i}: {exc}") from None
        out[name] = data
    if off != len(buf):
        raise WeightLoadError(f"{path}: {len(buf) - off} trailing bytes after last tensor")
    return out
