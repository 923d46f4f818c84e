"""Binary field snapshots.

Layout (all little-endian, independent of host byte order):

    magic   4 bytes  b"SQGD"
    version u16      1
    n_x     u32
    n_y     u32
    time    f64
    A       f64
    payload n_x * n_y f64, row-major

Write-then-read is bit-exact; files are written atomically.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fields import ScalarField
from .grid import Grid

MAGIC = b"SQGD"
VERSION = 1
_HEADER = struct.Struct("<4sHIIdd")


class SnapshotError(ValueError):
    """Malformed or unsupported snapshot file."""


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then move it
    onto ``path``, so a failed write leaves the earlier file untouched."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_snapshot(path: str | Path, field: ScalarField, t: float, A: float) -> None:
    n = field.grid.n
    header = _HEADER.pack(MAGIC, VERSION, n, n, float(t), float(A))
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    write_atomic(path, header, payload)


def read_snapshot(path: str | Path) -> tuple[ScalarField, float, float]:
    """Load a snapshot, returning (field, time, A). Validates magic,
    version, and payload length; refuses non-square grids."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, n_x, n_y, t, A = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    if n_x != n_y:
        raise SnapshotError(f"{path}: non-square grid {n_x}x{n_y} not supported")
    expected = _HEADER.size + 8 * n_x * n_y
    if len(raw) != expected:
        raise SnapshotError(f"{path}: payload length {len(raw) - _HEADER.size} "
                            f"does not match {n_x}x{n_y} grid")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n_x, n_y)
    field = ScalarField(Grid(n_x), values.astype(np.float64))
    return field, t, A
