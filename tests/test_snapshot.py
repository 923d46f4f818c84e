"""Snapshot format tests: bit-exact round trips (also as a property over
finite fields, times and amplitudes), header validation and atomic writes."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sqgd import Grid, ScalarField, read_snapshot, write_snapshot
from sqgd.snapshot import MAGIC, VERSION, SnapshotError


def make_field(n=16, seed=0):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    return ScalarField(g, rng.standard_normal((n, n)))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        field = make_field(seed=3)
        path = tmp_path / "field.sqgd"
        write_snapshot(path, field, t=1.25, A=4.0)
        loaded, t, A = read_snapshot(path)
        assert np.array_equal(loaded.values, field.values)
        assert t == 1.25
        assert A == 4.0

    def test_write_twice_identical_bytes(self, tmp_path):
        field = make_field(seed=4)
        p1, p2 = tmp_path / "a.sqgd", tmp_path / "b.sqgd"
        write_snapshot(p1, field, 0.5, 1.0)
        write_snapshot(p2, field, 0.5, 1.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        field = make_field()
        path = tmp_path / "f.sqgd"
        write_snapshot(path, field, 2.0, 3.0)
        raw = path.read_bytes()
        magic, version, nx, ny, t, A = struct.unpack_from("<4sHIIdd", raw)
        assert magic == MAGIC
        assert version == VERSION
        assert (nx, ny) == (16, 16)
        assert (t, A) == (2.0, 3.0)
        assert len(raw) == 30 + 8 * 16 * 16


class TestValidation:
    def test_corrupted_magic(self, tmp_path):
        field = make_field()
        path = tmp_path / "f.sqgd"
        write_snapshot(path, field, 0.0, 0.0)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(path)

    def test_wrong_version(self, tmp_path):
        field = make_field()
        path = tmp_path / "f.sqgd"
        write_snapshot(path, field, 0.0, 0.0)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        field = make_field()
        path = tmp_path / "f.sqgd"
        write_snapshot(path, field, 0.0, 0.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotError, match="payload"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "f.sqgd"
        path.write_bytes(b"SQGD\x01")
        with pytest.raises(SnapshotError, match="header"):
            read_snapshot(path)

    def test_non_square_refused(self, tmp_path):
        path = tmp_path / "f.sqgd"
        header = struct.pack("<4sHIIdd", MAGIC, VERSION, 8, 16, 0.0, 0.0)
        path.write_bytes(header + b"\x00" * (8 * 8 * 16))
        with pytest.raises(SnapshotError, match="non-square"):
            read_snapshot(path)


class _FailingPayloadFile:
    """File wrapper whose second write, the payload after the header,
    raises as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


class TestAtomicWrite:
    def test_failed_payload_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.sqgd"
        write_snapshot(path, make_field(seed=1), 0.5, 1.0)
        before = path.read_bytes()
        monkeypatch.setattr("sqgd.snapshot.open",
                            lambda *args, **kwargs: _FailingPayloadFile(open(*args, **kwargs)),
                            raising=False)
        with pytest.raises(OSError):
            write_snapshot(path, make_field(seed=2), 1.5, 2.0)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["f.sqgd"]


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshot_fields(draw):
    n = 2 * draw(st.integers(min_value=4, max_value=32))
    return draw(arrays(np.float64, (n, n), elements=finite))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(values=snapshot_fields(), t=finite, A=finite)
    def test_bit_exact(self, values, t, A):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.sqgd"
            write_snapshot(path, ScalarField(Grid(values.shape[0]), values), t, A)
            loaded, t_read, A_read = read_snapshot(path)
        assert loaded.values.tobytes() == values.tobytes()
        assert struct.pack("<dd", t_read, A_read) == struct.pack("<dd", t, A)
