import os
import struct
import sys
import threading

import numpy as np
import pytest

from kneegrade.errors import WeightLoadError
from kneegrade.serialize import (MAGIC, load_tensors, read_sidecar, rollback, save_tensors,
                                 write_atomic, write_sidecar)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    named = {
        "backbone.stem.conv.weight": rng.normal(size=(8, 1, 3, 3)).astype(np.float32),
        "backbone.stem.bn.gamma": rng.normal(size=8).astype(np.float32),
        "scalar": np.float32(3.5),
    }
    path = tmp_path / "w.bin"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == sorted(named)
    for name, arr in named.items():
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], np.asarray(arr, dtype=np.float32))
        assert loaded[name].tobytes() == np.asarray(arr, dtype="<f4").tobytes()


def test_save_load_save_is_identical(tmp_path):
    rng = np.random.default_rng(2)
    named = {f"t{i}": rng.normal(size=(i + 1, 3)).astype(np.float32) for i in range(5)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_tensors(p1, named)
    save_tensors(p2, load_tensors(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(WeightLoadError, match="magic"):
        load_tensors(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_tensors(path, {"a": np.ones((4, 4), dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(WeightLoadError, match="truncated|corrupt"):
        load_tensors(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_tensors(path, {"a": np.ones(3, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(WeightLoadError, match="trailing"):
        load_tensors(path)


def test_tensor_named_twice_rejected(tmp_path):
    # two entries named "a": the last would win, and save_tensors could not
    # write the file back
    path = tmp_path / "w.bin"
    save_tensors(path, {"a": np.ones(2, dtype=np.float32)})
    raw = path.read_bytes()
    entry = raw[16:]
    path.write_bytes(raw[:4] + (1).to_bytes(4, "little") + (2).to_bytes(8, "little")
                     + entry + entry)
    with pytest.raises(WeightLoadError, match=r"w\.bin: tensor 'a' appears twice"):
        load_tensors(path)


def test_header_layout():
    # magic stays stable; other tools rely on it
    assert MAGIC == b"KGWB"


def test_loaded_arrays_own_their_memory(tmp_path):
    path = tmp_path / "w.bin"
    save_tensors(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                        "b": np.float32(2.0)})
    for arr in load_tensors(path).values():
        assert arr.flags.owndata and arr.flags.writeable
        arr += 1


@pytest.mark.parametrize("shape", [(0,) * 65, (0, 2**62)], ids=["rank_65", "extent_2_62"])
def test_zero_size_shape_numpy_cannot_make_rejected(tmp_path, shape):
    # the extents' product is 0, so the byte budget passes; reshape then fails
    path = tmp_path / "w.bin"
    entry = (struct.pack("<I", 1) + b"a" + struct.pack("<I", len(shape))
             + struct.pack(f"<{len(shape)}Q", *shape))
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, 1) + entry)
    with pytest.raises(WeightLoadError, match=r"w\.bin: truncated or corrupt at tensor 0"):
        load_tensors(path)


def test_sidecar_round_trip(tmp_path):
    artifact = tmp_path / "table.csv"
    artifact.write_text("x\n")
    write_sidecar(artifact, {"config_hash": "ff", "n": 3})
    assert read_sidecar(artifact) == {"config_hash": "ff", "n": 3}


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_rollback_removes_what_was_written_in_it(tmp_path, exc):
    (tmp_path / "untouched").write_bytes(b"old")
    (tmp_path / "overwritten").write_bytes(b"old")
    with pytest.raises(exc), rollback():
        write_atomic(tmp_path / "new", b"new")
        write_atomic(tmp_path / "overwritten", b"new")
        worker = threading.Thread(target=write_atomic, args=(tmp_path / "threaded", b"new"))
        worker.start()
        worker.join()
        assert len(os.listdir(tmp_path)) == 4
        raise exc
    assert os.listdir(tmp_path) == ["untouched"]
    assert (tmp_path / "untouched").read_bytes() == b"old"


def test_rollback_records_every_write_of_many_threads(tmp_path):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(RuntimeError), rollback():
            workers = [threading.Thread(target=lambda t=t: [
                write_atomic(tmp_path / f"{t}_{i}", b"x") for i in range(25)]) for t in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            assert len(os.listdir(tmp_path)) == 150
            raise RuntimeError
    finally:
        sys.setswitchinterval(interval)
    assert os.listdir(tmp_path) == []


def test_rollback_keeps_what_a_passing_block_wrote(tmp_path):
    with rollback():
        write_sidecar(tmp_path / "table.csv", {"n": 1})
    assert read_sidecar(tmp_path / "table.csv") == {"n": 1}


def test_nothing_is_recorded_outside_rollback(tmp_path):
    write_atomic(tmp_path / "before", b"kept")
    with pytest.raises(RuntimeError), rollback():
        raise RuntimeError
    write_atomic(tmp_path / "after", b"kept")
    with pytest.raises(RuntimeError), rollback():
        raise RuntimeError
    assert sorted(os.listdir(tmp_path)) == ["after", "before"]
