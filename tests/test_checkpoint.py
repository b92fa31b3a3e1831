"""Checkpoint serialization: byte-stable round trips and integrity checks."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmix import checkpoint
from specmix.checkpoint import MAGIC, VERSION, Checkpoint, load_checkpoint, save_checkpoint
from specmix.errors import CheckpointError


def sample_arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "layer0.w": rng.normal(size=(3, 4)),
        "layer0.b": rng.normal(size=4),
        "emb": rng.normal(size=(5, 2)),
    }


SAMPLE_CONFIG = {"n_layers": 2, "mixing": "hartley", "d_model": 8}


class TestRoundTrip:
    def test_values_and_config_survive(self, tmp_path):
        path = tmp_path / "model.spmx"
        arrays = sample_arrays()
        save_checkpoint(path, SAMPLE_CONFIG, arrays)
        ckpt = load_checkpoint(path)
        assert isinstance(ckpt, Checkpoint)
        assert ckpt.config == SAMPLE_CONFIG
        assert set(ckpt.arrays) == set(arrays)
        for name, arr in arrays.items():
            assert ckpt.arrays[name].dtype == np.float64
            assert ckpt.arrays[name].tobytes() == np.asarray(arr, dtype="<f8").tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        """Sorted entries + canonical JSON make the format reproducible."""
        first = tmp_path / "a.spmx"
        second = tmp_path / "b.spmx"
        save_checkpoint(first, SAMPLE_CONFIG, sample_arrays())
        ckpt = load_checkpoint(first)
        save_checkpoint(second, ckpt.config, ckpt.arrays)
        assert first.read_bytes() == second.read_bytes()

    def test_insertion_order_does_not_matter(self, tmp_path):
        arrays = sample_arrays()
        reversed_order = dict(reversed(list(arrays.items())))
        a, b = tmp_path / "a.spmx", tmp_path / "b.spmx"
        save_checkpoint(a, SAMPLE_CONFIG, arrays)
        save_checkpoint(b, SAMPLE_CONFIG, reversed_order)
        assert a.read_bytes() == b.read_bytes()

    def test_names_stored_sorted(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, sample_arrays())
        ckpt = load_checkpoint(path)
        assert list(ckpt.arrays) == sorted(ckpt.arrays)

    def test_non_float64_input_is_converted(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
        loaded = load_checkpoint(path).arrays["x"]
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, np.arange(6.0).reshape(2, 3))

    def test_unicode_names_and_empty_config(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, {"emb.täble": np.ones((2, 2))})
        assert "emb.täble" in load_checkpoint(path).arrays


class TestCorruption:
    def test_flipped_payload_byte_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, SAMPLE_CONFIG, sample_arrays())
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_flipped_config_byte_rejected(self, tmp_path):
        """The checksum covers the embedded config, not just array payloads."""
        path = tmp_path / "m.spmx"
        save_checkpoint(path, SAMPLE_CONFIG, sample_arrays())
        raw = bytearray(path.read_bytes())
        raw[14] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, {"x": np.zeros(2)})
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, {"x": np.zeros(2)})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        # Recompute the trailing CRC so version is the only failure.
        body = bytes(raw[8:-4])
        raw[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, SAMPLE_CONFIG, sample_arrays())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, {}, {"x": np.zeros(3)})
        raw = bytearray(path.read_bytes())
        extra = b"\x00" * 8
        body = bytes(raw[8:-4]) + extra
        rebuilt = bytes(raw[:8]) + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(rebuilt)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_magic_constant(self):
        assert MAGIC == b"SPMX"

    def test_huge_declared_dims_rejected(self, tmp_path):
        # 65536**4 * 8 bytes wraps int64 to 0, which must not pass for "no payload".
        path = tmp_path / "m.spmx"
        path.write_bytes(with_crc(entry_body(b"x", (65536,) * 4)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_too_many_dims_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        path.write_bytes(with_crc(entry_body(b"x", (1,) * 100) + b"\x00" * 8))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_undecodable_name_rejected(self, tmp_path):
        path = tmp_path / "m.spmx"
        path.write_bytes(with_crc(entry_body(b"\xff", (1,)) + b"\x00" * 8))
        with pytest.raises(CheckpointError, match="name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config", [5, [1, 2], "text", None])
    def test_non_object_config_rejected(self, tmp_path, config):
        path = tmp_path / "m.spmx"
        save_checkpoint(path, config, sample_arrays())
        with pytest.raises(CheckpointError, match="must be a JSON object"):
            load_checkpoint(path)


def entry_body(name: bytes, shape) -> bytes:
    """Empty config, then one entry header declaring shape; no payload."""
    return (struct.pack("<I", 2) + b"{}" + struct.pack("<I", 1)
            + struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            + b"".join(struct.pack("<I", dim) for dim in shape))


def with_crc(body: bytes) -> bytes:
    return MAGIC + struct.pack("<I", VERSION) + body + struct.pack("<I", zlib.crc32(body))


def valid_file() -> bytes:
    arrays = {"layer0.w": np.arange(6.0).reshape(2, 3), "b": np.ones(2), "s": np.zeros(())}
    body = bytearray(struct.pack("<I", 2) + b"{}" + struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = arrays[name]
        body += struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", arr.ndim)
        body += b"".join(struct.pack("<I", dim) for dim in arr.shape)
        body += arr.astype("<f8").tobytes()
    return with_crc(bytes(body))


@st.composite
def corrupted_files(draw):
    raw = valid_file()
    body = bytearray(raw[8:-4])
    kind = draw(st.sampled_from(("truncate", "flip", "huge_dim")))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            body[draw(st.integers(0, len(body) - 1))] ^= 1 << draw(st.integers(0, 7))
    else:
        # the first entry ("b", shape (2,)) has its one dim at body offset 14
        body[14:18] = struct.pack("<I", draw(st.integers(2**16, 2**32 - 1)))
    return with_crc(bytes(body))


class TestFuzz:
    def test_valid_file_loads(self, tmp_path):
        path = tmp_path / "m.spmx"
        path.write_bytes(valid_file())
        assert load_checkpoint(path).arrays["layer0.w"].shape == (2, 3)

    @given(corrupted_files())
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_only_checkpoint_error_escapes(self, tmp_path, data):
        path = tmp_path / "fuzz.spmx"
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


class FailingWriter:
    """A file whose writes fail once more than `budget` bytes have been written."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.budget -= len(data)
        if self.budget < 0:
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


class TestCrashSafety:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.spmx"
        save_checkpoint(path, SAMPLE_CONFIG, sample_arrays(0))
        before = path.read_bytes()

        def failing_open(file, mode="r", *args, **kwargs):
            return FailingWriter(open(file, mode, *args, **kwargs), budget=64)

        monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, SAMPLE_CONFIG, sample_arrays(1))
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.spmx"]
        arrays = load_checkpoint(path).arrays
        for name, arr in sample_arrays(0).items():
            assert arrays[name].tobytes() == arr.tobytes()

    def test_save_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "model.spmx"
        save_checkpoint(path, SAMPLE_CONFIG, sample_arrays(0))
        save_checkpoint(str(path), SAMPLE_CONFIG, sample_arrays(1))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.spmx"]
        assert load_checkpoint(path).arrays["emb"].tobytes() == sample_arrays(1)["emb"].tobytes()
