"""Deterministic binary checkpoints with an integrity checksum.

Layout, all integers little-endian:

    bytes 0..3   magic "SPMX"
    bytes 4..7   u32 format version (currently 1)
    u32 config length, then that many bytes of canonical JSON (sorted keys)
    u32 entry count, then per entry:
        u16 name length + UTF-8 name
        u8 ndim, then ndim u32 dimensions
        row-major float64 payload ('<f8')
    u32 CRC32 (zlib) over every byte after the 8-byte header

Entries are written in sorted-name order and JSON is canonicalized, so
save -> load -> save reproduces the file byte for byte. Saving writes a
temporary file beside the target and renames it over the target, so a crash
mid-write leaves the previous checkpoint intact. Optimizer moments are
deliberately not part of the format; resuming restarts them.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

MAGIC = b"SPMX"
VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    arrays: dict


def _config_bytes(config: dict) -> bytes:
    return json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, config: dict, arrays: dict) -> None:
    """Write config + named float64 arrays; names are sorted for stability."""
    body = bytearray()
    cfg = _config_bytes(config)
    body += struct.pack("<I", len(cfg))
    body += cfg
    names = sorted(arrays)
    body += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        encoded = name.encode("utf-8")
        body += struct.pack("<H", len(encoded))
        body += encoded
        body += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            body += struct.pack("<I", dim)
        body += arr.tobytes()
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(body)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("checkpoint truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint; any inconsistency raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    body, stored = data[8:-4], struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )

    r = _Reader(body)
    try:
        config = json.loads(r.take(r.u32()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad embedded config: {exc}") from exc
    arrays = {}
    n_entries = r.u32()
    for _ in range(n_entries):
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad parameter name: {exc}") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate parameter name {name}")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        # Python integers: a numpy product of huge dims wraps, even to 0.
        payload = r.take(math.prod(shape) * 8)
        try:
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: parameter {name}: {exc}") from exc
    if r.pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - r.pos} trailing bytes after entries")
    return Checkpoint(config=config, arrays=arrays)
