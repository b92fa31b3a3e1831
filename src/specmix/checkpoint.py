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
mid-write leaves the previous checkpoint intact. Each part is written as soon
as it is built and folded into a running CRC, so no copy of the file is
staged. Loading checks the CRC before it parses any byte, then parses the
file's bytes in place; only the returned arrays are copied out. Optimizer
moments are deliberately not part of the format; resuming restarts them.
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
    cfg = _config_bytes(config)
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            crc = 0

            def write(part) -> None:
                nonlocal crc
                fh.write(part)
                crc = zlib.crc32(part, crc)

            fh.write(MAGIC + struct.pack("<I", VERSION))
            write(struct.pack("<I", len(cfg)) + cfg)
            write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name], dtype="<f8", order="C")
                encoded = name.encode("utf-8")
                write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                                  arr.ndim, *arr.shape))
                write(arr)
                del arr  # a converted copy dies before the next one is made
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint; any inconsistency raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    body, stored = memoryview(data)[8:-4], struct.unpack("<I", data[-4:])[0]
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != stored:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )

    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(body):
            raise CheckpointError("checkpoint truncated")
        pos += n
        return body[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    try:
        config = json.loads(str(take(*unpack("<I")), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad embedded config: {exc}") from exc
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: embedded config must be a JSON object")
    arrays = {}
    (n_entries,) = unpack("<I")
    for _ in range(n_entries):
        try:
            name = str(take(*unpack("<H")), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: bad parameter name: {exc}") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate parameter name {name}")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        # Python integers: a numpy product of huge dims wraps, even to 0.
        payload = take(math.prod(shape) * 8)
        try:
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: parameter {name}: {exc}") from exc
    if pos != len(body):
        raise CheckpointError(f"{path}: {len(body) - pos} trailing bytes after entries")
    return Checkpoint(config=config, arrays=arrays)
