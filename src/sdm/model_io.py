"""Versioned binary serialization of trained models.

A sequence file is a fixed header (magic, version, mode, dimensions,
stage count) followed by each stage's gain (row-major) and bias as
little-endian float64. Unpartitioned sequences are written as format
v1. A region-partitioned sequence is written as format v2: after the
header come the number k of partition coordinates (uint32), the k
coordinates (uint32), the k-entry partition center (float64), and then
2**k (gain, bias) pairs per stage, stage-major as in
`DescentSequence.steps`. Round-trips are exact.

Loading checks the header's sizes against the bytes that follow before
reading any array, and refuses a file with bytes left over, zero stages
or dimensions, a non-finite number, or a nonzero bias outside
generalized mode; every malformed file raises ModelFormatError.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .core import DescentSequence, DescentStep, Mode
from .errors import ModelFormatError, PartitionError

SEQ_MAGIC = b"SDMQ"
FORMAT_VERSION = 1
PARTITIONED_FORMAT_VERSION = 2

_MODE_CODES = {Mode.TEMPLATE: 0, Mode.REVERSED: 1, Mode.GENERALIZED: 2}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ModelFormatError("model file truncated")
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def expect(self, n_floats: int) -> None:
        """Require exactly `n_floats` float64 values to follow."""
        left = len(self.data) - self.offset
        if 8 * n_floats > left:
            raise ModelFormatError(
                f"model file truncated: header declares {8 * n_floats} more bytes, {left} left"
            )
        if 8 * n_floats < left:
            raise ModelFormatError(f"{left - 8 * n_floats} trailing bytes at the end of the file")

    def array(self, shape, name: str) -> np.ndarray:
        arr = np.frombuffer(self.take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ModelFormatError(f"non-finite {name} in model file")
        return arr


def sequence_bytes(seq: DescentSequence) -> bytes:
    k = len(seq.partition)
    version = PARTITIONED_FORMAT_VERSION if k else FORMAT_VERSION
    parts = [SEQ_MAGIC + struct.pack("<HBIII", version, _MODE_CODES[seq.mode], seq.param_dim,
                                     seq.feature_dim, len(seq))]
    if k:
        parts.append(struct.pack(f"<I{k}I", k, *seq.partition))
        parts.append(np.ascontiguousarray(seq.center, dtype="<f8").tobytes())
    # each step's gain (row-major) and then its bias, step by step
    parts += [np.ascontiguousarray(a, dtype="<f8").tobytes()
              for step in seq.steps for a in (step.gain, step.bias)]
    return b"".join(parts)


def save_sequence(seq: DescentSequence, path) -> None:
    with open(path, "wb") as f:
        f.write(sequence_bytes(seq))


def sequence_from_bytes(data: bytes) -> DescentSequence:
    reader = _Reader(data)
    if reader.take(4) != SEQ_MAGIC:
        raise ModelFormatError("bad magic; not a model file of this kind")
    version, mode_code, p, m, stages = reader.unpack("<HBIII")
    if version not in (FORMAT_VERSION, PARTITIONED_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {version}")
    mode = _CODE_MODES.get(mode_code)
    if mode is None:
        raise ModelFormatError(f"unknown mode code {mode_code}")
    if min(p, m, stages) < 1:
        raise ModelFormatError(f"header needs p, m and stages >= 1, got {p}, {m}, {stages}")
    partition, center = (), None
    if version == PARTITIONED_FORMAT_VERSION:
        (k,) = reader.unpack("<I")
        if not 1 <= k <= p:
            raise ModelFormatError(f"partition needs 1 to {p} coordinates, file gives {k}")
        partition = reader.unpack(f"<{k}I")
        center = reader.array((k,), "partition center")
    n_steps = stages << len(partition)
    reader.expect(n_steps * (p * m + p))
    steps = tuple(DescentStep(gain=reader.array((p, m), "gain"), bias=reader.array((p,), "bias"))
                  for _ in range(n_steps))
    try:
        return DescentSequence(steps=steps, param_dim=p, feature_dim=m, mode=mode,
                               partition=partition, center=center)
    except PartitionError as exc:
        raise ModelFormatError(f"malformed partition: {exc}") from exc
    except ValueError as exc:  # nonzero biases outside generalized mode
        raise ModelFormatError(str(exc)) from exc


def load_sequence(path) -> DescentSequence:
    with open(path, "rb") as f:
        return sequence_from_bytes(f.read())
