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

import struct

import numpy as np

from .core import DescentSequence, DescentStep, Mode
from .errors import ModelFormatError, PartitionError

SEQ_MAGIC = b"SDMQ"
FORMAT_VERSION = 1
PARTITIONED_FORMAT_VERSION = 2

_HEADER = "<HBIII"  # after the magic: version, mode code, p, m, stages
_MODE_CODES = {Mode.TEMPLATE: 0, Mode.REVERSED: 1, Mode.GENERALIZED: 2}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def sequence_bytes(seq: DescentSequence) -> bytes:
    k = len(seq.partition)
    version = PARTITIONED_FORMAT_VERSION if k else FORMAT_VERSION
    parts = [SEQ_MAGIC + struct.pack(_HEADER, version, _MODE_CODES[seq.mode], seq.param_dim,
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


def _fields(fmt: str, data: bytes, offset: int) -> tuple:
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise ModelFormatError("model file truncated") from None


def sequence_from_bytes(data: bytes) -> DescentSequence:
    if len(data) < 4:
        raise ModelFormatError("model file truncated")
    if data[:4] != SEQ_MAGIC:
        raise ModelFormatError("bad magic; not a model file of this kind")
    version, mode_code, p, m, stages = _fields(_HEADER, data, 4)
    if version not in (FORMAT_VERSION, PARTITIONED_FORMAT_VERSION):
        raise ModelFormatError(f"unsupported format version {version}")
    mode = _CODE_MODES.get(mode_code)
    if mode is None:
        raise ModelFormatError(f"unknown mode code {mode_code}")
    if min(p, m, stages) < 1:
        raise ModelFormatError(f"header needs p, m and stages >= 1, got {p}, {m}, {stages}")
    offset, partition = 4 + struct.calcsize(_HEADER), ()
    if version == PARTITIONED_FORMAT_VERSION:
        (k,) = _fields("<I", data, offset)
        if not 1 <= k <= p:
            raise ModelFormatError(f"partition needs 1 to {p} coordinates, file gives {k}")
        partition = _fields(f"<{k}I", data, offset + 4)
        offset += 4 + 4 * k
    # the partition center, then each step's gain and bias, all float64
    k, size = len(partition), p * m + p
    declared, left = 8 * (k + (stages << k) * size), len(data) - offset
    if declared > left:
        raise ModelFormatError(f"model file truncated: header declares {declared} more bytes, "
                               f"{left} left")
    if declared < left:
        raise ModelFormatError(f"{left - declared} trailing bytes at the end of the file")
    floats = np.frombuffer(data, dtype="<f8", offset=offset)
    bad = np.flatnonzero(~np.isfinite(floats))
    if bad.size:
        i = bad[0] - k
        name = "partition center" if i < 0 else "gain" if i % size < p * m else "bias"
        raise ModelFormatError(f"non-finite {name} in model file")
    steps = tuple(DescentStep(gain=row[: p * m].reshape(p, m), bias=row[p * m :])
                  for row in floats[k:].reshape(-1, size))
    try:
        return DescentSequence(steps=steps, param_dim=p, feature_dim=m, mode=mode,
                               partition=partition, center=floats[:k] if k else None)
    except PartitionError as exc:
        raise ModelFormatError(f"malformed partition: {exc}") from exc
    except ValueError as exc:  # nonzero biases outside generalized mode
        raise ModelFormatError(str(exc)) from exc


def load_sequence(path) -> DescentSequence:
    with open(path, "rb") as f:
        return sequence_from_bytes(f.read())
