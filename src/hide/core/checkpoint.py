"""Checkpoint serialization.

Layout (little-endian throughout):

    magic        4 bytes  b"HIDE"
    version      u16
    records, sorted by name:
        name_len u16
        name     utf-8 bytes
        dtype    u8    (0 = float32, 1 = float64, 2 = uint8)
        rank     u8
        shape    rank * u32
        payload  raw values

The model configuration travels as a uint8 record under the reserved
name "__config__" holding the flat key=value text.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Tuple

import numpy as np

from ..errors import FormatError

MAGIC = b"HIDE"
VERSION = 1
CONFIG_RECORD = "__config__"
MAX_RANK = 64   # the largest rank of a numpy array

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def _pack_record(name: str, arr: np.ndarray) -> bytes:
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise FormatError(f"unsupported checkpoint dtype {arr.dtype} for {name!r}")
    name_b = name.encode("utf-8")
    head = struct.pack("<H", len(name_b)) + name_b
    head += struct.pack("<BB", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return head + arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()


def save_checkpoint(path: str, arrays: Dict[str, np.ndarray], config_text: str) -> None:
    records = dict(arrays)
    records[CONFIG_RECORD] = np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8)
    # note: ascontiguousarray would promote rank-0 arrays to rank 1
    parts = [_pack_record(name, np.asarray(records[name], order="C"))
             for name in sorted(records)]
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<H", VERSION))
        fh.writelines(parts)


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], str]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r} in {path}")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    pos = 6
    arrays: Dict[str, np.ndarray] = {}
    while pos < len(blob):
        try:
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            code, rank = struct.unpack_from("<BB", blob, pos)
            pos += 2
            if rank > MAX_RANK:
                raise FormatError(f"corrupt checkpoint {path}: record {name!r} has rank {rank}")
            shape = struct.unpack_from(f"<{rank}I", blob, pos) if rank else ()
            pos += 4 * rank
            dtype = _CODE_DTYPES[code]
            count = math.prod(shape)
            end = pos + count * dtype.itemsize
            if end > len(blob):
                raise FormatError(f"truncated checkpoint record {name!r}")
            # read in place: astype makes the one copy the array keeps.  A
            # zero dim empties the payload however large the others; numpy
            # refuses a shape whose other dims overflow its size (ValueError)
            arr = np.frombuffer(blob, dtype.newbyteorder("<"), count, pos).astype(dtype).reshape(shape)
            pos = end
        except (struct.error, KeyError, UnicodeDecodeError, ValueError) as e:
            raise FormatError(f"corrupt checkpoint {path}: {e}") from e
        if name in arrays:
            raise FormatError(f"repeated record {name!r} in checkpoint {path}")
        arrays[name] = arr
    config = arrays.pop(CONFIG_RECORD, np.zeros(0, np.uint8))
    try:
        return arrays, config.tobytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"corrupt checkpoint {path}: config record is not UTF-8 ({e})") from e
