"""8-bit binary image files: PPM (P6) reading and writing, PGM (P5) writing."""

from __future__ import annotations

import numpy as np

from .errors import FormatError


def _read_header(data: bytes):
    """Parse a P6 header; returns (width, height, payload offset)."""
    if data[:2] != b"P6":
        raise FormatError(f"bad magic {data[:2]!r}, expected b'P6'")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated header")
        token = data[start:pos]
        if not token.isdigit():
            raise FormatError(f"non-numeric header field {token[:16]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise FormatError(f"only 8-bit images supported, maxval={maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"invalid dimensions {width}x{height}")
    return width, height, pos


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 file into a [3, H, W] uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_header(data)
    need = width * height * 3
    payload = data[pos:pos + need]
    if len(payload) != need:
        raise FormatError(f"truncated P6 payload: {len(payload)} of {need} bytes")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return img.transpose(2, 0, 1).copy()


def write_ppm(path: str, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise FormatError(f"write_ppm expects [3,H,W], got {img.shape}")
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img.transpose(1, 2, 0), dtype=np.uint8).tobytes())


def write_pgm(path: str, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 2:
        raise FormatError(f"write_pgm expects [H,W], got {img.shape}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


def to_uint8(img: np.ndarray) -> np.ndarray:
    """float image in [0, 1] -> rounded uint8."""
    return np.clip(np.rint(np.asarray(img, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
