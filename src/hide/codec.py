"""End-to-end image codec: padding, bitstream container, encode/decode.

The container layout (documented byte-exactly in docs/bitstream.md):

    magic    4 bytes  b"HIDB"
    version  u16
    width    u32   original image width
    height   u32   original image height
    cfg_hash 8 bytes  (sha256 prefix of the canonical config text)
    z-stream  u32 length + bytes
    per-slice y-streams, s times: u32 length + bytes

The decoder recomputes every entropy parameter from the checkpoint and
previously decoded content; nothing about the models travels in the
file beyond the config hash used to refuse mismatched checkpoints.  The
hash covers every config key, lambda included.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

import numpy as np

from . import coder
from .backbone import SPATIAL_FACTOR
from .errors import DecodeError, FormatError, ShapeError
from .model import CompressionModel

MAGIC = b"HIDB"
VERSION = 3
_HEADER = struct.Struct("<4sHII8s")
# Largest width * height coded; the decoder checks it before allocating.
MAX_PIXELS = 1 << 24


@dataclass
class EncodeResult:
    data: bytes
    payload_bits: int           # coded stream bytes * 8, header excluded
    estimated_bits: float       # model rate estimate for the coded symbols
    num_symbols: int
    bpp: float                  # whole file bits / original pixels
    recon: np.ndarray           # [3,H,W] float reconstruction, cropped
    recon_padded: np.ndarray    # [3,Hp,Wp] float, before cropping
    z_symbols: np.ndarray
    slice_records: list


@dataclass
class DecodeResult:
    image: np.ndarray           # [3,H,W] float reconstruction, cropped
    recon_padded: np.ndarray
    z_symbols: np.ndarray
    slice_records: list


def pad_image(img: np.ndarray) -> np.ndarray:
    """Replicate-pad bottom/right to a multiple of the transform factor."""
    _, h, w = img.shape
    ph = (-h) % SPATIAL_FACTOR
    pw = (-w) % SPATIAL_FACTOR
    if ph == 0 and pw == 0:
        return img
    return np.pad(img, ((0, 0), (0, ph), (0, pw)), mode="edge")


def _check_size(width: int, height: int, error) -> None:
    if width < 1 or height < 1 or width * height > MAX_PIXELS:
        raise error(f"image size {width}x{height} is not within 1..{MAX_PIXELS} pixels")


def _as_unit_float(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected [3,H,W] image, got {img.shape}")
    _check_size(img.shape[2], img.shape[1], ShapeError)
    if img.dtype == np.uint8:
        return img.astype(np.float64) / 255.0
    return img.astype(np.float64)


def _hyper_cdf_rows(model: CompressionModel, spatial: int):
    """The per-channel hyper cdf rows and the row of each z symbol."""
    fracs = model.hyper_prior.frac_means()
    sigmas = model.hyper_prior.sigma().numpy().astype(np.float64)
    per_channel = coder.build_cdf_batch(fracs, sigmas)
    return per_channel, np.repeat(np.arange(per_channel.shape[0]), spatial)


def encode_image(model: CompressionModel, img: np.ndarray) -> EncodeResult:
    unit = _as_unit_float(img)
    _, height, width = unit.shape
    padded = pad_image(unit)

    fwd = model.encode_forward(padded)
    z_sym = fwd["z_symbols"]
    bundle = fwd["bundle"]

    z_rows, z_index = _hyper_cdf_rows(model, z_sym.shape[2] * z_sym.shape[3])
    streams = [coder.encode_symbols(z_sym.reshape(-1), z_rows, z_index)]
    num_symbols = z_sym.size
    for rec in bundle.slices:
        streams.append(coder.encode_symbols(rec.symbols.reshape(-1), coder.SCALE_CDFS,
                                            rec.scale_index.reshape(-1)))
        num_symbols += rec.symbols.size

    header = _HEADER.pack(MAGIC, VERSION, width, height, model.config.config_hash())
    body = b"".join(struct.pack("<I", len(s)) + s for s in streams)
    data = header + body

    recon_padded = fwd["x_hat"][0]
    return EncodeResult(
        data=data,
        payload_bits=sum(len(s) * 8 for s in streams),
        estimated_bits=bundle.total_bits + fwd["z_bits"],
        num_symbols=num_symbols,
        bpp=len(data) * 8 / (width * height),
        recon=recon_padded[:, :height, :width],
        recon_padded=recon_padded,
        z_symbols=z_sym,
        slice_records=bundle.slices,
    )


def decode_image(model: CompressionModel, data: bytes) -> DecodeResult:
    if len(data) < _HEADER.size:
        raise DecodeError(f"file of {len(data)} bytes is shorter than the header")
    magic, version, width, height, cfg_hash = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad payload magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported payload version {version}")
    _check_size(width, height, DecodeError)
    if cfg_hash != model.config.config_hash():
        raise DecodeError(
            "checkpoint/config hash mismatch: this payload was produced by a "
            "different model configuration")

    pos = _HEADER.size
    streams: List[bytes] = []
    for _ in range(model.config.s + 1):
        if pos + 4 > len(data):
            raise DecodeError("truncated payload: missing stream length")
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        chunk = data[pos:pos + n]
        if len(chunk) != n:
            raise DecodeError(f"truncated payload: stream of {n} bytes cut short")
        pos += n
        streams.append(chunk)
    if pos != len(data):
        raise DecodeError(f"{len(data) - pos} trailing bytes after the last stream")

    pad_h = height + ((-height) % SPATIAL_FACTOR)
    pad_w = width + ((-width) % SPATIAL_FACTOR)
    zh, zw = pad_h // SPATIAL_FACTOR, pad_w // SPATIAL_FACTOR

    z_rows, z_index = _hyper_cdf_rows(model, zh * zw)
    z_sym = coder.decode_symbols(streams[0], z_rows, z_index).reshape(
        1, model.config.hyper_channels, zh, zw)

    def symbol_source(i: int, index: np.ndarray) -> np.ndarray:
        return coder.decode_symbols(streams[1 + i], coder.SCALE_CDFS,
                                    index.reshape(-1)).reshape(index.shape)

    fwd = model.decode_forward(z_sym, symbol_source)
    recon_padded = fwd["x_hat"][0]
    return DecodeResult(
        image=recon_padded[:, :height, :width],
        recon_padded=recon_padded,
        z_symbols=z_sym,
        slice_records=fwd["bundle"].slices,
    )
