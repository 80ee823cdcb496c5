"""End-to-end image codec: padding, bitstream container, encode/decode.

The container layout (documented byte-exactly in docs/bitstream.md):

    magic    4 bytes  b"HIDB"
    version  u16
    width    u32   original image width
    height   u32   original image height
    cfg_hash 8 bytes  (sha256 prefix of the canonical config text)
    stream   one range-coded stream: the hyper symbols, then the s
             latent slices in decode order
    crc      u32   zlib.crc32 of every coded symbol as int8, in that order

The decoder recomputes every entropy parameter from the checkpoint and
previously decoded content; nothing about the models travels in the
file beyond the config hash used to refuse mismatched checkpoints.  The
hash covers every config key, lambda included.  A payload decodes to
its image or raises: after the last slice the stream must be consumed
exactly and the decoded symbols must match the CRC.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import coder
from .backbone import SPATIAL_FACTOR
from .errors import DecodeError, FormatError, ShapeError
from .model import CompressionModel

MAGIC = b"HIDB"
VERSION = 4
_HEADER = struct.Struct("<4sHII8s")
_CRC = struct.Struct("<I")
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


def _check_size(width: int, height: int, error) -> None:
    if width < 1 or height < 1 or width * height > MAX_PIXELS:
        raise error(f"image size {width}x{height} is not within 1..{MAX_PIXELS} pixels")


def codec_input(img: np.ndarray) -> np.ndarray:
    """Check a [3,H,W] image, scale 8-bit values to [0, 1] and
    replicate-pad bottom/right to a multiple of the transform factor."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected [3,H,W] image, got {img.shape}")
    _, h, w = img.shape
    _check_size(w, h, ShapeError)
    unit = img.astype(np.float64) / 255.0 if img.dtype == np.uint8 else img.astype(np.float64)
    ph = (-h) % SPATIAL_FACTOR
    pw = (-w) % SPATIAL_FACTOR
    if ph == 0 and pw == 0:
        return unit
    return np.pad(unit, ((0, 0), (0, ph), (0, pw)), mode="edge")


def _cdf_table(model: CompressionModel) -> np.ndarray:
    """The payload's cdf table: the SCALE_LEVELS scale rows, then one row
    per hyper channel, so hyper channel c codes under row SCALE_LEVELS + c."""
    return np.vstack([coder.SCALE_CDFS, model.hyper_prior.cdf_rows()])


def _hyper_rows(model: CompressionModel, zh: int, zw: int) -> np.ndarray:
    """The table row of each hyper symbol, shaped [1, C, zh, zw]."""
    rows = coder.SCALE_LEVELS + np.arange(model.config.hyper_channels)
    return np.broadcast_to(rows[:, None, None], (1, rows.size, zh, zw))


def _coded_symbols(z_symbols: np.ndarray, records) -> np.ndarray:
    """Every coded symbol in stream order: the hyper symbols, then each slice's."""
    return np.concatenate([z_symbols.reshape(-1)] + [r.symbols.reshape(-1) for r in records])


def encode_image(model: CompressionModel, img: np.ndarray) -> EncodeResult:
    padded = codec_input(img)
    _, height, width = np.shape(img)

    fwd = model.encode_forward(padded)
    z_sym = fwd["z_symbols"]
    bundle = fwd["bundle"]

    symbols = _coded_symbols(z_sym, bundle.slices)
    index = np.concatenate([_hyper_rows(model, *z_sym.shape[2:]).reshape(-1)]
                           + [r.scale_index.reshape(-1) for r in bundle.slices])
    stream = coder.encode_symbols(symbols, _cdf_table(model), index)

    header = _HEADER.pack(MAGIC, VERSION, width, height, model.config.config_hash())
    data = header + stream + _CRC.pack(zlib.crc32(symbols.astype(np.int8)))

    recon_padded = fwd["x_hat"][0]
    return EncodeResult(
        data=data,
        payload_bits=len(stream) * 8,
        estimated_bits=bundle.total_bits + fwd["z_bits"],
        num_symbols=symbols.size,
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

    pad_h = height + ((-height) % SPATIAL_FACTOR)
    pad_w = width + ((-width) % SPATIAL_FACTOR)
    zh, zw = pad_h // SPATIAL_FACTOR, pad_w // SPATIAL_FACTOR

    stream = data[_HEADER.size:len(data) - _CRC.size]
    table = _cdf_table(model)
    stage = "hyper stream"

    def decode(index: np.ndarray) -> np.ndarray:
        return coder.decode_symbols(dec, table, index.reshape(-1)).reshape(index.shape)

    def symbol_source(i: int, index: np.ndarray) -> np.ndarray:
        nonlocal stage
        stage = f"slice {i + 1} of {model.config.s}"
        return decode(index)

    try:
        dec = coder.Decoder(stream)
        z_sym = decode(_hyper_rows(model, zh, zw))
        fwd = model.decode_forward(z_sym, symbol_source)
    except DecodeError as err:
        raise DecodeError(f"{stage}: {err}") from None
    if dec.pos != len(stream):
        raise DecodeError(f"{len(stream) - dec.pos} stream bytes left after {stage}")
    crc = zlib.crc32(_coded_symbols(z_sym, fwd["bundle"].slices).astype(np.int8))
    if crc != _CRC.unpack_from(data, len(data) - _CRC.size)[0]:
        raise DecodeError(f"symbol CRC mismatch after {stage}: the payload is corrupt, or "
                          "was encoded with other weights or BLAS threading")
    recon_padded = fwd["x_hat"][0]
    return DecodeResult(
        image=recon_padded[:, :height, :width],
        recon_padded=recon_padded,
        z_symbols=z_sym,
        slice_records=fwd["bundle"].slices,
    )
