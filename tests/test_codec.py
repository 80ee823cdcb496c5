"""End-to-end codec: shapes, round trips, no-drift, file format."""

import dataclasses
import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hide import codec, coder, ppm
from hide.config import ModelConfig, parse_config_text
from hide.errors import ConfigError, DecodeError, FormatError, HideError, ShapeError
from hide.model import CompressionModel, load_model

from conftest import check_gradients


def tiny_config(**kw):
    base = dict(variant="hide", seed=3, M=8, s=2, hyper_channels=4, C_d=16,
                N_G=4, N_D=4, heads=2, C_ctx=8, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return CompressionModel(tiny_config())


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(42)
    base = rng.uniform(0.2, 0.8, size=(3, 1, 1))
    ramp = np.linspace(0, 0.3, 64)[None, None, :]
    noise = rng.normal(0, 0.05, size=(3, 64, 64))
    return np.clip(base + ramp + noise, 0, 1)


@pytest.fixture(scope="module")
def encoded(model, image):
    return codec.encode_image(model, image)


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    """A tiny float32 checkpoint: its path, its bytes, and the offsets of
    every byte outside the float payloads (magic, version, record heads
    and the config text)."""
    path = tmp_path_factory.mktemp("ckpt") / "model.hide"
    CompressionModel(tiny_config(dtype="float32")).save(str(path))
    blob = path.read_bytes()
    heads, pos = list(range(6)), 6
    while pos < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        code, rank = struct.unpack_from("<BB", blob, pos + 2 + name_len)
        shape = struct.unpack_from(f"<{rank}I", blob, pos + 4 + name_len)
        head = 4 + name_len + 4 * rank
        size = math.prod(shape) * (4, 8, 1)[code]
        heads += range(pos, pos + head + (size if code == 2 else 0))
        pos += head + size
    return path, blob, heads


class TestTransformShapes:
    def test_stride_arithmetic(self, model, image):
        out = model.encode_forward(image)
        assert out["y"].shape == (1, 8, 4, 4)
        assert out["z_symbols"].shape == (1, 4, 1, 1)

    def test_untrained_round_trip_finite(self, model, image):
        out = model.encode_forward(image)
        assert out["x_hat"].shape == (1, 3, 64, 64)
        assert np.isfinite(out["x_hat"]).all()

    def test_transform_gradient_16px(self, rng):
        # analysis + synthesis alone handle any multiple of 16
        model = CompressionModel(tiny_config(M=4))
        x = rng.uniform(0, 1, size=(1, 3, 16, 16))

        def build(ts):
            return (model.synthesis(model.analysis(ts[0])) ** 2).sum()

        check_gradients(build, [x], rel_tol=1e-4)

    def test_zero_sized_input_rejected(self, model):
        with pytest.raises(ShapeError):
            codec.encode_image(model, np.zeros((3, 0, 64)))


class TestRoundTrip:
    def test_decode_matches_encoder_internals(self, model, image):
        enc = codec.encode_image(model, image)
        dec = codec.decode_image(model, enc.data)
        assert np.array_equal(enc.z_symbols, dec.z_symbols)
        for a, b in zip(enc.slice_records, dec.slice_records):
            assert np.array_equal(a.symbols, b.symbols)
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)
            assert np.array_equal(a.y_hat, b.y_hat)
        assert np.array_equal(enc.recon_padded, dec.recon_padded)

    def test_file_bits_within_coder_overhead(self, model, image):
        enc = codec.encode_image(model, image)
        slack = 64 * (model.config.s + 1) + 2.0 ** -10 * enc.num_symbols
        assert 0 <= enc.payload_bits - enc.estimated_bits <= slack

    def test_odd_size_padding_round_trip(self, model):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, size=(3, 48, 80))
        enc = codec.encode_image(model, img)
        dec = codec.decode_image(model, enc.data)
        assert dec.image.shape == (3, 48, 80)
        assert np.array_equal(enc.recon, dec.image)

    def test_uint8_input_accepted(self, model):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(3, 64, 64), dtype=np.uint8)
        enc = codec.encode_image(model, img)
        dec = codec.decode_image(model, enc.data)
        assert np.array_equal(enc.recon, dec.image)

    def test_truncated_file_errors(self, model, image):
        enc = codec.encode_image(model, image)
        with pytest.raises(DecodeError):
            codec.decode_image(model, enc.data[:-3])
        with pytest.raises(DecodeError):
            codec.decode_image(model, enc.data[:10])

    def test_truncated_stream_is_named(self, image, monkeypatch):
        model_ = CompressionModel(tiny_config(s=4))
        data = codec.encode_image(model_, image).data
        # the stream offset at which each stage starts reading its symbols
        starts, decode = [], coder.decode_symbols

        def recorded(dec, cdfs, index):
            starts.append(dec.pos)
            return decode(dec, cdfs, index)

        monkeypatch.setattr(coder, "decode_symbols", recorded)
        codec.decode_image(model_, data)
        names = ["hyper stream"] + [f"slice {i} of 4" for i in range(1, 5)]
        assert len(starts) == len(names)
        ends = starts[1:] + [len(data) - codec._HEADER.size - 4]
        for start, end, name in zip(starts, ends, names):
            assert start < end      # every stage reads stream bytes
            cut = data[:codec._HEADER.size + start] + data[-4:]
            with pytest.raises(DecodeError, match=f"^{name}: bitstream exhausted"):
                codec.decode_image(model_, cut)

    def test_trailing_stream_byte_refused(self, model, encoded):
        data = encoded.data
        with pytest.raises(DecodeError, match="^1 stream bytes left after slice 2 of 2"):
            codec.decode_image(model, data[:-4] + b"\0" + data[-4:])

    def test_crc_mismatch_refused(self, model, encoded):
        data = encoded.data
        bad = data[:-4] + bytes([data[-4] ^ 1]) + data[-3:]
        with pytest.raises(DecodeError, match="^symbol CRC mismatch after slice 2 of 2"):
            codec.decode_image(model, bad)

    def test_bad_magic_rejected(self, model, image):
        enc = codec.encode_image(model, image)
        with pytest.raises(FormatError):
            codec.decode_image(model, b"XXXX" + enc.data[4:])

    def test_hash_mismatch_refused(self, model, image):
        enc = codec.encode_image(model, image)
        other = CompressionModel(tiny_config(seed=4))
        with pytest.raises(DecodeError, match="hash"):
            codec.decode_image(other, enc.data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_slice_sigmas_lie_on_the_scale_table(self, image, dtype):
        model_ = CompressionModel(tiny_config(seed=8, dtype=dtype))
        enc = codec.encode_image(model_, image)
        table = coder.SCALE_TABLE.astype(dtype)
        for rec in enc.slice_records:
            assert rec.sigma.dtype == dtype
            assert np.isin(rec.sigma, table).all()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_records_carry_the_coded_scale_rows(self, image, dtype):
        model_ = CompressionModel(tiny_config(seed=8, dtype=dtype))
        enc = codec.encode_image(model_, image)
        dec = codec.decode_image(model_, enc.data)
        for a, b in zip(enc.slice_records, dec.slice_records):
            for rec in (a, b):
                assert rec.scale_index.shape == rec.symbols.shape
                assert np.array_equal(rec.scale_index, coder.scale_index(rec.sigma))
            assert np.array_equal(a.scale_index, b.scale_index)

    def test_one_scale_lookup_per_slice(self, model, image, monkeypatch):
        calls = []
        lookup = coder.scale_index

        def counted(sigma):
            calls.append(np.shape(sigma))
            return lookup(sigma)

        monkeypatch.setattr(coder, "scale_index", counted)
        enc = codec.encode_image(model, image)
        assert len(calls) == model.config.s
        calls.clear()
        codec.decode_image(model, enc.data)
        assert len(calls) == model.config.s

    def test_float32_mode_round_trip(self, image):
        model32 = CompressionModel(tiny_config(seed=8, dtype="float32"))
        enc = codec.encode_image(model32, image)
        dec = codec.decode_image(model32, enc.data)
        assert np.array_equal(enc.recon_padded, dec.recon_padded)
        for a, b in zip(enc.slice_records, dec.slice_records):
            assert np.array_equal(a.mu, b.mu)
            assert a.mu.dtype == np.float32


class TestContainer:
    def test_header_is_22_bytes_version_4(self, model, image):
        enc = codec.encode_image(model, image)
        magic, version, width, height, cfg_hash = struct.unpack_from("<4sHII8s", enc.data)
        assert (magic, version, width, height) == (b"HIDB", 4, 64, 64)
        assert cfg_hash == model.config.config_hash()
        assert len(enc.data) == 22 + enc.payload_bits // 8 + 4
        symbols = np.concatenate([enc.z_symbols.reshape(-1)] + [
            rec.symbols.reshape(-1) for rec in enc.slice_records])
        assert enc.data[-4:] == struct.pack("<I", zlib.crc32(symbols.astype(np.int8)))

    def test_version_1_refused(self, model, image):
        enc = codec.encode_image(model, image)
        v1 = enc.data[:4] + struct.pack("<H", 1) + enc.data[6:]
        with pytest.raises(FormatError, match="version 1"):
            codec.decode_image(model, v1)

    def test_version_2_refused(self, model, image):
        # v2 coded slices under unsnapped scales: its streams would decode
        # to the wrong symbols without an error
        enc = codec.encode_image(model, image)
        v2 = enc.data[:4] + struct.pack("<H", 2) + enc.data[6:]
        with pytest.raises(FormatError, match="version 2"):
            codec.decode_image(model, v2)

    def test_version_3_refused(self, model, image):
        # v3 held s + 1 length-prefixed streams and no CRC
        enc = codec.encode_image(model, image)
        v3 = enc.data[:4] + struct.pack("<H", 3) + enc.data[6:]
        with pytest.raises(FormatError, match="version 3"):
            codec.decode_image(model, v3)

    @pytest.mark.parametrize("side", [1 << 20, (1 << 32) - 1])
    def test_oversized_header_refused_before_allocating(self, model, image, side):
        enc = codec.encode_image(model, image)
        forged = enc.data[:6] + struct.pack("<II", side, side) + enc.data[14:]
        with pytest.raises(DecodeError, match=f"{side}x{side}"):
            codec.decode_image(model, forged)

    def test_zero_dimension_header_refused(self, model, image):
        enc = codec.encode_image(model, image)
        forged = enc.data[:6] + struct.pack("<II", 0, 64) + enc.data[14:]
        with pytest.raises(DecodeError, match="0x64"):
            codec.decode_image(model, forged)

    def test_oversized_image_refused(self, model):
        side = math.isqrt(codec.MAX_PIXELS) + 1
        img = np.broadcast_to(np.zeros((3, 1, 1), dtype=np.uint8), (3, side, side))
        with pytest.raises(ShapeError, match=f"{side}x{side}"):
            codec.encode_image(model, img)

    def test_lambda_travels_only_in_the_hash(self, model, image):
        other = CompressionModel(tiny_config(lam=0.05))
        for (na, pa), (nb, pb) in zip(model.named_parameters(), other.named_parameters()):
            assert na == nb and np.array_equal(pa.numpy(), pb.numpy())
        a = codec.encode_image(model, image).data
        b = codec.encode_image(other, image).data
        assert a[22:] == b[22:]
        assert a[14:22] != b[14:22]


def mutations(data: bytes, flip_at=None):
    """1-3 flipped bytes (at offsets drawn from flip_at, if given), a
    truncation, or one inserted byte."""
    n = len(data)
    offsets = st.integers(0, n - 1) if flip_at is None else st.sampled_from(flip_at)

    def flip(changes):
        blob = bytearray(data)
        for pos, mask in changes:
            blob[pos] ^= mask
        return bytes(blob)

    return st.one_of(
        st.lists(st.tuples(offsets, st.integers(1, 255)),
                 min_size=1, max_size=3, unique_by=lambda c: c[0]).map(flip),
        st.integers(0, n - 1).map(lambda k: data[:k]),
        st.tuples(st.integers(0, n), st.integers(0, 255)).map(
            lambda c: data[:c[0]] + bytes([c[1]]) + data[c[0]:]))


class TestCorruptPayloads:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data())
    def test_exact_image_or_hide_error(self, model, encoded, data):
        blob = data.draw(mutations(encoded.data))
        try:
            dec = codec.decode_image(model, blob)
        except HideError:
            return
        assert np.array_equal(dec.recon_padded, encoded.recon_padded)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path, model, image):
        path = str(tmp_path / "model.hide")
        model.save(path)
        loaded = load_model(path)
        assert loaded.config == model.config
        enc_a = codec.encode_image(model, image)
        enc_b = codec.encode_image(loaded, image)
        assert enc_a.data == enc_b.data

    def test_checkpoint_magic_and_order(self, tmp_path, model):
        path = str(tmp_path / "model.hide")
        model.save(path)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:4] == b"HIDE"
        from hide.core.checkpoint import load_checkpoint
        arrays, config_text = load_checkpoint(path)
        assert sorted(arrays) == list(arrays)
        assert "variant=hide" in config_text

    def test_bytes_match_record_by_record_writer(self, tmp_path, model):
        from hide.core import checkpoint
        arrays = dict(model.state_arrays(), scalar=np.float64(2.5),
                      raw=np.arange(5, dtype=np.uint8))
        path = str(tmp_path / "model.hide")
        checkpoint.save_checkpoint(path, arrays, model.config.to_text())
        records = dict(arrays, __config__=np.frombuffer(
            model.config.to_text().encode("utf-8"), dtype=np.uint8))
        blob = checkpoint.MAGIC + struct.pack("<H", checkpoint.VERSION)
        for name in sorted(records):
            blob += checkpoint._pack_record(name, np.asarray(records[name], order="C"))
        with open(path, "rb") as fh:
            assert fh.read() == blob

    def test_non_utf8_config_record_is_format_error(self, tmp_path, model):
        from hide.core.checkpoint import load_checkpoint
        path = tmp_path / "model.hide"
        model.save(str(path))
        path.write_bytes(path.read_bytes().replace(b"variant=", b"\xffariant="))
        with pytest.raises(FormatError, match="config record is not UTF-8") as info:
            load_checkpoint(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("name", ["hyper_prior.mean", "__config__"])
    def test_repeated_record_is_format_error(self, tmp_path, model, name):
        # a later record must not silently replace an earlier one
        from hide.core import checkpoint
        path = tmp_path / "model.hide"
        model.save(str(path))
        arrays, config_text = checkpoint.load_checkpoint(str(path))
        value = arrays.get(name, np.frombuffer(config_text.encode("utf-8"), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + checkpoint._pack_record(name, value))
        with pytest.raises(FormatError, match=f"repeated record '{name}'"):
            checkpoint.load_checkpoint(str(path))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_corrupt_checkpoint_loads_or_raises_hide_error(self, checkpoint_file, data):
        # truncated, grown, or flipped where a flip changes the structure
        path, blob, heads = checkpoint_file
        mutated = path.with_name("mutated.hide")
        mutated.write_bytes(data.draw(mutations(blob, flip_at=heads)))
        try:
            load_model(str(mutated))
        except HideError:
            pass

    @pytest.mark.parametrize("shape", [(1,) * 69 + (0,), (65536,) * 4, (0,) + (1 << 31,) * 3],
                             ids=["rank70", "count_wraps_int64", "zero_beside_huge_dims"])
    def test_bad_record_shape_is_format_error(self, tmp_path, shape):
        # a rank above numpy's 64, four dims whose product is 2**64, which
        # an int64 count wraps to 0, and an empty record whose other dims
        # overflow numpy's size, which reshape refuses with a ValueError
        from hide.core import checkpoint
        record = struct.pack(f"<H1sBB{len(shape)}I", 1, b"w", 0, len(shape), *shape)
        path = tmp_path / "bad.hide"
        path.write_bytes(checkpoint.MAGIC + struct.pack("<H", checkpoint.VERSION) + record)
        with pytest.raises(FormatError):
            checkpoint.load_checkpoint(str(path))

    def test_variant_isolation_by_parameter_names(self):
        names = {}
        for variant in ("baseline", "hd", "cape", "hide"):
            m = CompressionModel(tiny_config(variant=variant))
            names[variant] = set(dict(m.named_parameters()))
        # estimator swap only: hd vs hide differ solely under estimator paths
        hd_only = {n for n in names["hd"] ^ names["hide"]}
        assert hd_only and all(
            n.startswith("entropy.estimators.") or n.startswith("entropy.residuals.")
            for n in hd_only)
        base_only = {n for n in names["baseline"] ^ names["cape"]}
        assert base_only and all(
            n.startswith("entropy.estimators.") or n.startswith("entropy.residuals.")
            for n in base_only)
        # dictionary swap only: baseline vs hd differ solely under dict paths
        dict_diff = {n for n in names["baseline"] ^ names["hd"]}
        assert dict_diff and all(n.startswith("entropy.dict_ctx.") for n in dict_diff)


class TestDigests:
    """Bytes pinned across refactors of the engine and the codec."""

    @pytest.mark.parametrize("variant,digest", [
        ("baseline", "da2b718b38395ed2fe968c75f6dc275df9dae265fd41229cfef9e9c1a3336130"),
        ("hd", "db0f1c58d0c13d60682cfd1a1876a046e9c0996599f4d87250c2faf313c8f151"),
        ("cape", "b610d278cdb5700e2c5b2a055d774f1cb0f19585623b52edee238852904be42c"),
        ("hide", "50765b271f119b1af6488085ccc8bc825e34c6fe4ea35de2af5431f3e97ae77a"),
    ])
    def test_untrained_float32_checkpoint(self, tmp_path, variant, digest):
        # initialisation is RNG draws and casts only, no BLAS: host-independent
        path = tmp_path / "model.hide"
        CompressionModel(tiny_config(variant=variant, dtype="float32")).save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_untrained_float64_payload(self, model, image):
        data = codec.encode_image(model, image).data
        assert hashlib.sha256(data).hexdigest() == (
            "d22bae446af600ae04ee8077c5d1ea2055972c74936bd92ea53d2ad2ca881d61")


class TestConfig:
    def test_round_trip_text(self):
        cfg = tiny_config(lam=0.013)
        parsed = parse_config_text(cfg.to_text())
        assert parsed == cfg

    def test_lambda_key_spelling(self):
        cfg = tiny_config()
        assert "lambda=0.0035" in cfg.to_text()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config_text("bogus=1\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="^config lines 1 and 3 both set M$"):
            parse_config_text("M=8\ns=2\nM=16\n")

    @pytest.mark.parametrize("text", ["lam=0.05\n", "lambda=0.05\nlam=0.01\n"],
                             ids=["lam", "lambda-then-lam"])
    def test_lam_is_not_a_key(self, text):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['lam'\]"):
            parse_config_text(text)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="line 2: lambda must be float"):
            parse_config_text("M=8\nlambda=abc\n")
        with pytest.raises(ConfigError, match="line 1: M must be int"):
            parse_config_text("M=1e3\n")

    def test_variant_aliases(self):
        assert ModelConfig(variant="+HD", M=8, s=2).variant == "hd"
        assert ModelConfig(variant="HiDE", M=8, s=2).variant == "hide"
        with pytest.raises(ConfigError):
            ModelConfig(variant="nope")

    @pytest.mark.parametrize("key", ["lam", "lr"])
    @pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_lambda_and_lr_must_be_positive_and_finite(self, key, value):
        name = "lambda" if key == "lam" else key
        with pytest.raises(ConfigError, match=f"^{name} must be positive"):
            tiny_config(**{key: value})
        with pytest.raises(ConfigError, match=f"^{name} must be positive"):
            dataclasses.replace(tiny_config(), **{key: value})

    def test_hash_tracks_content(self):
        a = tiny_config()
        assert a.config_hash() == tiny_config().config_hash()
        assert a.config_hash() != tiny_config(lam=0.05).config_hash()


class TestPpm:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(3, 10, 14), dtype=np.uint8)
        path = str(tmp_path / "img.ppm")
        ppm.write_ppm(path, img)
        out = ppm.read_ppm(path)
        assert np.array_equal(img, out)

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
        path = str(tmp_path / "img.pgm")
        ppm.write_pgm(path, img)
        with open(path, "rb") as fh:
            assert fh.read() == b"P5\n7 9\n255\n" + img.tobytes()

    def test_comment_in_header(self, tmp_path):
        path = str(tmp_path / "c.ppm")
        payload = bytes(range(18))
        with open(path, "wb") as fh:
            fh.write(b"P6\n# a comment\n3 2\n255\n" + payload)
        img = ppm.read_ppm(path)
        assert img.shape == (3, 2, 3)
        assert img[:, 0, 0].tolist() == [0, 1, 2]

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated"):
            ppm.read_ppm(path)

    def test_non_numeric_header_field(self, tmp_path):
        path = str(tmp_path / "bad.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\nabc 4\n255\n" + b"\x00" * 48)
        with pytest.raises(FormatError, match="non-numeric"):
            ppm.read_ppm(path)

    def test_uint8_conversions(self):
        img = np.array([[[0.0, 1.0], [0.5, 0.25]]] * 3)
        out = ppm.to_uint8(img)
        assert out[0, 0, 0] == 0 and out[0, 0, 1] == 255
        assert out[0, 1].tolist() == [128, 64]
