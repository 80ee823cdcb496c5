"""End-to-end codec: shapes, round trips, no-drift, file format."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from hide import codec, coder, ppm
from hide.config import ModelConfig, parse_config_text
from hide.errors import ConfigError, DecodeError, FormatError, ShapeError
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


class TestTransformShapes:
    def test_stride_arithmetic(self, model, image):
        out = model.encode_forward(image)
        assert out["y"].shape == (1, 8, 4, 4)
        assert out["z"].shape == (1, 4, 1, 1)

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
            assert np.array_equal(a.y_bar, b.y_bar)
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
    def test_header_is_22_bytes_version_3(self, model, image):
        enc = codec.encode_image(model, image)
        magic, version, width, height, cfg_hash = struct.unpack_from("<4sHII8s", enc.data)
        assert (magic, version, width, height) == (b"HIDB", 3, 64, 64)
        assert cfg_hash == model.config.config_hash()
        streams = 4 * (model.config.s + 1) + enc.payload_bits // 8
        assert len(enc.data) == 22 + streams

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
            "17e1428cefc1efaf54d3377a1f96ec1e4102e6df405cc1d1fe897bc9ff9f4ad7")


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
        assert np.array_equal(ppm.read_pgm(path), img)

    def test_comment_in_header(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        payload = bytes(range(6))
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = ppm.read_pgm(path)
        assert img.shape == (2, 3)

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
        back = ppm.to_unit_float(out)
        assert np.max(np.abs(back - img)) <= 0.5 / 255
