"""Utilization diagnostics, entropy maps, matrix dumps."""

import math
import os
import tracemalloc

import numpy as np
import pytest

import hide.analysis as an
from hide.config import ModelConfig
from hide.errors import FormatError, HideError
from hide.model import CompressionModel


def tiny_config(**kw):
    base = dict(variant="hide", seed=5, M=8, s=2, hyper_channels=4, C_d=16,
                N_G=8, N_D=8, heads=2, C_ctx=8, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return CompressionModel(tiny_config())


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(21)
    return [np.clip(rng.uniform(0.1, 0.9, size=(3, 1, 1))
                    + rng.normal(0, 0.1, size=(3, 64, 64)), 0, 1) for _ in range(2)]


class TestUsageAggregation:
    def test_uniform_attention_entropy_exact(self):
        n = 16
        maps = [np.full((2, 10, n), 1.0 / n)]
        usage = an.usage_from_attention(maps)
        dist = usage / usage.sum()
        assert an.distribution_entropy(dist) == math.log2(n)

    def test_one_hot_attention_entropy_zero(self):
        n = 8
        a = np.zeros((2, 5, n))
        a[:, :, 0] = 1.0
        usage = an.usage_from_attention([a])
        dist = usage / usage.sum()
        assert an.distribution_entropy(dist) == 0.0
        np.testing.assert_array_equal(dist, np.eye(n)[0])

    def test_against_naive_aggregation_oracle(self, rng):
        n = 12
        maps = [rng.dirichlet(np.ones(n), size=(3, 7)).astype(np.float64)
                for _ in range(4)]
        usage = an.usage_from_attention(maps)
        acc = np.zeros(n)
        rows = 0
        for a in maps:
            for h in range(a.shape[0]):
                for t in range(a.shape[1]):
                    acc += a[h, t]
                    rows += 1
        expect = acc / rows
        assert np.max(np.abs(usage - expect)) <= 1e-9

    def test_distribution_normalization(self, model, images):
        report = an.utilization_report(model, images)
        assert set(report.usage) == {"global", "detail"}
        for name, dist in report.distribution.items():
            assert abs(dist.sum() - 1.0) <= 1e-9
            n = len(dist)
            assert 0.0 <= report.entropy_bits[name] <= math.log2(n) + 1e-12

    def test_single_dictionary_variant(self, images):
        m = CompressionModel(tiny_config(variant="cape"))
        report = an.utilization_report(m, images[:1])
        assert set(report.usage) == {"single"}

    def test_no_attention_maps_rejected(self):
        with pytest.raises(HideError):
            an.usage_from_attention([])


class TestEntropyMap:
    def test_bookkeeping_identity(self, model, images):
        emap = an.entropy_map(model, images[0])
        enc_estimate = sum(r.bits for r in model.encode_forward(
            np.asarray(images[0])).get("bundle").slices)
        assert abs(emap.bits_map.sum() - emap.total_bits) <= 1e-6 * emap.total_bits
        assert abs(emap.total_bits - enc_estimate) <= 1e-6 * enc_estimate

    def test_sigma_maps_respect_floor(self, model, images):
        emap = an.entropy_map(model, images[0])
        for tensors in emap.per_slice:
            assert (tensors["sigma"] >= 0.04).all()

    def test_map_shape(self, model, images):
        emap = an.entropy_map(model, images[0])
        assert emap.bits_map.shape == (4, 4)


class TestMatrixDump:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = str(tmp_path / "a.mat")
        an.save_matrix(path, arr)
        back = an.load_matrix(path)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_truncation_detected(self, tmp_path, rng):
        path = str(tmp_path / "b.mat")
        an.save_matrix(path, rng.standard_normal((4, 4)))
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-5])
        with pytest.raises(FormatError):
            an.load_matrix(path)

    @pytest.mark.parametrize("header", [b"x 2\n", b"2 4 four\n", b"\xff 2\n"])
    def test_non_integer_header(self, tmp_path, header):
        path = tmp_path / "c.mat"
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(FormatError):
            an.load_matrix(str(path))

    @pytest.mark.parametrize("header", [b"70" + b" 1" * 69 + b" 0\n", b"2 -1 -4\n"],
                             ids=["rank70", "negative_dims"])
    def test_bad_shape_is_format_error(self, tmp_path, header):
        path = tmp_path / "d.mat"
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad matrix shape"):
            an.load_matrix(str(path))

    def test_payload_size_checked_before_reading(self, tmp_path):
        path = tmp_path / "e.mat"
        path.write_bytes(b"1 100000000\n".ljust(16, b"\x00"))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                an.load_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_scale_to_uint8(self):
        flat = an.scale_to_uint8(np.full((3, 3), 7.0))
        assert flat.dtype == np.uint8 and (flat == 0).all()
        ramp = an.scale_to_uint8(np.arange(6.0).reshape(2, 3))
        assert ramp.min() == 0 and ramp.max() == 255


class TestAnalysisOutputs:
    def test_write_outputs(self, tmp_path, model, images):
        out_dir = str(tmp_path / "analysis")
        lines = an.write_analysis_outputs(model, images, out_dir)
        assert any("usage_entropy_bits" in ln for ln in lines)
        assert any("parameter_counts" in ln for ln in lines)
        files = os.listdir(out_dir)
        assert "entropy_map.pgm" in files
        assert "usage_global.mat" in files
        assert any(f.startswith("attn_detail_entry") for f in files)
        assert "report.txt" in files
