"""Utilization diagnostics, entropy maps, matrix dumps."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

import hide.analysis as an
from hide import ppm
from hide.config import ModelConfig
from hide.errors import FormatError, HideError, ShapeError
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
        emap = an.entropy_map(an.slice_records(model, images[0]))
        enc_estimate = sum(r.bits for r in model.encode_forward(
            np.asarray(images[0])).get("bundle").slices)
        assert abs(emap.bits_map.sum() - emap.total_bits) <= 1e-6 * emap.total_bits
        assert abs(emap.total_bits - enc_estimate) <= 1e-6 * enc_estimate

    def test_sigma_maps_respect_floor(self, model, images):
        emap = an.entropy_map(an.slice_records(model, images[0]))
        for tensors in emap.per_slice:
            assert (tensors["sigma"] >= 0.04).all()

    def test_map_shape(self, model, images):
        emap = an.entropy_map(an.slice_records(model, images[0]))
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_forward_per_image(self, tmp_path, model, images, n, monkeypatch):
        calls = []
        encode_forward = CompressionModel.encode_forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return encode_forward(self, *args, **kwargs)

        monkeypatch.setattr(CompressionModel, "encode_forward", counted)
        an.write_analysis_outputs(model, images[:n], str(tmp_path / "analysis"))
        assert len(calls) == n

    def test_uint8_images_read_at_codec_scale(self, tmp_path, model, images):
        u8 = [ppm.to_uint8(img) for img in images]
        an.write_analysis_outputs(model, u8, str(tmp_path / "u8"))
        an.write_analysis_outputs(model, [img / 255.0 for img in u8], str(tmp_path / "unit"))
        written = {f.name: f.read_bytes() for f in (tmp_path / "u8").iterdir()}
        assert written == {f.name: f.read_bytes() for f in (tmp_path / "unit").iterdir()}

    def test_channels_last_image_rejected(self, model):
        with pytest.raises(ShapeError, match=r"expected \[3,H,W\] image"):
            an.slice_records(model, np.zeros((64, 64, 3)))

    # sha256 of every file written for the tiny models; float64, so a
    # refactor of the engine or of the analysis code must keep every byte
    @pytest.mark.parametrize("variant,digests", [
        ("hide", {
            "attn_detail_entry000.mat":
                "3d4705d464175d1e829d0b648c59c68720477dbf22d0c93bdae5465051e45cf5",
            "attn_detail_entry000.pgm":
                "cb460e342891cb87434effa6437a460910164350cba25eb6d128b1cb352aa362",
            "attn_detail_entry002.mat":
                "9270e72c24021cb9d5a7c04a710af171cf9ed29bde9f5321fe0c7bbe99911d61",
            "attn_detail_entry002.pgm":
                "18f42e2716c32d223ba95fed08c796e685cbf85418704fee2d12fc972b7b6247",
            "attn_detail_entry004.mat":
                "0b9602fdbedcb20b9c4eaaf9be39b64716d9c1bc1ee703e7303ed7821c286849",
            "attn_detail_entry004.pgm":
                "0aa22bff9cad0ce9a3ac898154f89f60e8a03a1df2c215ed03028a1fada48af5",
            "attn_detail_entry006.mat":
                "19b451a9758553b4d9b041a6211d82b57115b8a43686dbf8072b7063fa0a1bbb",
            "attn_detail_entry006.pgm":
                "ed686e4e4e353a28a010b5d64c9139798393103f4fb0b6e21d63cdd37656c34f",
            "attn_global_entry000.mat":
                "f9c952ca3c53c79d37a1eb1cf7798ac4c3e2651e3cd1a66491641fce01a58387",
            "attn_global_entry000.pgm":
                "b00a74560b5dce1f80f62431b821ef1684dca0d2cb7ae7a712ef480a4a2fd5d9",
            "attn_global_entry001.mat":
                "e03cd9ebcc99f131cadbae38a07b1d427834034c5f08ebc866258e2865748998",
            "attn_global_entry001.pgm":
                "01ab163e1479ea3902a5a0d266d5c34caaa1fe53f5a1d2fed021de6b1f352edb",
            "attn_global_entry003.mat":
                "59474215b5299a093d8ad1beaf29214f88b9512c151ae53bb02d861f4249eac6",
            "attn_global_entry003.pgm":
                "5080a7a90792f593d9aa0d84f48f0068c7f95fe8592de810b671b2da86490183",
            "attn_global_entry007.mat":
                "3c6dd006b3cb200018147cc4907ee4c1d12e5caebbd2df72287309d712cdb4ec",
            "attn_global_entry007.pgm":
                "941f667f8619116f05814c8eda88714bbdfd89421a330af8b1bdd269798c523a",
            "entropy_map.mat":
                "03baacb9a1e7b1d79f2d7f8007a32e989adf2986f55f6ae313384eac7736f93a",
            "entropy_map.pgm":
                "c6143b51a24dd3b5a1767565ac8145efc5de848dc3f46cdabc63a272189c37f1",
            "report.txt":
                "f36f9cb2f6962debc2e482da57becce32f2fcf5bea3ad87a64e52342f46fbf50",
            "slice0_mu.mat":
                "c5bdb7e543e14fc0f914019072bf737866bfbe687a90cc10f5114843f26e5a39",
            "slice0_normalized_residual.mat":
                "b8b5585293d596c8bedde85afabfddf5aae5db02bcf2e05062e40d485963b3f5",
            "slice0_residual.mat":
                "ab5321568fb3858b86f7ae16c1ffd8abede81b1d6223be50374fe7ed0739aa78",
            "slice0_sigma.mat":
                "1dcd571abe25153108ec289da0c6df70061777b796043988ddc32b7a9eab5522",
            "slice1_mu.mat":
                "9065e2df261d210dd13d90306467a64a5450f71a07579827901d155084725fb7",
            "slice1_normalized_residual.mat":
                "64fcc93cb614e09a8d4956171806d0770eb7edce8e0bc7257ee9b6c37900dc90",
            "slice1_residual.mat":
                "14c0b4057a79da370b503b27a782fe56f3ee4f5f28e63d2586117b2f709fc404",
            "slice1_sigma.mat":
                "a028a491034c0f5e484f3f49ec4e669cd0c9e00472e4d3e36c4cdfbfa0dfdd4b",
            "usage_detail.mat":
                "821529101f89f362dad6f05a1fbf2b3b88b15381b8af733621e8de0f71107195",
            "usage_global.mat":
                "c3824125362b1dc6f33ddf4df64daacc2616082dafb9a31eed93bd00b5975fa4",
        }),
        ("cape", {
            "attn_single_entry000.mat":
                "5fd266f1f8c86b9bbc5cfce6f13b4d64d534e7db950c70129648153027972d2e",
            "attn_single_entry000.pgm":
                "fce15ae9521d0161cbf26665e66a5c27645f32ecfd5ef5f7b67f1fff8f1883bb",
            "attn_single_entry006.mat":
                "e66359aae95819d77081b9c14af61afc40ce1f9046e4c0c316e3a544811d6278",
            "attn_single_entry006.pgm":
                "7246ac4263df321c18feeeb0de5ea37f8b6f7f74879ce4f079c062381b9f7ff3",
            "attn_single_entry010.mat":
                "256e558a609e33a6eb5f8a21ceb7399cb4fcd530eb69949f48f9a7f4b3feb116",
            "attn_single_entry010.pgm":
                "fe2765335d0186a886be6f5a21d2da8a583f49b71118de43be2131a20d723802",
            "attn_single_entry011.mat":
                "9df5ec1ef5117094426af3ab17e30212a9622781186dc9277f978858d942faff",
            "attn_single_entry011.pgm":
                "8cdfea3692d39da2b41eccd5a0671ddf0573a9cea2cb02d3acac193107192dfd",
            "entropy_map.mat":
                "66bc71da2be429d1629b5a27a3f09d07e193291d312bc9e1e76db876062ffa6c",
            "entropy_map.pgm":
                "d30c844bdad429dedf3162e9b9fe7fc49491a171f012de1c3c4033d6c89332c5",
            "report.txt":
                "9619cc705a8c320763a1b419fb222ac099696fd3bf9ae9e1c037287c8864a211",
            "slice0_mu.mat":
                "e78d2bb5ca9e041f0d09c1bf7bf408489e2648e91a2e9fabc055e27584c4bcea",
            "slice0_normalized_residual.mat":
                "5e225b27085b8d5aa23dc1f9dfd1cc235e5712ba5e398336e7a3f2df9afcd50e",
            "slice0_residual.mat":
                "1b20ba0442e00490f401db7a3ebeeaad76bbd851824b08c846577b37bd038c65",
            "slice0_sigma.mat":
                "dc5d95705aa5fdcba25a12fc02ea109910901e3f4687034b1562401393aa133f",
            "slice1_mu.mat":
                "7519f5266bc2e510dc16b72ef12e0f92083df5ca2b6ec1e0be257373f197c39c",
            "slice1_normalized_residual.mat":
                "58b0072cc5d0089d408edac6545cc5548dc996bf83c05ee8f402ce50b0fb182d",
            "slice1_residual.mat":
                "8caea82d3668b82a4e68294e286425d078d1fb1cd5eb4feda4861b87450c5f1d",
            "slice1_sigma.mat":
                "506d172ea6d6fa8aeef6983ca4fe5e1281b9e30694c8205dc4d20bc2ff0cbfc6",
            "usage_single.mat":
                "286b79d0fd596970ad69d3ccbac6ec281b68a96dc9570778dcdf66d3f1505b25",
        }),
    ])
    def test_output_digests(self, tmp_path, images, variant, digests):
        out_dir = tmp_path / "analysis"
        an.write_analysis_outputs(CompressionModel(tiny_config(variant=variant)), images,
                                  str(out_dir))
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out_dir.iterdir()}
        assert written == digests
