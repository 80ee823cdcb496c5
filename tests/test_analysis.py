"""Utilization diagnostics, entropy maps, analysis outputs."""

import hashlib
import math
import os

import numpy as np
import pytest

import hide.analysis as an
from hide import codec, ppm
from hide.core import tape_size
from hide.config import ModelConfig
from hide.errors import HideError, ShapeError
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

    def test_no_images_rejected(self, model):
        with pytest.raises(HideError, match="no images supplied"):
            an.utilization_report(model, [])


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
    def test_arrays_are_little_endian_float32(self, tmp_path, model, images):
        an.write_analysis_outputs(model, images, str(tmp_path))
        emap = an.entropy_map(an.slice_records(model, images[0]))
        back = np.load(tmp_path / "entropy_map.npy", allow_pickle=False)
        assert back.dtype == np.dtype("<f4") and back.shape == emap.bits_map.shape
        np.testing.assert_array_equal(back, emap.bits_map.astype(np.float32))
        for f in tmp_path.glob("*.npy"):
            assert np.load(f, allow_pickle=False).dtype == np.dtype("<f4")

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
        assert "usage_global.npy" in files
        assert any(f.startswith("attn_detail_entry") for f in files)
        assert "report.txt" in files

    def test_no_images_rejected_before_writing(self, tmp_path, model):
        out_dir = tmp_path / "analysis"
        with pytest.raises(HideError, match="no images supplied"):
            an.write_analysis_outputs(model, [], str(out_dir))
        assert not out_dir.exists()

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
            "attn_detail_entry000.npy":
                "742a8a323e9cf7d1652ae332e87615b21bfab75aa331129617a49e171992008d",
            "attn_detail_entry000.pgm":
                "cb460e342891cb87434effa6437a460910164350cba25eb6d128b1cb352aa362",
            "attn_detail_entry002.npy":
                "9331b90b3356b6d40553a9ec953f09c24fbf5554f86682664d315957aa5a0849",
            "attn_detail_entry002.pgm":
                "18f42e2716c32d223ba95fed08c796e685cbf85418704fee2d12fc972b7b6247",
            "attn_detail_entry004.npy":
                "0e300f5e015b1418fa2e86208c865723ba05974767d77770386beb295d628ff2",
            "attn_detail_entry004.pgm":
                "0aa22bff9cad0ce9a3ac898154f89f60e8a03a1df2c215ed03028a1fada48af5",
            "attn_detail_entry006.npy":
                "ce780192d76c375bd93c14935d5e88df62d63dc44570ce5ac6e86e1c95d7d1f3",
            "attn_detail_entry006.pgm":
                "ed686e4e4e353a28a010b5d64c9139798393103f4fb0b6e21d63cdd37656c34f",
            "attn_global_entry000.npy":
                "31f688eef8cbfb563792c468b81ba92021e76d53dd80ed97920e186c355231fc",
            "attn_global_entry000.pgm":
                "b00a74560b5dce1f80f62431b821ef1684dca0d2cb7ae7a712ef480a4a2fd5d9",
            "attn_global_entry001.npy":
                "29a85772f7a75bbecee67a5c86b79cfbb7e5c39195346aafb64778b8cb0d65e8",
            "attn_global_entry001.pgm":
                "01ab163e1479ea3902a5a0d266d5c34caaa1fe53f5a1d2fed021de6b1f352edb",
            "attn_global_entry003.npy":
                "cc131ba7d9902c1cc7c3e83b47631fcf7ec562e1787d2f034d59180d4e1c9e72",
            "attn_global_entry003.pgm":
                "5080a7a90792f593d9aa0d84f48f0068c7f95fe8592de810b671b2da86490183",
            "attn_global_entry007.npy":
                "9a2e9d109bfceae0ed0e4f3486ca72ed9f90926400be3fd55245fc99c7d1b938",
            "attn_global_entry007.pgm":
                "941f667f8619116f05814c8eda88714bbdfd89421a330af8b1bdd269798c523a",
            "entropy_map.npy":
                "3e47799777ba669be3d50fadbe5f99e3148fbd45bda77db4885eae145da74cb7",
            "entropy_map.pgm":
                "c6143b51a24dd3b5a1767565ac8145efc5de848dc3f46cdabc63a272189c37f1",
            "report.txt":
                "f36f9cb2f6962debc2e482da57becce32f2fcf5bea3ad87a64e52342f46fbf50",
            "slice0_mu.npy":
                "fc9d08003cd77f113480a7ed3623af90f7e0b602bd35ad7ed1d8e147b03782fe",
            "slice0_normalized_residual.npy":
                "af8e3fc248ff1e224abbe00a066c0fda289c2ae81283d8c4b4aba8caf7613e3c",
            "slice0_residual.npy":
                "cd51bdc51a64ed28213103f809bf8c801d1e3fa97cf5aa8b8ebb17cb6569aa8f",
            "slice0_sigma.npy":
                "c6d9edd6de722858bd62144532b3b47e595dd1b111ed0d279b9a171b1b15d9fa",
            "slice1_mu.npy":
                "fafc5a0357f45c0d9b764746fc80c40fff7cd3c0ed3349bbc314ef920eefe0e4",
            "slice1_normalized_residual.npy":
                "d51976e5cfaab542f6d03dda4dd2faf2edbf0d4219b49494a2aec4a4240817e1",
            "slice1_residual.npy":
                "2b22cfae3011b5930a30adf609fa6c0e9b2541dda4df31969585f1a607bc4561",
            "slice1_sigma.npy":
                "e285450ddfb0624eccffc679dd6d710fb0e7ff49dbd8f149b30e2e153e657a93",
            "usage_detail.npy":
                "16d63d71b86509b320bfd3bd84416ea8f629e382546ccfc2e5f6e1bdf4a87380",
            "usage_global.npy":
                "8a21a2fc7c81db352245b0be741f82d0c07e32850d451454a7c10e781205d470",
        }),
        ("cape", {
            "attn_single_entry000.npy":
                "c91e5a9d8374b89900d6567f99760f932ca92d395eaf959bf405e7752cc2d771",
            "attn_single_entry000.pgm":
                "fce15ae9521d0161cbf26665e66a5c27645f32ecfd5ef5f7b67f1fff8f1883bb",
            "attn_single_entry006.npy":
                "c08795e0fd8206bb25a3fbb2dad1c3df7540f94d305c11c0a7c80b65ab1368f6",
            "attn_single_entry006.pgm":
                "7246ac4263df321c18feeeb0de5ea37f8b6f7f74879ce4f079c062381b9f7ff3",
            "attn_single_entry010.npy":
                "3868128f8f0718de83f6306aa06352bb4da52d156091aba1518e0e11bfd38cc6",
            "attn_single_entry010.pgm":
                "fe2765335d0186a886be6f5a21d2da8a583f49b71118de43be2131a20d723802",
            "attn_single_entry011.npy":
                "ce2d8ec7e6e3e0f02660480d298ac7b78ee795c95dc121efceafdd3ee1866041",
            "attn_single_entry011.pgm":
                "8cdfea3692d39da2b41eccd5a0671ddf0573a9cea2cb02d3acac193107192dfd",
            "entropy_map.npy":
                "749dd96dbbc30ec07d4984f35fdd0147e7a7df9555218d693a1c8c4da5fd7a59",
            "entropy_map.pgm":
                "d30c844bdad429dedf3162e9b9fe7fc49491a171f012de1c3c4033d6c89332c5",
            "report.txt":
                "9619cc705a8c320763a1b419fb222ac099696fd3bf9ae9e1c037287c8864a211",
            "slice0_mu.npy":
                "8404f0489421a4d0b715e0a12c701f485701033d329b23ae781390fa9e2e9207",
            "slice0_normalized_residual.npy":
                "f7c78c220a973d6b91f591a7ca2ce8ba1a9f4432a0098bfaf3333b3a3cfcdfed",
            "slice0_residual.npy":
                "ad52bf1e25c2a1af117ad3877d9ac97d8aa0e22b41f68d2b15ad7146781c085a",
            "slice0_sigma.npy":
                "016033f5c262d3783cab9f41ab10aaf18a89658e868f66af6ac1b6aa4c890785",
            "slice1_mu.npy":
                "fabd546a5e44dfdd1cd0287a2ea6cadac2e6da2157bd69414d0195d84e8153bd",
            "slice1_normalized_residual.npy":
                "9768c7d01ab3991e3259ddb64c4f4e8dbd1acd3b8d4e5903affb8481e82c9148",
            "slice1_residual.npy":
                "cb07f1760945831b8b343eca6b72f37cf2dd78823c94737b358c45428d02fca5",
            "slice1_sigma.npy":
                "a358bfeebb23431af40b21c1b96a234bdd78cc77dea62819393eabe06e634931",
            "usage_single.npy":
                "ce0b9f8b7c31e23dbd0a3258067580a35cc717388f9cab5de2fef23c97ba7d49",
        }),
    ])
    def test_output_digests(self, tmp_path, images, variant, digests):
        out_dir = tmp_path / "analysis"
        an.write_analysis_outputs(CompressionModel(tiny_config(variant=variant)), images,
                                  str(out_dir))
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out_dir.iterdir()}
        assert written == digests


class TestTape:
    @pytest.mark.parametrize("variant", ["hide", "baseline"])
    def test_codec_and_analysis_leave_nothing_on_the_tape(self, images, tmp_path, variant):
        # hierarchical and single-dictionary retrieval; the hyper prior's
        # sigma is differentiable and would record outside no_grad
        model = CompressionModel(tiny_config(variant=variant))
        data = codec.encode_image(model, images[0]).data
        assert tape_size() == 0
        codec.decode_image(model, data)
        assert tape_size() == 0
        an.write_analysis_outputs(model, images[:1], str(tmp_path))
        assert tape_size() == 0
