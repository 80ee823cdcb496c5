"""CLI surface: exit codes, round trips, csv plumbing."""

import os
from pathlib import Path

import numpy as np
import pytest

from hide import ppm
from hide.cli import main
from hide.config import parse_config_text
from hide.metrics import RDRecord, psnr, write_rd_csv
from hide.model import CompressionModel


TINY_CONFIG = """
variant=hide
seed=6
M=8
s=2
hyper_channels=4
C_d=16
N_G=4
N_D=4
heads=2
C_ctx=8
dtype=float64
steps=4
batch_size=2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    rng = np.random.default_rng(13)
    img = (np.clip(rng.uniform(0.2, 0.8, (3, 1, 1))
                   + rng.normal(0, 0.08, (3, 64, 64)), 0, 1) * 255).astype(np.uint8)
    img_path = root / "input.ppm"
    ppm.write_ppm(str(img_path), img)
    return root, str(cfg), str(img_path)


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["train"]) == 2

    def test_runtime_error_exit_one(self, tmp_path, capsys):
        assert main(["decode", str(tmp_path / "missing.bin"),
                     "--checkpoint", str(tmp_path / "missing.hide"),
                     "--out", str(tmp_path / "o.ppm")]) == 1

    def test_bad_ppm_header_is_an_error_line(self, tmp_path, capsys):
        ckpt = str(tmp_path / "m.hide")
        CompressionModel(parse_config_text(TINY_CONFIG)).save(ckpt)
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\nabc 4\n255\n" + b"\x00" * 48)
        assert main(["encode", str(bad), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_checkpoint_config_is_an_error_line(self, tmp_path, workspace, capsys):
        _, _, img_path = workspace
        ckpt = tmp_path / "m.hide"
        CompressionModel(parse_config_text(TINY_CONFIG)).save(str(ckpt))
        blob = ckpt.read_bytes()
        assert blob.count(b"variant=") == 1
        ckpt.write_bytes(blob.replace(b"variant=", b"\xffariant="))
        out = tmp_path / "o.hidb"
        assert main(["encode", img_path, "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and str(ckpt) in err
        assert not out.exists()

    def test_bad_config_value_is_an_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("M=abc\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x.hide")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "M=0", "s=0", "hyper_channels=0", "C_d=0", "N_G=0", "N_D=0", "heads=0",
        "C_ctx=0", "steps=0", "steps=-3", "batch_size=0", "batch_size=300", "seed=-1",
        "lr_drop_frac=0", "lr_drop_frac=5", "patch_size=0", "patch_size=50",
        "patch_size=100", "lambda=0", "lambda=-0.01", "lambda=nan", "lambda=inf",
        "lr=0", "lr=-1e-4", "lr=nan", "lr=inf"])
    def test_out_of_range_config_value_is_an_error_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + line + "\n")
        out = tmp_path / "x.hide"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and line.split("=")[0] in err
        assert not out.exists()


class TestTrainEncodeDecode:
    def test_full_round_trip(self, workspace, capsys):
        root, cfg, img_path = workspace
        ckpt = str(root / "model.hide")
        assert main(["train", "--config", cfg, "--out", ckpt]) == 0
        assert os.path.exists(ckpt)
        assert os.path.exists(ckpt + ".log")

        payload = str(root / "img.hidb")
        assert main(["encode", img_path, "--checkpoint", ckpt, "--out", payload]) == 0
        printed = capsys.readouterr().out
        assert "psnr=" in printed and "bpp=" in printed
        reported_psnr = float(printed.split("psnr=")[1].split()[0])

        out_ppm = str(root / "out.ppm")
        assert main(["decode", payload, "--checkpoint", ckpt, "--out", out_ppm]) == 0
        original = ppm.read_ppm(img_path).astype(np.float64)
        decoded = ppm.read_ppm(out_ppm).astype(np.float64)
        recomputed = psnr(original, decoded)
        assert abs(recomputed - reported_psnr) < 5e-5

    def test_analyze_outputs(self, workspace, capsys):
        root, cfg, img_path = workspace
        ckpt = str(root / "model.hide")
        out_dir = str(root / "analysis")
        assert main(["analyze", img_path, "--checkpoint", ckpt,
                     "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.txt"))
        printed = capsys.readouterr().out
        assert "usage_entropy_bits" in printed
        assert "parameter_counts" in printed


class TestBdrateCommand:
    def test_identical_csvs_print_zero(self, tmp_path, capsys):
        records = [RDRecord("a", lam, r, q) for lam, r, q in
                   [(0.0018, 0.2, 30.0), (0.0067, 0.5, 33.0), (0.05, 1.1, 36.0)]]
        path = str(tmp_path / "rd.csv")
        write_rd_csv(path, records)
        assert main(["bdrate", path, path]) == 0
        assert capsys.readouterr().out.strip() == "0.00"


class TestSweepCommand:
    def test_mini_sweep_emits_csvs(self, workspace, capsys):
        root, cfg, _ = workspace
        out_dir = str(root / "sweep")
        assert main(["sweep", "--config", cfg, "--variants", "baseline,hide",
                     "--lambdas", "0.0035,0.05", "--steps", "2",
                     "--out", out_dir]) == 0
        for variant in ("baseline", "hide"):
            path = os.path.join(out_dir, f"rd_{variant}.csv")
            assert os.path.exists(path)
            lines = Path(path).read_text().strip().splitlines()
            assert lines[0] == "image,lambda,bpp,psnr"
            assert len(lines) == 1 + 2 * 4    # 2 lambdas x 4 eval images
