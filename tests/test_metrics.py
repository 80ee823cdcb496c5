"""PSNR and delta-rate: closed forms, oracles, error paths."""

import math

import numpy as np
import pytest

from hide.errors import MetricsError
from hide.metrics import (
    RDRecord,
    aggregate_by_lambda,
    bd_rate,
    bd_rate_records,
    psnr,
    read_rd_csv,
    write_rd_csv,
)


class TestPsnr:
    def test_identical_images_inf(self, rng):
        a = rng.integers(0, 256, size=(3, 8, 8)).astype(np.float64)
        assert psnr(a, a) == math.inf

    def test_unit_difference_closed_form(self):
        a = np.zeros((3, 16, 16))
        b = np.ones((3, 16, 16))
        expect = 10.0 * math.log10(255.0 ** 2)
        assert abs(psnr(a, b) - expect) < 1e-12
        assert abs(expect - 48.130803609) < 1e-6

    def test_against_longdouble_oracle(self, rng):
        a = rng.uniform(0, 255, size=(3, 32, 32))
        b = rng.uniform(0, 255, size=(3, 32, 32))
        got = psnr(a, b)
        mse = np.mean((a.astype(np.longdouble) - b.astype(np.longdouble)) ** 2)
        expect = float(10 * np.log10(np.longdouble(255.0) ** 2 / mse))
        assert abs(got - expect) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            psnr(np.zeros((3, 4, 4)), np.zeros((3, 4, 5)))


class TestBdRate:
    def curve(self):
        q = np.array([30.0, 32.0, 34.0, 36.0, 38.0])
        r = np.array([0.25, 0.40, 0.62, 0.95, 1.40])
        return r, q

    def test_identical_curves_zero(self):
        r, q = self.curve()
        assert bd_rate(r, q, r, q) == 0.0

    def test_uniform_scaling_minus_ten(self):
        r, q = self.curve()
        got = bd_rate(r, q, 0.9 * r, q)
        assert abs(got - (-10.0)) < 1e-9

    def test_antisymmetric_direction(self):
        r, q = self.curve()
        got = bd_rate(0.9 * r, q, r, q)
        assert abs(got - (1.0 / 0.9 - 1.0) * 100.0) < 1e-3

    def test_polynomial_closed_form(self):
        # log10 rate is cubic in PSNR for both curves; the exact delta-rate
        # follows from the polynomial integral of their difference
        q = np.linspace(30.0, 40.0, 25)
        la = -4.0 + 0.09 * q + 1e-4 * (q - 35) ** 2 + 2e-5 * (q - 35) ** 3
        delta = 0.02 - 0.003 * (q - 35) + 5e-5 * (q - 35) ** 2
        lt = la + delta
        got = bd_rate(10.0 ** la, q, 10.0 ** lt, q)

        coeffs = np.array([0.02, -0.003, 5e-5])   # in u = q - 35, over [-5, 5]
        integral = (coeffs[0] * 10.0 + coeffs[1] * 0.0 + coeffs[2] * (2 * 5.0 ** 3 / 3))
        expect = (10.0 ** (integral / 10.0) - 1.0) * 100.0
        assert abs(got - expect) <= 0.01

    def test_integration_matches_quadrature_oracle(self):
        from scipy.interpolate import PchipInterpolator
        r, q = self.curve()
        t_r = r * np.array([0.93, 0.9, 0.88, 0.91, 0.9])
        got = bd_rate(r, q, t_r, q)

        lo, hi = q.min(), q.max()
        xs = np.linspace(lo, hi, 200001)
        num = (np.trapezoid(PchipInterpolator(q, np.log10(t_r))(xs), xs)
               - np.trapezoid(PchipInterpolator(q, np.log10(r))(xs), xs)) / (hi - lo)
        expect = (10.0 ** num - 1.0) * 100.0
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))

    def test_no_overlap_lists_ranges(self):
        with pytest.raises(MetricsError, match="anchor spans"):
            bd_rate([0.1, 0.2], [30.0, 31.0], [0.1, 0.2], [35.0, 36.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("side", ["anchor", "test"])
    def test_non_finite_rate_refused(self, bad, side):
        # scipy's interpolator would raise a bare ValueError on these
        r, q = self.curve()
        bad_r = r.copy()
        bad_r[2] = bad
        args = (bad_r, q, r, q) if side == "anchor" else (r, q, bad_r, q)
        with pytest.raises(MetricsError, match=f"{side} curve has rates that are not positive and finite"):
            bd_rate(*args)

    def test_overflowing_delta_rate_refused(self):
        # finite rates 600 decades apart: 10 ** 600 is no float
        q = [30.0, 31.0]
        with pytest.raises(MetricsError, match="delta-rate out of range"):
            bd_rate([1e-300, 2e-300], q, [1e300, 2e300], q)

    def test_too_few_points(self):
        with pytest.raises(MetricsError):
            bd_rate([0.1], [30.0], [0.1, 0.2], [30.0, 31.0])


class TestRdCsv:
    def test_round_trip(self, tmp_path):
        records = [RDRecord("img0", 0.0035, 0.41, 31.5),
                   RDRecord("img1", 0.0035, 0.39, 30.9),
                   RDRecord("img0", 0.013, 0.80, 34.2)]
        path = str(tmp_path / "rd.csv")
        write_rd_csv(path, records)
        back = read_rd_csv(path)
        assert [(r.image, r.lam, r.bpp, r.psnr) for r in back] == \
               [(r.image, r.lam, r.bpp, r.psnr) for r in records]

    def test_aggregate_and_bdrate_records(self, tmp_path):
        anchor = [RDRecord("a", lam, r, q) for lam, r, q in
                  [(0.001, 0.2, 30.0), (0.01, 0.5, 33.0), (0.05, 1.1, 36.0)]]
        test = [RDRecord("a", lam, r * 0.9, q) for (lam, r, q) in
                [(0.001, 0.2, 30.0), (0.01, 0.5, 33.0), (0.05, 1.1, 36.0)]]
        rates, quals = aggregate_by_lambda(anchor)
        assert rates.tolist() == [0.2, 0.5, 1.1]
        got = bd_rate_records(anchor, test)
        assert abs(got - (-10.0)) < 1e-9

    def test_opposite_infinities_average_to_nan_without_a_warning(self):
        # bd_rate refuses the nan; the warning would be a second stderr line
        records = [RDRecord("a", 0.01, math.inf, 30.0), RDRecord("b", 0.01, -math.inf, 30.0)]
        rates, _ = aggregate_by_lambda(records)
        assert math.isnan(rates[0])

    def test_header_enforced(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n")
        with pytest.raises(MetricsError):
            read_rd_csv(path)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_names_path_and_line(self, tmp_path, lam):
        # each nan would be an RD point of its own, since nan != nan
        path = str(tmp_path / "nanlam.csv")
        with open(path, "w") as fh:
            fh.write(f"image,lambda,bpp,psnr\nimg0,0.01,0.4,32.0\nimg0,{lam},0.5,33.0\n")
        with pytest.raises(MetricsError, match=f"{path} line 3: lambda must be finite"):
            read_rd_csv(path)

    @pytest.mark.parametrize("row", ["img1,abc,0.5,33.0", "img1,0.01,,33.0",
                                     "img1,0.01,0.5,x", "img1,0.01,0.5", "img1"])
    def test_bad_row_names_path_and_line(self, tmp_path, row):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("image,lambda,bpp,psnr\nimg0,0.01,0.4,32.0\n" + row + "\n")
        with pytest.raises(MetricsError, match=f"{path} line 3: "):
            read_rd_csv(path)
