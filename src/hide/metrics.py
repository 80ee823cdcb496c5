"""Rate-distortion metrics: PSNR and the Bjontegaard delta-rate.

The delta-rate integrates piecewise-cubic Hermite interpolants of
(PSNR, log10 rate) over the common PSNR interval.  Interpolant segments
are integrated exactly through the antiderivative, so the only
approximation is the interpolation itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import MetricsError


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB over 8-bit-range images.

    Accepts uint8 arrays or floats already scaled to [0, 255].  Identical
    inputs return math.inf.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricsError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)


@dataclass
class RDRecord:
    image: str
    lam: float
    bpp: float
    psnr: float


CSV_HEADER = ["image", "lambda", "bpp", "psnr"]


def write_rd_csv(path: str, records: Sequence[RDRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.image, repr(r.lam), repr(r.bpp),
                             "inf" if math.isinf(r.psnr) else repr(r.psnr)])


def read_rd_csv(path: str) -> List[RDRecord]:
    out: List[RDRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise MetricsError(f"{path}: expected header {CSV_HEADER}, got {header}")
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise MetricsError(f"{path} line {reader.line_num}: expected "
                                   f"{len(CSV_HEADER)} fields, got {len(row)}")
            try:
                out.append(RDRecord(row[0], float(row[1]), float(row[2]), float(row[3])))
            except ValueError:
                raise MetricsError(f"{path} line {reader.line_num}: lambda, bpp and psnr "
                                   f"must be numbers, got {row[1:]}") from None
    return out


def aggregate_by_lambda(records: Sequence[RDRecord]) -> Tuple[np.ndarray, np.ndarray]:
    """Mean (bpp, psnr) per lambda, sorted by rate: one RD point per lambda."""
    groups: Dict[float, List[RDRecord]] = {}
    for r in records:
        groups.setdefault(r.lam, []).append(r)
    rates, quals = [], []
    with np.errstate(invalid="ignore"):     # inf and -inf average to nan, which bd_rate refuses
        for lam in sorted(groups):
            rates.append(float(np.mean([r.bpp for r in groups[lam]])))
            quals.append(float(np.mean([r.psnr for r in groups[lam]])))
    return np.asarray(rates), np.asarray(quals)


def bd_rate(anchor_rate: Sequence[float], anchor_psnr: Sequence[float],
            test_rate: Sequence[float], test_psnr: Sequence[float]) -> float:
    """Average rate difference of test vs anchor in percent (negative = cheaper).

    Requires at least two points per curve over a nonempty common PSNR
    interval; four or more points give the interpolation its intended
    cubic behavior.
    """
    a_rate = np.asarray(anchor_rate, dtype=np.float64)
    a_psnr = np.asarray(anchor_psnr, dtype=np.float64)
    t_rate = np.asarray(test_rate, dtype=np.float64)
    t_psnr = np.asarray(test_psnr, dtype=np.float64)
    for name, rate, qual in (("anchor", a_rate, a_psnr), ("test", t_rate, t_psnr)):
        if rate.size != qual.size or rate.size < 2:
            raise MetricsError(f"{name} curve needs >= 2 (rate, psnr) points")
        if not np.all((0 < rate) & (rate < math.inf)):
            raise MetricsError(f"{name} curve has rates that are not positive and finite")
        if not np.all(np.isfinite(qual)):
            raise MetricsError(f"{name} curve has non-finite PSNR")

    lo = max(a_psnr.min(), t_psnr.min())
    hi = min(a_psnr.max(), t_psnr.max())
    if not lo < hi:
        raise MetricsError(
            "no PSNR overlap between curves: "
            f"anchor spans [{a_psnr.min():.4f}, {a_psnr.max():.4f}] dB, "
            f"test spans [{t_psnr.min():.4f}, {t_psnr.max():.4f}] dB")

    def integral(qual, rate):
        order = np.argsort(qual)
        qs, rs = qual[order], np.log10(rate[order])
        if np.any(np.diff(qs) <= 0):
            raise MetricsError("duplicate PSNR values on one curve")
        anti = PchipInterpolator(qs, rs).antiderivative()
        return float(anti(hi) - anti(lo))

    # extreme finite inputs (PSNRs 1e-300 apart, rates 1e300 apart) overflow
    # the interpolation or the ratio: refuse them rather than print nan or inf
    with np.errstate(all="ignore"):
        mean_diff = (integral(t_psnr, t_rate) - integral(a_psnr, a_rate)) / (hi - lo)
    if not abs(mean_diff) < 300:
        raise MetricsError(f"delta-rate out of range: mean log10 rate difference {mean_diff}")
    return (math.exp(mean_diff * math.log(10.0)) - 1.0) * 100.0


def bd_rate_records(anchor: Sequence[RDRecord], test: Sequence[RDRecord]) -> float:
    a_rate, a_psnr = aggregate_by_lambda(anchor)
    t_rate, t_psnr = aggregate_by_lambda(test)
    return bd_rate(a_rate, a_psnr, t_rate, t_psnr)
