"""Range coder: round-trip losslessness, rate tightness, cdf construction."""

import math

import numpy as np
import pytest

from hide import coder
from hide.constants import ALPHABET_SIZE, PROB_TOTAL, SIGMA_MIN, SYMBOL_MAX, SYMBOL_MIN
from hide.core import Tensor
from hide.errors import CoderError, DecodeError
from hide.estimator import scale_map


def make_cdf_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    assert counts.sum() == PROB_TOTAL
    cdf = np.zeros(len(counts) + 1, dtype=np.int64)
    cdf[1:] = np.cumsum(counts)
    return cdf


def pad_to_alphabet(counts4):
    """Spread a small alphabet over the low end of the 128-symbol alphabet."""
    counts = np.ones(ALPHABET_SIZE, dtype=np.int64)
    budget = PROB_TOTAL - ALPHABET_SIZE + len(counts4)
    scaled = np.floor(np.asarray(counts4, float) / np.sum(counts4) * budget).astype(np.int64)
    scaled[0] += budget - scaled.sum()
    counts[:len(counts4)] = scaled
    return make_cdf_from_counts(counts)


class TestBuildCdf:
    def test_unit_gaussian_center_mass(self):
        cdf = coder.build_cdf(0.0, 1.0)
        count0 = cdf[-SYMBOL_MIN + 1] - cdf[-SYMBOL_MIN]
        p0 = math.erf(0.5 / math.sqrt(2.0))
        assert abs(count0 / PROB_TOTAL - p0) <= 2.0 / PROB_TOTAL

    def test_counts_always_sum_to_total(self, rng):
        mu = rng.uniform(0.0, 1.0, size=200)
        sig = np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(64.0), size=200))
        cdfs = coder.build_cdf_batch(mu, sig)
        assert (cdfs[:, -1] == PROB_TOTAL).all()
        assert (cdfs[:, 0] == 0).all()
        assert (np.diff(cdfs, axis=1) >= 1).all()

    def test_minimum_sigma_concentrates(self):
        cdf = coder.build_cdf(0.0, SIGMA_MIN)
        count0 = cdf[-SYMBOL_MIN + 1] - cdf[-SYMBOL_MIN]
        assert count0 >= 0.99 * PROB_TOTAL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_scale_map_output_builds(self, dtype):
        # float32 softplus underflow leaves sigma = float32(0.04) < 0.04
        raw = np.array([-1e30, -30.0, -16.0, 0.0, 30.0, 1e30], dtype=dtype)
        sigma = scale_map(Tensor(raw, dtype=dtype)).numpy()
        cdfs = coder.build_cdf_batch(np.zeros(raw.size), sigma)
        assert np.array_equal(cdfs[0], coder.build_cdf(0.0, SIGMA_MIN))
        assert np.array_equal(cdfs[-1], coder.build_cdf(0.0, 64.0))

    def test_sigma_out_of_bounds(self):
        with pytest.raises(CoderError):
            coder.build_cdf(0.0, 0.001)
        with pytest.raises(CoderError):
            coder.build_cdf(0.0, 100.0)

    def test_mu_frac_range_checked(self):
        with pytest.raises(CoderError):
            coder.build_cdf(1.0, 1.0)

    def test_validate_cdf(self):
        coder.validate_cdf(coder.build_cdf(0.3, 2.0))
        with pytest.raises(CoderError):
            coder.validate_cdf(np.array([0, 5, 5, PROB_TOTAL]))


class TestRoundTrip:
    def test_empty_sequence_flush_only(self):
        data = coder.encode_symbols([], np.zeros((0, ALPHABET_SIZE + 1), dtype=np.int64))
        assert len(data) <= 8
        out = coder.decode_symbols(data, np.zeros((0, ALPHABET_SIZE + 1), dtype=np.int64))
        assert out.size == 0

    def test_two_symbol_rate(self, rng):
        counts = np.ones(ALPHABET_SIZE, dtype=np.int64)
        counts[0] = counts[1] = (PROB_TOTAL - ALPHABET_SIZE + 2) // 2
        cdf = make_cdf_from_counts(counts)
        syms = rng.integers(0, 2, size=1000) + SYMBOL_MIN
        cdfs = np.broadcast_to(cdf, (1000, cdf.size))
        data = coder.encode_symbols(syms, cdfs)
        bits = len(data) * 8
        ideal = coder.quantized_bits(syms, cdfs)
        assert ideal <= bits <= 1064
        assert bits >= 1000
        np.testing.assert_array_equal(coder.decode_symbols(data, cdfs), syms)

    def test_fuzz_random_models(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 64))
            mu = rng.uniform(0, 1, size=n)
            sig = np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(64.0), size=n))
            cdfs = coder.build_cdf_batch(mu, sig)
            syms = rng.integers(SYMBOL_MIN, SYMBOL_MAX + 1, size=n)
            data = coder.encode_symbols(syms, cdfs)
            np.testing.assert_array_equal(coder.decode_symbols(data, cdfs), syms)

    def test_exhaustive_short_sequences(self):
        cdf = pad_to_alphabet([9000, 30000, 500, 26036 - ALPHABET_SIZE + 4])
        letters = [SYMBOL_MIN + i for i in range(4)]
        seqs = [[]]
        for a in letters:
            seqs.append([a])
            for b in letters:
                seqs.append([a, b])
                for c in letters:
                    seqs.append([a, b, c])
        assert len(seqs) == 85
        for seq in seqs:
            cdfs = np.broadcast_to(cdf, (len(seq), cdf.size))
            data = coder.encode_symbols(seq, cdfs)
            np.testing.assert_array_equal(coder.decode_symbols(data, cdfs), seq)

    def test_decode_is_deterministic(self, rng):
        cdfs = coder.build_cdf_batch(rng.uniform(0, 1, 32), np.full(32, 1.5))
        syms = rng.integers(-3, 4, size=32)
        data = coder.encode_symbols(syms, cdfs)
        a = coder.decode_symbols(data, cdfs)
        b = coder.decode_symbols(data, cdfs)
        np.testing.assert_array_equal(a, b)

    def test_truncated_stream_raises(self, rng):
        cdfs = coder.build_cdf_batch(np.zeros(64), np.full(64, 0.8))
        syms = rng.integers(-2, 3, size=64)
        data = coder.encode_symbols(syms, cdfs)
        with pytest.raises(DecodeError):
            coder.decode_symbols(data[:-1], cdfs)

    def test_symbol_out_of_alphabet(self):
        cdf = coder.build_cdf(0.0, 1.0)
        with pytest.raises(CoderError):
            coder.encode_symbols([SYMBOL_MAX + 1], cdf[None, :])


class TestRateTightness:
    def test_stream_within_flush_overhead(self, rng):
        # actual bits <= sum(-log2 q) + 64 for streams up to 2048 symbols
        for n in (1, 7, 200, 1024, 2048):
            mu = rng.uniform(0, 1, size=n)
            sig = np.exp(rng.uniform(np.log(0.3), np.log(16.0), size=n))
            cdfs = coder.build_cdf_batch(mu, sig)
            pmf = np.diff(cdfs, axis=1) / PROB_TOTAL
            syms = np.array([rng.choice(ALPHABET_SIZE, p=row) for row in pmf]) + SYMBOL_MIN
            data = coder.encode_symbols(syms, cdfs)
            bits = len(data) * 8
            ideal = coder.quantized_bits(syms, cdfs)
            assert 0 <= bits - ideal <= 64, f"n={n}: {bits} vs {ideal:.2f}"

    def test_quantization_penalty_bound(self, rng):
        # Expected extra bits per symbol from 16-bit quantization of the pmf.
        # The minimum-count-1 reservation costs ~ALPHABET/PROB_TOTAL of mass,
        # so the penalty floor sits near 2^-8.5 for narrow distributions and
        # drops below 2^-10 once the pmf spreads over most of the alphabet.
        for sigma, bound in ((0.25, 2.0 ** -8), (1.0, 2.0 ** -8), (4.0, 2.0 ** -8),
                             (16.0, 2.0 ** -10), (64.0, 2.0 ** -10)):
            cdf = coder.build_cdf(0.0, sigma)
            q = np.diff(cdf) / PROB_TOTAL
            edges = np.arange(SYMBOL_MIN, SYMBOL_MAX + 1) + 0.5
            upper = 0.5 * (1 + np.vectorize(math.erf)(edges / (sigma * math.sqrt(2))))
            upper[-1] = 1.0
            p = np.diff(np.concatenate([[0.0], upper]))
            mask = p > 0
            penalty = float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))
            assert penalty <= bound, f"sigma={sigma}: penalty {penalty:.3e}"
