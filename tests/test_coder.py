"""Range coder: round-trip losslessness, rate tightness, cdf construction."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hide import coder
from hide.constants import (
    ALPHABET_SIZE,
    PROB_TOTAL,
    SIGMA_MAX,
    SIGMA_MIN,
    SYMBOL_MAX,
    SYMBOL_MIN,
)
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


def oracle_decode_symbols(data, cdfs):
    """Range decoder finding each symbol with np.searchsorted on its row."""
    pos, rng_, code = 5, (1 << 32) - 1, int.from_bytes(data[:5], "big") & ((1 << 32) - 1)
    out = []
    for cdf in cdfs:
        r = rng_ >> 16
        value = min(code // r, PROB_TOTAL - 1)
        idx = int(np.searchsorted(cdf, value, side="right")) - 1
        code -= r * int(cdf[idx])
        rng_ = r * (int(cdf[idx + 1]) - int(cdf[idx]))
        while rng_ < 1 << 24:
            if pos >= len(data):
                raise DecodeError("bitstream exhausted")
            code = ((code << 8) | data[pos]) & ((1 << 32) - 1)
            pos += 1
            rng_ <<= 8
        out.append(idx + SYMBOL_MIN)
    return np.array(out, dtype=np.int64)


def digest_grid():
    """(mu_frac, sigma) pairs built with correctly rounded arithmetic only,
    so the grid is the same on every IEEE-754 machine."""
    mus = [k / 64 for k in range(64)] + [k / 37 for k in range(1, 37)] + [1.0 - 2.0 ** -40]
    sigmas = [float(np.float32(SIGMA_MIN)), SIGMA_MIN]
    s = SIGMA_MIN
    while s < 64.0:
        s *= 1.05
        sigmas.append(min(s, 64.0))
    mu, sig = np.meshgrid(np.array(mus), np.array(sigmas), indexing="ij")
    return mu.ravel(), sig.ravel()


def oracle_build_cdf_batch(mu_frac, sigma):
    """The builder with the lexsort of the original largest-remainder
    rounding, which build_cdf_batch must reproduce bit for bit."""
    n = mu_frac.shape[0]
    edges = np.arange(SYMBOL_MIN, SYMBOL_MAX + 1, dtype=np.float64) + 0.5
    upper = coder._std_cdf((edges[None, :] - mu_frac[:, None]) / sigma[:, None])
    upper[:, -1] = 1.0
    lower = np.concatenate([np.zeros((n, 1)), upper[:, :-1]], axis=1)
    counts = oracle_largest_remainder((upper - lower) * PROB_TOTAL, PROB_TOTAL)
    zeros = counts == 0
    subsidy = zeros.sum(axis=1)
    counts[zeros] = 1
    rows = np.arange(n)
    top = np.argmax(counts, axis=1)
    caps = counts - 1
    caps[rows, top] = 0
    total_cap = caps.sum(axis=1)
    payable = np.minimum(subsidy, total_cap)
    safe_total = np.where(total_cap > 0, total_cap, 1)
    counts -= oracle_largest_remainder(payable[:, None] * caps / safe_total[:, None], payable)
    counts[rows, top] -= subsidy - payable
    cdf = np.zeros((n, ALPHABET_SIZE + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=cdf[:, 1:])
    return cdf


def oracle_largest_remainder(scaled, target):
    counts = np.floor(scaled).astype(np.int64)
    frac = scaled - counts
    deficit = np.asarray(target) - counts.sum(axis=1)
    cols = np.broadcast_to(np.arange(scaled.shape[1]), scaled.shape)
    order = np.lexsort((cols, -frac), axis=1)
    take = np.arange(scaled.shape[1])[None, :] < deficit[:, None]
    bump = np.zeros_like(counts)
    np.put_along_axis(bump, order, take.astype(np.int64), axis=1)
    return counts + bump


_SIGMA_FLOOR32 = float(np.float32(SIGMA_MIN))
# Rows whose mean sits so near symbol 1 that a column window sized by
# sigma alone (9 sigma, in steps of 4 columns) would cut off mass.
_WINDOW_FALLBACK_ROWS = [(0.99, 1.0 / 3.0), (0.95, 0.32)]
_mu_fracs = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                      st.floats(0.75, 1.0, exclude_max=True))
_sigmas = st.one_of(
    st.floats(_SIGMA_FLOOR32, SIGMA_MAX),
    st.sampled_from([_SIGMA_FLOOR32, SIGMA_MIN, SIGMA_MAX]),
    # the largest sigma of each 4-column window step, and just above it
    st.integers(4, 64).map(lambda h: (h - 1.0) / 9.0),
    st.integers(4, 64).map(lambda h: np.nextafter((h - 1.0) / 9.0, np.inf)),
)


class TestBuildCdf:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_mu_fracs, _sigmas), min_size=1, max_size=40))
    @example(_WINDOW_FALLBACK_ROWS)
    def test_matches_full_width_oracle(self, pairs):
        mu, sig = (np.array(v, dtype=np.float64) for v in zip(*pairs))
        assert np.array_equal(coder.build_cdf_batch(mu, sig), oracle_build_cdf_batch(mu, sig))

    def test_std_cdf_saturates_at_nine_sigma(self):
        z = np.array([-1e3, -20.0, -9.0, 9.0, 20.0, 1e3])
        assert coder._std_cdf(z).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_rows_digest(self):
        # The cdf rows are part of the bitstream format: any change to them
        # changes the bytes of every coded image.
        rows = coder.build_cdf_batch(*digest_grid())
        assert rows.shape == (15554, ALPHABET_SIZE + 1)
        digest = hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()
        assert digest == "fb82a0b3b40cc0ce95d0c8f7c6b99ce83bb3aa3db7c8c066d376c4f283eeb264"

    def test_unit_gaussian_center_mass(self):
        cdf = coder.build_cdf_batch([0.0], [1.0])[0]
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
        cdf = coder.build_cdf_batch([0.0], [SIGMA_MIN])[0]
        count0 = cdf[-SYMBOL_MIN + 1] - cdf[-SYMBOL_MIN]
        assert count0 >= 0.99 * PROB_TOTAL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_scale_map_output_builds(self, dtype):
        # float32 softplus underflow leaves sigma = float32(0.04) < 0.04
        raw = np.array([-1e30, -30.0, -16.0, 0.0, 30.0, 1e30], dtype=dtype)
        sigma = scale_map(Tensor(raw, dtype=dtype)).numpy()
        cdfs = coder.build_cdf_batch(np.zeros(raw.size), sigma)
        assert np.array_equal(cdfs[0], coder.build_cdf_batch([0.0], [SIGMA_MIN])[0])
        assert np.array_equal(cdfs[-1], coder.build_cdf_batch([0.0], [64.0])[0])

    def test_sigma_out_of_bounds(self):
        with pytest.raises(CoderError):
            coder.build_cdf_batch([0.0], [0.001])
        with pytest.raises(CoderError):
            coder.build_cdf_batch([0.0], [100.0])

    def test_mu_frac_range_checked(self):
        with pytest.raises(CoderError):
            coder.build_cdf_batch([1.0], [1.0])


class TestScaleTable:
    def test_table_rows_digest(self):
        # The table's rows are part of the bitstream format, like build_cdf_batch's.
        table = coder.SCALE_CDFS
        assert table.shape == (coder.SCALE_LEVELS, ALPHABET_SIZE + 1)
        assert (coder.SCALE_TABLE[0], coder.SCALE_TABLE[-1]) == (SIGMA_MIN, SIGMA_MAX)
        assert np.array_equal(table, oracle_build_cdf_batch(np.zeros(len(table)),
                                                            coder.SCALE_TABLE))
        digest = hashlib.sha256(table.astype("<i8").tobytes()).hexdigest()
        assert digest == "3eed1a0a8c20379841b4a4fdac8e543bca4b85ca3f7aaa2f4376f1be4dfa8299"

    def test_scale_index_monotone_with_end_entries(self):
        sig = np.geomspace(_SIGMA_FLOOR32, SIGMA_MAX, 20001)
        idx = coder.scale_index(sig)
        assert (np.diff(idx) >= 0).all()
        assert set(idx.tolist()) == set(range(coder.SCALE_LEVELS))
        last = coder.SCALE_LEVELS - 1
        ends = [_SIGMA_FLOOR32, SIGMA_MIN, SIGMA_MAX, np.float32(SIGMA_MIN), np.float32(SIGMA_MAX)]
        assert [int(coder.scale_index(s)) for s in ends] == [0, 0, last, 0, last]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scale_index_idempotent_on_table_values(self, dtype):
        table = coder.SCALE_TABLE.astype(dtype)
        assert coder.scale_index(table).tolist() == list(range(coder.SCALE_LEVELS))

    def test_scale_index_nearest_in_log_scale(self, rng):
        sig = np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(SIGMA_MAX), 5000))
        dist = np.abs(np.log(sig[:, None]) - np.log(coder.SCALE_TABLE[None, :]))
        assert np.array_equal(coder.scale_index(sig), np.argmin(dist, axis=1))

    def test_scale_index_rejects_out_of_range(self):
        for bad in (0.039, SIGMA_MAX * 1.001, np.nan):
            with pytest.raises(CoderError):
                coder.scale_index(np.array([1.0, bad]))

    def test_indexed_rows_match_gathered_rows(self, rng):
        n = 4000
        index = coder.scale_index(np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(8.0), n)))
        syms = np.clip(np.round(rng.standard_normal(n) * coder.SCALE_TABLE[index]),
                       SYMBOL_MIN, SYMBOL_MAX).astype(np.int64)
        syms[::13] = rng.integers(SYMBOL_MIN, SYMBOL_MAX + 1, size=syms[::13].size)
        table = coder.SCALE_CDFS
        data = coder.encode_symbols(syms, table, index)
        assert data == coder.encode_symbols(syms, table[index])
        np.testing.assert_array_equal(coder.decode_symbols(data, table, index), syms)
        np.testing.assert_array_equal(coder.decode_symbols(data, table[index]), syms)

    def test_bad_row_index_rejected(self):
        table = coder.SCALE_CDFS
        for index in ([0, coder.SCALE_LEVELS], [-1, 0], [0.0, 1.0]):
            with pytest.raises(CoderError):
                coder.encode_symbols([0, 0], table, np.array(index))
            with pytest.raises(CoderError):
                coder.decode_symbols(bytes(16), table, np.array(index))
        with pytest.raises(CoderError):
            coder.encode_symbols([0, 0], table, np.array([0]))


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

    @pytest.mark.parametrize("shared", [False, True])
    def test_bytes_match_symbol_by_symbol_encoder(self, rng, shared):
        n = 500
        cdfs = coder.build_cdf_batch(rng.uniform(0, 1, n), np.exp(rng.uniform(-3, 4, n)))
        # shared: one row for every symbol, as a one-row table and an all-zero index
        index = np.zeros(n, dtype=np.int64) if shared else None
        if shared:
            cdfs = cdfs[:1]
        syms = rng.integers(-8, 9, size=n)
        enc = coder._Encoder()
        for i, sym in enumerate(syms):
            row = cdfs[0] if shared else cdfs[i]
            enc.encode(int(row[sym - SYMBOL_MIN]), int(row[sym - SYMBOL_MIN + 1]))
        assert coder.encode_symbols(syms, cdfs, index) == enc.flush()

    def test_decode_matches_searchsorted_oracle(self, rng):
        n = 3000
        mu = rng.uniform(0, 1, n)
        sig = np.exp(rng.uniform(np.log(SIGMA_MIN), np.log(SIGMA_MAX), n))
        sig[0::7] = float(np.float32(SIGMA_MIN))    # the float32 sigma floor
        sig[1::7] = SIGMA_MIN
        sig[2::7] = SIGMA_MAX
        cdfs = coder.build_cdf_batch(mu, sig)
        # mostly likely symbols, with some from the count-1 tails
        syms = np.clip(np.round(rng.standard_normal(n) * sig), SYMBOL_MIN, SYMBOL_MAX)
        syms[::11] = rng.integers(SYMBOL_MIN, SYMBOL_MAX + 1, size=syms[::11].size)
        data = coder.encode_symbols(syms, cdfs)
        np.testing.assert_array_equal(coder.decode_symbols(data, cdfs), syms)
        np.testing.assert_array_equal(oracle_decode_symbols(data, cdfs), syms)
        # arbitrary bytes decode to the same symbols too (the stream never runs
        # short: each symbol reads at most two bytes)
        for _ in range(20):
            noise = rng.integers(0, 256, size=2 * n + 5, dtype=np.uint8).tobytes()
            np.testing.assert_array_equal(coder.decode_symbols(noise, cdfs),
                                          oracle_decode_symbols(noise, cdfs))

    def test_symbol_out_of_alphabet(self):
        cdf = coder.build_cdf_batch([0.0], [1.0])[0]
        with pytest.raises(CoderError):
            coder.encode_symbols([SYMBOL_MAX + 1], cdf[None, :])

    def test_one_d_cdf_refused(self):
        # no 1-d shared-row form: share a row through a one-row table and an index
        cdf = coder.build_cdf_batch([0.0], [1.0])[0]
        with pytest.raises(CoderError, match="2-d"):
            coder.encode_symbols([0], cdf)
        with pytest.raises(CoderError, match="2-d"):
            coder.decode_symbols(bytes(5), cdf)


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
            cdf = coder.build_cdf_batch([0.0], [sigma])[0]
            q = np.diff(cdf) / PROB_TOTAL
            edges = np.arange(SYMBOL_MIN, SYMBOL_MAX + 1) + 0.5
            upper = 0.5 * (1 + np.vectorize(math.erf)(edges / (sigma * math.sqrt(2))))
            upper[-1] = 1.0
            p = np.diff(np.concatenate([[0.0], upper]))
            mask = p > 0
            penalty = float(np.sum(p[mask] * (np.log2(p[mask]) - np.log2(q[mask]))))
            assert penalty <= bound, f"sigma={sigma}: penalty {penalty:.3e}"
