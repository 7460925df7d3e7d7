import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sapsm.errors import ConfigError, DimensionMismatch
from sapsm.geometry import constellation
from sapsm.mimo import (
    ChannelModel,
    add_noise,
    gen_channel,
    interval_errors,
    make_instance,
    realify,
    slicing_interval,
    snr_to_sigma2,
    symbol_errors,
    transmit,
    trial_seed,
)

from helpers import complexify, complexify_vector, symbol_errors_by_slicing

QPSK = constellation("qpsk")
QAM16 = constellation("16qam")
MODULATIONS = ("qpsk", "16qam", "64qam")
FLOAT_MAX = np.finfo(float).max


def edge_values(c):
    """Finite values where slicing can go wrong: the levels, +-a_max, signed
    zeros, each midpoint and its neighbours one ulp away, and huge values."""
    mids = c.midpoints
    values = [*c.levels, *mids, *np.nextafter(mids, -np.inf),
              *np.nextafter(mids, np.inf), c.a_max, -c.a_max, 0.0, -0.0,
              1e300, -1e300, FLOAT_MAX, -FLOAT_MAX]
    return [float(v) for v in values]


@st.composite
def counting_cases(draw):
    """(constellation, estimate, reference) of a 1-D estimate, a stack of
    estimates against one reference, or a stack against per-row references."""
    c = constellation(draw(st.sampled_from(MODULATIONS)))
    values = st.one_of(st.sampled_from(edge_values(c)),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-2.0 * c.a_max, 2.0 * c.a_max))
    dim = 2 * draw(st.integers(1, 4))
    form = draw(st.sampled_from(("1d", "2d", "per_row")))
    x_shape = (dim,) if form == "1d" else (draw(st.integers(1, 5)), dim)
    s_shape = (dim,) if form == "2d" else x_shape
    x = draw(arrays(float, x_shape, elements=values))
    s = draw(arrays(float, s_shape,
                    elements=st.one_of(st.sampled_from(list(c.levels)), values)))
    return c, x, s


class TestStacking:
    def test_real_scalar_embeds_as_identity_block(self):
        np.testing.assert_array_equal(realify(np.array([[1.0 + 0j]])),
                                      [[1.0, 0.0], [0.0, 1.0]])

    def test_imaginary_unit_is_rotation(self):
        np.testing.assert_array_equal(realify(np.array([[1j]])),
                                      [[0.0, -1.0], [1.0, 0.0]])

    def test_matches_complex_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            Hc = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            x = rng.standard_normal(6)
            lifted = realify(Hc) @ x
            direct = Hc @ complexify_vector(x)
            assert abs(np.linalg.norm(lifted) - np.linalg.norm(direct)) <= 1e-12
            np.testing.assert_allclose(complexify_vector(lifted), direct, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        Hc = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        np.testing.assert_allclose(complexify(realify(Hc)), Hc, atol=1e-14)

    def test_equals_the_block_form_bit_for_bit(self):
        # signed zeros, infinities and nans of both signs in either part
        rng = np.random.default_rng(3)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.0])
        Hc = np.empty((6, 4), dtype=complex)
        Hc.real = rng.choice(special, size=Hc.shape)
        Hc.imag = rng.choice(special, size=Hc.shape)
        for H in (Hc, Hc[::-1, 1:], rng.standard_normal((5, 3)), np.eye(2, dtype=int)):
            block = np.block([[H.real, -H.imag], [H.imag, H.real]])
            lifted = realify(H)
            assert lifted.dtype == block.dtype
            assert np.array_equal(lifted.view(np.uint8), block.view(np.uint8))

    def test_odd_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            complexify(np.zeros((3, 2)))
        with pytest.raises(DimensionMismatch):
            complexify_vector(np.zeros(3))


class TestChannels:
    def test_unit_columns(self):
        rng = np.random.default_rng(2)
        Hc = gen_channel(ChannelModel("iid"), 8, 4, rng)
        np.testing.assert_allclose(np.linalg.norm(Hc, axis=0), 1.0, atol=1e-12)
        # the stacking preserves unit columns
        np.testing.assert_allclose(np.linalg.norm(realify(Hc), axis=0), 1.0,
                                   atol=1e-12)

    def test_kronecker_zero_correlation_equals_iid(self):
        model0 = ChannelModel("kronecker", 0.0, 0.0)
        a = gen_channel(model0, 6, 3, np.random.default_rng(7))
        b = gen_channel(ChannelModel("iid"), 6, 3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_kronecker_raises_column_correlation(self):
        hi, lo = [], []
        for t in range(1000):
            rng_hi = np.random.default_rng(trial_seed(1, t))
            rng_lo = np.random.default_rng(trial_seed(1, t))
            Hk = gen_channel(ChannelModel("kronecker", 0.9, 0.9), 8, 4, rng_hi)
            Hi = gen_channel(ChannelModel("iid"), 8, 4, rng_lo)
            hi.append(abs(np.vdot(Hk[:, 0], Hk[:, 1])))
            lo.append(abs(np.vdot(Hi[:, 0], Hi[:, 1])))
        assert np.mean(hi) > np.mean(lo)

    @pytest.mark.parametrize("rho_tx, rho_rx", [(0.9, 0.0), (0.0, 0.3), (0.5, 0.5)])
    def test_iid_takes_no_correlation(self, rho_tx, rho_rx):
        # an iid channel would silently ignore a correlation
        with pytest.raises(ConfigError):
            ChannelModel("iid", rho_tx, rho_rx)
        assert ChannelModel("kronecker", rho_tx, rho_rx).rho_tx == rho_tx

    def test_dims_validated(self):
        with pytest.raises(ConfigError):
            gen_channel(ChannelModel("iid"), 2, 4, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            ChannelModel("kronecker", 1.0, 0.0)
        with pytest.raises(ConfigError):
            ChannelModel("rayleigh")


class TestTransmit:
    def test_alphabet_membership(self):
        s = transmit(QPSK, 8, np.random.default_rng(3))
        assert s.shape == (16,)
        assert np.all(np.isin(s, QPSK.levels))

    def test_moments(self):
        rng = np.random.default_rng(4)
        draws = transmit(QAM16, 50_000, rng)  # 100k coordinates
        n = draws.size
        energy = np.mean(QAM16.levels**2)
        # 3 sigma bands from the coordinate distribution
        assert abs(draws.mean()) <= 3 * np.sqrt(energy / n)
        var_of_sq = np.mean(QAM16.levels**4) - energy**2
        assert abs(np.mean(draws**2) - energy) <= 3 * np.sqrt(var_of_sq / n)

    def test_seed_determinism(self):
        a = transmit(QPSK, 16, np.random.default_rng(42))
        b = transmit(QPSK, 16, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestNoise:
    def test_noiseless_path(self):
        hs = np.array([1.0, -2.0])
        y = add_noise(hs, 0.0, np.random.default_rng(5))
        np.testing.assert_array_equal(y, hs)

    def test_moments(self):
        rng = np.random.default_rng(6)
        sigma2 = 0.37
        w = add_noise(np.zeros(1_000_000), sigma2, rng)
        var = sigma2 / 2.0
        # sample variance concentrates within 3 sigma
        assert abs(w.var() - var) <= 3 * var * np.sqrt(2 / w.size)
        assert abs(w @ w / (w.size / 2) - sigma2) <= 0.01 * sigma2

    def test_energy_identity(self):
        # E||w||^2 = N sigma2 over 2N coordinates
        rng = np.random.default_rng(7)
        n2, sigma2, runs = 64, 0.2, 2000
        total = sum(float(w @ w) for w in
                    (add_noise(np.zeros(n2), sigma2, rng) for _ in range(runs)))
        expected = (n2 / 2) * sigma2
        assert abs(total / runs - expected) <= 0.05 * expected

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            add_noise(np.zeros(2), -1.0, np.random.default_rng(0))


class TestSnr:
    def test_definition_values(self):
        assert snr_to_sigma2(0.0, 4, 4) == 1.0
        assert snr_to_sigma2(10.0, 64, 16) == pytest.approx(0.025, abs=1e-15)

    @pytest.mark.parametrize("snr_db", [-40.0, -3.0, 0.0, 6.5, 9.0, 13.0, 300.0, 3000.0])
    def test_formula_holds_where_sigma2_is_finite(self, snr_db):
        assert snr_to_sigma2(snr_db, 64, 16) == 16 / (64 * 10.0 ** (snr_db / 10.0))

    @pytest.mark.parametrize("snr_db", [3100.0, np.float64(3100.0), 1e308, np.inf])
    def test_snr_past_the_float_range_is_noiseless(self, snr_db):
        assert snr_to_sigma2(snr_db, 4, 2) == 0.0
        inst = make_instance(ChannelModel("iid"), QPSK, 2, 4, snr_db, 17)
        noiseless = make_instance(ChannelModel("iid"), QPSK, 2, 4, np.inf, 17)
        assert inst.sigma2 == 0.0
        np.testing.assert_array_equal(inst.y, noiseless.y)
        np.testing.assert_array_equal(inst.y, inst.H @ inst.s)

    @pytest.mark.parametrize("snr_db", [-3300.0, -3100.0, np.float64(-3100.0), np.nan, -np.inf])
    def test_snr_without_a_finite_sigma2_is_config_error(self, snr_db):
        with pytest.raises(ConfigError, match="no finite noise variance"):
            snr_to_sigma2(snr_db, 4, 2)
        with pytest.raises(ConfigError, match="no finite noise variance"):
            make_instance(ChannelModel("iid"), QPSK, 2, 4, snr_db, 17)

    def test_monte_carlo_ratio(self):
        snr_db = 6.0
        k, n = 4, 8
        sig_pow, noise_pow = 0.0, 0.0
        for t in range(10_000):
            rng = np.random.default_rng(trial_seed(13, t))
            H = realify(gen_channel(ChannelModel("iid"), n, k, rng))
            s = transmit(QAM16, k, rng)
            hs = H @ s
            w = add_noise(hs, snr_to_sigma2(snr_db, n, k), rng) - hs
            sig_pow += float(s @ (H.T @ (H @ s)))
            noise_pow += float(w @ w)
        measured = sig_pow / noise_pow
        assert abs(measured - 10 ** (snr_db / 10)) <= 0.05 * 10 ** (snr_db / 10)


class TestSymbolErrors:
    def test_exact_recovery(self):
        s = transmit(QAM16, 8, np.random.default_rng(8))
        assert symbol_errors(s.copy(), s, QAM16) == 0

    def test_single_component_flip_is_one_symbol(self):
        s = transmit(QPSK, 8, np.random.default_rng(9))
        x = s.copy()
        x[3] = -x[3]
        assert symbol_errors(x, s, QPSK) == 1
        # flipping the paired imaginary part too still counts once
        x[3 + 8] = -x[3 + 8]
        assert symbol_errors(x, s, QPSK) == 1

    def test_all_wrong_upper_bound(self):
        k = 6
        s = np.full(2 * k, QPSK.levels[0])
        x = np.full(2 * k, QPSK.levels[1])
        assert symbol_errors(x, s, QPSK) == k

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            symbol_errors(np.zeros(4), np.zeros(6), QPSK)
        with pytest.raises(DimensionMismatch):
            symbol_errors(np.zeros(3), np.zeros(3), QPSK)
        with pytest.raises(DimensionMismatch):
            symbol_errors(np.zeros((2, 4)), np.zeros(6), QPSK)
        with pytest.raises(DimensionMismatch):
            symbol_errors(np.zeros((2, 2, 4)), np.zeros(4), QPSK)

    def test_stacked_estimates_count_per_row(self):
        rng = np.random.default_rng(10)
        s = transmit(QAM16, 8, rng)
        rows = s + rng.normal(0.0, 0.3, size=(50, 16))
        counts = symbol_errors(rows, s, QAM16)
        assert counts.shape == (50,)
        assert counts.tolist() == [symbol_errors(r, s, QAM16) for r in rows]
        assert counts.max() > 0


    def test_stacked_references_pair_with_rows(self):
        rng = np.random.default_rng(11)
        refs = np.stack([transmit(QPSK, 4, rng) for _ in range(6)])
        rows = refs + rng.normal(0.0, 0.8, size=refs.shape)
        counts = symbol_errors(rows, refs, QPSK)
        assert counts.tolist() == [symbol_errors(r, s, QPSK) for r, s in zip(rows, refs)]
        with pytest.raises(DimensionMismatch):
            symbol_errors(rows, refs[:3], QPSK)
        with pytest.raises(DimensionMismatch):
            symbol_errors(rows[0], refs, QPSK)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("level", [0, 1, -1], ids=["bottom", "inner", "top"])
    def test_non_finite_coordinate_is_a_wrong_symbol(self, value, level):
        # slicing alone would map nan and +inf to the top level and -inf to
        # the bottom one, and count them right against that level
        s = np.full(4, QAM16.levels[level])
        assert symbol_errors(np.full(4, value), s, QAM16) == 2
        x = s.copy()
        x[3] = value
        assert symbol_errors(x, s, QAM16) == 1
        assert symbol_errors(np.stack([s, x]), s, QAM16).tolist() == [0, 1]

    @pytest.mark.parametrize("name", MODULATIONS)
    def test_edge_values_match_slicing_against_every_level(self, name):
        c = constellation(name)
        values = np.array(edge_values(c))
        x = np.stack([values, values[::-1]], axis=1).ravel()
        for level in c.levels:
            s = np.full(x.shape, level)
            assert symbol_errors(x, s, c) == symbol_errors_by_slicing(x, s, c)
            pairs = x.reshape(-1, 2)
            np.testing.assert_array_equal(
                symbol_errors(pairs, s[:2], c),
                symbol_errors_by_slicing(pairs, s[:2], c))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counting_cases())
    def test_counts_match_slicing_on_finite_values(self, case):
        c, x, s = case
        np.testing.assert_array_equal(symbol_errors(x, s, c),
                                      symbol_errors_by_slicing(x, s, c))


class TestIntervalErrors:
    @pytest.mark.parametrize("seed", range(9))
    def test_stack_matches_a_per_symbol_loop(self, seed):
        # (m, 3, B, 2K) estimates against B references, as a per-iteration
        # sweep counts them; coordinates drawn uniformly, non-finite, or
        # exactly on an end of their interval
        rng = np.random.default_rng(seed)
        c = constellation(MODULATIONS[seed % 3])
        m, b, k = (int(v) for v in rng.integers(1, 5, size=3))
        s = c.levels[rng.integers(0, c.size, size=(b, 2 * k))]
        lower, upper = slicing_interval(s, c)
        shape = (m, 3, b, 2 * k)
        pick = rng.integers(0, 6, size=shape)
        x = np.select([pick == 1, pick == 2, pick == 3, pick == 4, pick == 5],
                      [np.broadcast_to(lower, shape), np.broadcast_to(upper, shape),
                       np.nan, np.inf, -np.inf],
                      rng.uniform(-2.0 * c.a_max, 2.0 * c.a_max, size=shape))
        want = np.empty(shape[:-1], dtype=np.intp)
        for idx in np.ndindex(*shape[:-1]):
            row, lo, hi = x[idx], lower[idx[-1]], upper[idx[-1]]
            want[idx] = sum(not (lo[j] < row[j] <= hi[j] and lo[j + k] < row[j + k] <= hi[j + k])
                            for j in range(k))
        got = interval_errors(x, lower, upper)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)
        for idx in np.ndindex(*shape[:-1]):
            count = symbol_errors(x[idx], s[idx[-1]], c)
            assert type(count) is int and count == want[idx]


class TestInstance:
    def test_construction_identity_is_exact(self):
        seed = trial_seed(21, 0)
        inst = make_instance(ChannelModel("iid"), QAM16, 4, 8, 9.0, seed)
        # replay the draws: y is Hs plus the noise drawn after H and s
        rng = np.random.default_rng(seed)
        H = realify(gen_channel(ChannelModel("iid"), 8, 4, rng))
        s = transmit(QAM16, 4, rng)
        w = rng.normal(0.0, np.sqrt(inst.sigma2 / 2.0), size=16)
        assert np.all(inst.H == H) and np.all(inst.s == s)
        assert np.all(inst.y == H @ s + w)
        assert np.all(np.isin(inst.s, QAM16.levels))
        np.testing.assert_allclose(
            np.linalg.norm(complexify(inst.H), axis=0), 1.0, atol=1e-12)

    def test_trial_seed_mixing(self):
        assert trial_seed(3, 1) == trial_seed(3, 1)
        assert trial_seed(3, 1) != trial_seed(3, 2)
        assert trial_seed(3, 1) != trial_seed(4, 1)
        assert trial_seed(3, 0, 1) != trial_seed(3, 1, 0)
