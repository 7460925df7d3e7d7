import numpy as np
import pytest

from sapsm.errors import ConfigError, DimensionMismatch
from sapsm.geometry import constellation
from sapsm.mimo import (
    ChannelModel,
    add_noise,
    complexify,
    complexify_vector,
    gen_channel,
    make_instance,
    realify,
    snr_to_sigma2,
    symbol_errors,
    transmit,
    trial_seed,
)

QPSK = constellation("qpsk")
QAM16 = constellation("16qam")


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
        w, y = add_noise(hs, 0.0, np.random.default_rng(5))
        np.testing.assert_array_equal(w, np.zeros(2))
        np.testing.assert_array_equal(y, hs)

    def test_moments(self):
        rng = np.random.default_rng(6)
        sigma2 = 0.37
        w, _ = add_noise(np.zeros(1_000_000), sigma2, rng)
        var = sigma2 / 2.0
        # sample variance concentrates within 3 sigma
        assert abs(w.var() - var) <= 3 * var * np.sqrt(2 / w.size)
        assert abs(w @ w / (w.size / 2) - sigma2) <= 0.01 * sigma2

    def test_energy_identity(self):
        # E||w||^2 = N sigma2 over 2N coordinates
        rng = np.random.default_rng(7)
        n2, sigma2, runs = 64, 0.2, 2000
        total = sum(float(w @ w) for w, _ in
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

    def test_monte_carlo_ratio(self):
        snr_db = 6.0
        k, n = 4, 8
        sig_pow, noise_pow = 0.0, 0.0
        for t in range(10_000):
            rng = np.random.default_rng(trial_seed(13, t))
            H = realify(gen_channel(ChannelModel("iid"), n, k, rng))
            s = transmit(QAM16, k, rng)
            w, _ = add_noise(H @ s, snr_to_sigma2(snr_db, n, k), rng)
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


class TestInstance:
    def test_construction_identity_is_exact(self):
        inst = make_instance(ChannelModel("iid"), QAM16, 4, 8, 9.0, trial_seed(21, 0))
        residual = inst.y - inst.H @ inst.s - inst.w
        assert np.all(residual == 0.0)
        assert np.all(np.isin(inst.s, QAM16.levels))
        np.testing.assert_allclose(
            np.linalg.norm(complexify(inst.H), axis=0), 1.0, atol=1e-12)

    def test_trial_seed_mixing(self):
        assert trial_seed(3, 1) == trial_seed(3, 1)
        assert trial_seed(3, 1) != trial_seed(3, 2)
        assert trial_seed(3, 1) != trial_seed(4, 1)
        assert trial_seed(3, 0, 1) != trial_seed(3, 1, 0)
