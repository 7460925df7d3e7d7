import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sapsm.errors import ConfigError
from sapsm.geometry import (
    BoxSet,
    Constellation,
    constellation,
    perturbation_l1,
    perturbation_l2,
    project_box,
    prox_l1_levels,
    soft_threshold,
)

RAW16 = np.array([-3.0, -1.0, 1.0, 3.0])
QPSK = constellation("qpsk")
QAM16 = constellation("16qam")
# the level raw alphabet value 1 maps to after energy scaling
A1 = QPSK.levels[1]
U16 = QAM16.levels[2]

properties = settings(derandomize=True, max_examples=200, deadline=None)
alphabets = st.sampled_from(["qpsk", "16qam", "64qam"]).map(constellation)
points = arrays(np.float64, st.integers(1, 16),
                elements=st.floats(-3.0, 3.0, allow_nan=False))
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan)
# any float, with signed zeros, infinities and nans drawn often
any_points = arrays(np.float64, st.integers(1, 16),
                    elements=st.sampled_from(SPECIALS) | st.floats())
taus = st.just(0.0) | st.floats(0.0, 4.0)


def sign_product_threshold(x, tau):
    """Shrinkage as the product sign(x) * max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


class TestConstellation:
    @pytest.mark.parametrize("name,bits", [("qpsk", 1), ("16qam", 2), ("64qam", 3)])
    def test_unit_energy_and_symmetry(self, name, bits):
        c = constellation(name)
        assert abs(2.0 * np.mean(c.levels**2) - 1.0) <= 1e-12
        assert np.all(np.diff(c.levels) > 0)
        np.testing.assert_allclose(c.levels, -c.levels[::-1], atol=1e-15)
        assert c.a_max == np.max(np.abs(c.levels))
        assert c.bits_per_real_dim == bits

    def test_rejects_bad_alphabets(self):
        with pytest.raises(ConfigError):
            Constellation("bad", np.array([1.0, -1.0]), 1)  # not increasing
        with pytest.raises(ConfigError):
            Constellation("bad", np.array([-1.0, 2.0]) / np.sqrt(5), 1)  # asymmetric
        with pytest.raises(ConfigError):
            Constellation("bad", RAW16, 2)  # unnormalized energy
        with pytest.raises(ConfigError):
            constellation("8psk")

    def test_box_positivity(self):
        with pytest.raises(ConfigError):
            BoxSet(0.0)


class TestProjectBox:
    def test_identity_inside(self):
        box = BoxSet(1.0)
        np.testing.assert_array_equal(project_box(np.array([0.5, -0.2]), box),
                                      [0.5, -0.2])

    def test_clamps_outside(self):
        box = BoxSet(1.0)
        np.testing.assert_array_equal(project_box(np.array([2.0, -3.0]), box),
                                      [1.0, -1.0])

    def test_boundary_fixed_point(self):
        np.testing.assert_array_equal(project_box(np.array([1.0]), BoxSet(1.0)),
                                      [1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        box = BoxSet(0.7)
        x = rng.normal(size=(200, 6)) * 2
        p = project_box(x, box)
        np.testing.assert_array_equal(project_box(p, box), p)

    def test_firmly_nonexpansive(self):
        # ||P(x)-P(y)||^2 <= <P(x)-P(y), x-y> on random pairs
        rng = np.random.default_rng(1)
        box = BoxSet(1.0)
        for _ in range(500):
            x, y = rng.normal(size=(2, 8)) * 3
            dp = project_box(x, box) - project_box(y, box)
            assert dp @ dp <= dp @ (x - y) + 1e-12


class TestSlicing:
    def test_nearest_level(self):
        np.testing.assert_array_equal(QAM16.nearest(np.array([0.2 * U16])), [U16])

    def test_midpoint_ties_to_smaller(self):
        np.testing.assert_array_equal(QAM16.nearest(QAM16.midpoints), QAM16.levels[:-1])
        np.testing.assert_array_equal(QAM16.nearest(np.array([0.0])), [-U16])

    def test_saturates_at_extremes(self):
        np.testing.assert_array_equal(QAM16.nearest(np.array([5.0, -9.0]) * U16),
                                      [QAM16.a_max, -QAM16.a_max])

    @properties
    @given(c=alphabets, x=points)
    def test_constellation_projector_matches_and_is_idempotent(self, c, x):
        p = c.nearest(x)
        np.testing.assert_array_equal(c.nearest(p), p)
        # output is in S, hence in the box
        assert np.all(np.isin(p, c.levels))
        assert np.all(np.abs(p) <= c.a_max)
        # and no level is closer (up to rounding at the midpoints)
        gaps = np.abs(x[:, None] - c.levels[None, :])
        assert np.all(np.abs(x - p) <= gaps.min(axis=1) + 1e-15)

    def test_cached_midpoint_tie_break(self):
        for name in ("qpsk", "16qam", "64qam"):
            c = constellation(name)
            mids = (c.levels[:-1] + c.levels[1:]) / 2.0
            np.testing.assert_array_equal(c.nearest(mids), c.levels[:-1])
            np.testing.assert_array_equal(c.nearest_indices(mids), np.arange(c.size - 1))

    def test_index_form_agrees(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-4, 4, size=500) * U16
        idx = QAM16.nearest_indices(x)
        assert np.all((idx >= 0) & (idx < QAM16.size))
        np.testing.assert_array_equal(QAM16.levels[idx], QAM16.nearest(x))


class TestSoftThreshold:
    def test_below_threshold_zeroes(self):
        np.testing.assert_array_equal(soft_threshold(np.array([0.3]), 0.5), [0.0])

    def test_shrinks_magnitude(self):
        np.testing.assert_array_equal(soft_threshold(np.array([-2.0]), 0.5), [-1.5])

    def test_zero_tau_identity(self):
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            soft_threshold(np.array([1.0]), -0.1)

    def test_never_grows_max_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=10) * 3
            tau = rng.uniform(0, 1)
            assert np.max(np.abs(soft_threshold(x, tau))) <= np.max(np.abs(x)) + 1e-15

    @properties
    @given(x=any_points, tau=taus)
    @example(x=np.array(SPECIALS + (-1e-300, 1e-300, -0.5, 2.0)), tau=0.0)
    @example(x=np.array(SPECIALS + (-0.25, 0.25, -3.0)), tau=0.5)
    def test_copysign_form_is_the_sign_product(self, x, tau):
        # byte-equal wherever the result is a number and x is not -0.0.
        # np.sign(-0.0) is +0.0, so the product drops the sign there, while
        # copysign keeps it and the shrinkage stays odd. A nan result keeps
        # the sign of x; the product's nan takes the sign of whichever
        # operand numpy's multiply loop puts first.
        got, ref = soft_threshold(x, tau), sign_product_threshold(x, tau)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        assert np.array_equal(np.isnan(ref), np.isnan(x))
        same = ~np.isnan(x) & ~((x == 0.0) & np.signbit(x))
        assert got[same].tobytes() == ref[same].tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(x))
        assert soft_threshold(-x, tau).tobytes() == (-got).tobytes()

    @properties
    @given(c=alphabets, x=any_points, tau=taus)
    @example(c=QAM16, x=np.array(SPECIALS + (U16, -U16, 0.0)), tau=0.0)
    @example(c=QPSK, x=np.array(SPECIALS + (A1, -A1, 1.05 * A1)), tau=0.1 * A1)
    def test_prox_is_unchanged_by_the_form(self, c, x, tau):
        # the prox shrinks x - P_S(x), which is never -0.0 (no level is
        # zero), so every number it returns is byte-equal under either form
        sliced = c.nearest(x)
        ref = x.copy() if tau == 0 else sign_product_threshold(x - sliced, tau) + sliced
        got = prox_l1_levels(x, tau, c)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert got[~np.isnan(got)].tobytes() == ref[~np.isnan(ref)].tobytes()

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            x, y = rng.normal(size=(2, 8)) * 2
            tau = rng.uniform(0, 1)
            d = soft_threshold(x, tau) - soft_threshold(y, tau)
            assert np.linalg.norm(d) <= np.linalg.norm(x - y) + 1e-12


class TestProx:
    def test_residual_shrinks(self):
        np.testing.assert_allclose(prox_l1_levels(np.array([1.3 * A1]), 0.1 * A1, QPSK),
                                   [1.2 * A1], atol=1e-15)

    def test_residual_absorbed(self):
        np.testing.assert_array_equal(
            prox_l1_levels(np.array([1.05 * A1]), 0.1 * A1, QPSK), [A1])

    @properties
    @given(c=alphabets, x=points)
    def test_zero_tau_is_exact_identity(self, c, x):
        np.testing.assert_array_equal(prox_l1_levels(x, 0.0, c), x)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            prox_l1_levels(np.array([0.3]), -0.1, QPSK)

    def test_matches_grid_search_argmin(self):
        # objective u -> tau*|u - P_S(u)| + (x-u)^2/2 over a dense grid
        rng = np.random.default_rng(6)
        grid = np.arange(-3.0, 3.0 + 5e-5, 1e-4)
        f1 = np.abs(grid - QPSK.nearest(grid))
        for _ in range(300):
            x = rng.uniform(-2, 2)
            tau = rng.uniform(0, 0.5)
            p = prox_l1_levels(np.array([x]), tau, QPSK)[0]
            ours = tau * abs(p - QPSK.nearest(p)) + 0.5 * (x - p) ** 2
            best = np.min(tau * f1 + 0.5 * (x - grid) ** 2)
            assert ours - best <= 1e-6

    @properties
    @given(c=alphabets, x=points, extra=st.floats(0.0, 1.0))
    def test_absorbs_to_slice_when_tau_dominates(self, c, x, extra):
        sliced = c.nearest(x)
        tau = float(np.max(np.abs(x - sliced))) + extra
        np.testing.assert_array_equal(prox_l1_levels(x, tau, c), sliced)


class TestPerturbations:
    def test_l2_zero_on_lattice(self):
        c = constellation("16qam")
        x = c.levels[np.array([0, 3, 1, 2])]
        np.testing.assert_array_equal(perturbation_l2(x, c), np.zeros(4))

    def test_l2_direct_value(self):
        v = perturbation_l2(np.array([0.2 * A1]), QPSK)
        np.testing.assert_allclose(v, [0.8 * A1], atol=1e-15)

    def test_l1_zero_tau(self):
        c = constellation("16qam")
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=16)
        np.testing.assert_array_equal(perturbation_l1(x, 0.0, c), np.zeros(16))

    def test_l1_direct_value(self):
        v = perturbation_l1(np.array([1.3 * A1]), 0.1 * A1, QPSK)
        np.testing.assert_allclose(v, [-0.1 * A1], atol=1e-15)

    def test_x_plus_l2_lands_on_lattice(self):
        c = constellation("64qam")
        rng = np.random.default_rng(9)
        x = rng.uniform(-c.a_max, c.a_max, size=(100, 8))
        landed = x + perturbation_l2(x, c)
        assert np.all(np.isin(landed, c.levels))

    def test_boundedness_inside_box(self):
        # ||v_l2|| <= 2c and ||v_l1|| <= 4c with c = max ||u|| over the box
        c = constellation("16qam")
        dim = 8
        bound = c.a_max * np.sqrt(dim)
        rng = np.random.default_rng(10)
        x = rng.uniform(-c.a_max, c.a_max, size=(10_000, dim))
        v2 = perturbation_l2(x, c)
        assert np.all(np.linalg.norm(v2, axis=1) <= 2 * bound + 1e-12)
        for tau in (0.005, 0.2):
            v1 = perturbation_l1(x, tau, c)
            assert np.all(np.linalg.norm(v1, axis=1) <= 4 * bound + 1e-12)
