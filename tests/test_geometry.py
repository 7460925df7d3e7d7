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

from helpers import hard_slicing_perturbation

RAW16 = np.array([-3.0, -1.0, 1.0, 3.0])
QPSK = constellation("qpsk")
QAM16 = constellation("16qam")
# an odd alphabet, whose middle level 0.0 slices to signed zeros
THREE = Constellation(np.array([-0.75**0.5, 0.0, 0.75**0.5]))
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
# any points with one tau each, signed zeros drawn often
paired_taus = any_points.flatmap(lambda x: st.tuples(st.just(x), arrays(
    np.float64, x.shape, elements=st.sampled_from([0.0, -0.0]) | taus)))


def sign_product_threshold(x, tau):
    """Shrinkage as the product sign(x) * max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


class TestConstellation:
    @pytest.mark.parametrize("name", ["qpsk", "16qam", "64qam"])
    def test_unit_energy_and_symmetry(self, name):
        c = constellation(name)
        assert abs(2.0 * np.mean(c.levels**2) - 1.0) <= 1e-12
        assert np.all(np.diff(c.levels) > 0)
        np.testing.assert_allclose(c.levels, -c.levels[::-1], atol=1e-15)
        assert c.a_max == np.max(np.abs(c.levels))

    def test_rejects_bad_alphabets(self):
        with pytest.raises(ConfigError):
            Constellation(np.array([1.0, -1.0]))  # not increasing
        with pytest.raises(ConfigError):
            Constellation(np.array([-1.0, 2.0]) / np.sqrt(5))  # asymmetric
        with pytest.raises(ConfigError):
            Constellation(RAW16)  # unnormalized energy
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

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_tau_that_is_not_nonnegative_rejected(self, bad):
        x = np.array([0.3, 0.4])
        for tau in (bad, np.float64(bad), np.array([0.1, bad]), np.array(bad)):
            for call in (lambda: soft_threshold(x, tau), lambda: prox_l1_levels(x, tau, QPSK),
                         lambda: perturbation_l1(x, tau, QPSK)):
                with pytest.raises(ConfigError, match="nonnegative"):
                    call()

    def test_infinite_tau_accepted(self):
        x = np.array([0.3, -2.0])
        assert soft_threshold(x, np.inf).tobytes() == np.array([0.0, -0.0]).tobytes()
        np.testing.assert_array_equal(prox_l1_levels(x, np.array([np.inf, 0.0]), QPSK),
                                      [A1, -2.0])

    @properties
    @given(c=alphabets, x_tau=paired_taus)
    @example(c=QPSK, x_tau=(np.array(SPECIALS + (A1, 1.05 * A1, -0.3)),
                            np.array([0.1, 0.0, -0.0, 0.2, 0.0, 0.3, 0.0, 0.1 * A1, -0.0])))
    def test_array_tau_is_the_scalar_call_per_element(self, c, x_tau):
        # tau = +-0.0 elements keep their x, as the scalar identity branch
        # does, nan payloads and signed zeros included
        x, tau = x_tau
        ref = [prox_l1_levels(x[i:i + 1], float(t), c) for i, t in enumerate(tau)]
        assert prox_l1_levels(x, tau, c).tobytes() == np.concatenate(ref).tobytes()
        ref = [soft_threshold(x[i:i + 1], float(t)) for i, t in enumerate(tau)]
        assert soft_threshold(x, tau).tobytes() == np.concatenate(ref).tobytes()

    @properties
    @given(c=alphabets, x=points, extra=st.floats(0.0, 1.0))
    def test_absorbs_to_slice_when_tau_dominates(self, c, x, extra):
        sliced = c.nearest(x)
        tau = float(np.max(np.abs(x - sliced))) + extra
        np.testing.assert_array_equal(prox_l1_levels(x, tau, c), sliced)


class TestPerturbations:
    @properties
    @given(c=st.sampled_from([QPSK, QAM16, constellation("64qam"), THREE]), data=st.data())
    def test_l2_is_the_plain_difference(self, c, data):
        # tau = inf shrinks the residual to a signed zero, which adds to the
        # slice exactly, also to a 0.0 level
        edges = (c.midpoints, c.levels, [c.a_max, -c.a_max, 0.0, -0.0, np.nan])
        special = st.sampled_from(np.concatenate(edges).tolist())
        floats = st.floats(-3.0, 3.0) | st.floats(allow_infinity=False)
        x = data.draw(arrays(np.float64, st.integers(1, 16), elements=special | floats))
        got, ref = perturbation_l2(x, c), hard_slicing_perturbation(x, c)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        keep = ~np.isnan(ref)
        assert got[keep].tobytes() == ref[keep].tobytes()

    def test_l2_of_an_infinite_coordinate_is_nan(self):
        # the reference gives -+inf there, and inf - inf warns as numpy
        # does; both are outside every box
        x = np.array([np.inf, -np.inf, 0.2 * A1])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            got = perturbation_l2(x, QPSK)
        assert np.isnan(got[:2]).all() and got[2] == hard_slicing_perturbation(x, QPSK)[2]
        assert np.array_equal(hard_slicing_perturbation(x, QPSK)[:2], [-np.inf, np.inf])

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
