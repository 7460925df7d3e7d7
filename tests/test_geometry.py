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
    soft_slice,
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

    @pytest.mark.parametrize("name", ["qpsk", "16qam", "64qam"])
    def test_named_constellation_is_shared_and_read_only(self, name):
        c = constellation(name)
        assert constellation(name) is c
        assert constellation(name.upper()) is c
        for a in (c.levels, c.midpoints, c.edges):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

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


class TestShrinkage:
    """The shrinkage inside the slicing prox, seen through its public calls."""

    @properties
    @given(c=alphabets | st.just(THREE), x=points, tau=taus)
    def test_never_moves_farther_from_the_slice(self, c, x, tau):
        # the prox lies between x and its slice, so it never grows the
        # residual, and it keeps the slice's level
        sliced = c.nearest(x)
        got = prox_l1_levels(x, tau, c)
        assert np.all(np.abs(got - sliced) <= np.abs(x - sliced) + 1e-15)
        assert np.all(np.minimum(x, sliced) - 1e-15 <= got)
        assert np.all(got <= np.maximum(x, sliced) + 1e-15)
        assert np.array_equal(c.nearest(got), sliced)

    @properties
    @given(c=alphabets | st.just(THREE), x=any_points, tau=taus)
    @example(c=THREE, x=np.array(SPECIALS + (-1e-300, 1e-300)), tau=0.5)
    def test_a_shrunk_residual_leaves_the_slice_bitwise(self, c, x, tau):
        # the shrinkage returns a zero that carries the residual's sign,
        # -0.0 included; added to the slice it leaves the slice bitwise,
        # also on the level 0.0 (+0.0 either way), so no signed zero shows
        sliced = c.nearest(x)
        with np.errstate(invalid="ignore"):
            within = np.abs(x - sliced) <= tau
        got = soft_slice(x, tau, c)
        assert got[within].tobytes() == sliced[within].tobytes()

    @properties
    @given(c=alphabets | st.just(THREE), x=any_points | points, tau=taus | st.just(np.inf))
    def test_a_given_slice_is_the_slice_it_finds(self, c, x, tau):
        # the edge cases of each alphabet (its midpoints, levels, +-0.0 and
        # +-a_max, and their neighbours) with the drawn points, under the
        # drawn tau and a tau column of 0, a finite tau and inf
        edges = np.r_[c.midpoints, c.levels, 0.0, c.a_max]
        edges = np.r_[edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        x = np.r_[x, edges, -edges]
        for tau_x in (tau, np.array([[0.0], [0.3], [np.inf]])):
            xs = np.broadcast_to(x, np.broadcast_shapes(np.shape(tau_x), x.shape))
            with np.errstate(invalid="ignore"):
                got = soft_slice(xs, tau_x, c, sliced=c.nearest(xs))
                assert got.tobytes() == soft_slice(xs, tau_x, c).tobytes()

    @properties
    @given(c=alphabets, x_tau=paired_taus)
    def test_odd_away_from_the_midpoints(self, c, x_tau):
        # on a symmetric alphabet, -x slices to minus the slice of x except
        # on a midpoint, and the shrinkage is odd; a result that rounds to
        # zero is +0.0 on either side
        x, tau = x_tau
        keep = ~np.isin(np.abs(x), c.midpoints[c.midpoints >= 0]) & ~np.isnan(x)
        got = soft_slice(x[keep], tau[keep], c)
        mirrored = soft_slice(-x[keep], tau[keep], c)
        assert np.array_equal(mirrored, -got)
        assert mirrored[got != 0].tobytes() == (-got[got != 0]).tobytes()

    @properties
    @given(c=alphabets | st.just(THREE), x=points, y=points, tau=taus)
    def test_nonexpansive_within_a_slicing_interval(self, c, x, y, tau):
        # the prox is discontinuous at the midpoints, but on two points of
        # one slicing interval it is the l1 prox about one level
        n = min(x.size, y.size)
        x, y = x[:n], y[:n]
        same = c.nearest_indices(x) == c.nearest_indices(y)
        d = prox_l1_levels(x, tau, c) - prox_l1_levels(y, tau, c)
        assert np.all(np.abs(d[same]) <= np.abs(x - y)[same] + 1e-15)

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
            for call in (lambda: prox_l1_levels(x, tau, QPSK),
                         lambda: perturbation_l1(x, tau, QPSK)):
                with pytest.raises(ConfigError, match="nonnegative"):
                    call()

    def test_infinite_tau_accepted(self):
        x = np.array([0.3, -2.0])
        assert prox_l1_levels(x, np.inf, QPSK).tobytes() == QPSK.nearest(x).tobytes()
        np.testing.assert_array_equal(prox_l1_levels(x, np.array([np.inf, 0.0]), QPSK),
                                      [A1, -2.0])

    @properties
    @given(c=alphabets | st.just(THREE), x_tau=paired_taus)
    @example(c=QPSK, x_tau=(np.array(SPECIALS + (A1, 1.05 * A1, -0.3)),
                            np.array([0.1, 0.0, -0.0, 0.2, 0.0, 0.3, 0.0, 0.1 * A1, -0.0])))
    def test_array_tau_is_the_scalar_call_per_element(self, c, x_tau):
        # tau = +-0.0 elements keep their x bytewise, nan payloads and
        # signed zeros included
        x, tau = x_tau
        ref = [prox_l1_levels(x[i:i + 1], float(t), c) for i, t in enumerate(tau)]
        got = prox_l1_levels(x, tau, c)
        assert got.tobytes() == np.concatenate(ref).tobytes()
        assert got[tau == 0].tobytes() == x[tau == 0].tobytes()
        # a Python float, a numpy scalar, a 0-d array and a full array of one
        # tau give the same bytes, on the drawn points, the specials and the
        # alphabet's midpoints and levels, as does each scalar x alone;
        # tau = 0 gives x itself
        xs = np.r_[x, SPECIALS, c.midpoints, c.levels]
        for t in (0.0, -0.0, 0.05, 2.0):
            forms = (t, np.float64(t), np.array(t), np.full(xs.shape, t))
            outs = {prox_l1_levels(xs, form, c).tobytes() for form in forms}
            outs.add(b"".join(prox_l1_levels(v, t, c).tobytes() for v in xs))
            assert len(outs) == 1
        assert prox_l1_levels(xs, 0.0, c).tobytes() == xs.tobytes()

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
