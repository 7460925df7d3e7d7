from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sapsm.cost
from sapsm.cost import (
    MU,
    RHO_MAX,
    ApsmConfig,
    BetaSchedule,
    QuadraticResidualCost,
    RhoSchedule,
    apsm_map,
    normal_equations,
    schedule_table,
    stack_costs,
    standard_config,
    sublevel_step,
)
from sapsm.errors import ConfigError, DimensionMismatch
from sapsm.geometry import BoxSet, project_box

I2 = np.eye(2)
WIDE = BoxSet(1e9)


def step(cost, x, rho):
    """The engine's step on a stack of one: (next iterate, theta)."""
    x = np.asarray(x, dtype=float)[None]
    return tuple(a[0] for a in sublevel_step(*stack_costs([cost]), x, rho, 1.0, WIDE))


def theta(cost, x, rho):
    """Cost value (||Hx - y||^2 - rho)_+ as the engine's step computes it."""
    return step(cost, x, rho)[1]


def subgradient(cost, x):
    return cost.gradient(np.asarray(x, dtype=float))


def random_cost(rng, n2=8, k2=4):
    H = rng.standard_normal((n2, k2))
    y = rng.standard_normal(n2)
    return QuadraticResidualCost(H, y)


class TestTheta:
    def test_zero_residual(self):
        cost = QuadraticResidualCost(I2, np.array([1.0, 0.0]))
        assert theta(cost, np.array([1.0, 0.0]), 0.0) == 0.0

    def test_direct_value(self):
        cost = QuadraticResidualCost(I2, np.zeros(2))
        x = np.array([3.0, 4.0])
        _, theta_val = step(cost, x, 5.0)
        assert cost.residual_sq(x) == pytest.approx(25.0, abs=1e-12)
        assert theta_val == pytest.approx(20.0, abs=1e-12)

    def test_clips_to_zero_below_rho(self):
        rng = np.random.default_rng(0)
        cost = random_cost(rng)
        for _ in range(50):
            x = rng.standard_normal(4)
            resid = cost.residual_sq(x)
            assert theta(cost, x, resid * 1.5 + 1e-9) == 0.0

    def test_dimension_mismatch(self):
        cost = QuadraticResidualCost(I2, np.zeros(2))
        with pytest.raises(DimensionMismatch):
            cost.residual_sq(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            apsm_map(cost, np.zeros(3), 0.0, 0.7, BoxSet(1.0))
        with pytest.raises(DimensionMismatch):
            QuadraticResidualCost(I2, np.zeros(3))

    def test_negative_rho_rejected(self):
        cost = QuadraticResidualCost(I2, np.zeros(2))
        with pytest.raises(ConfigError):
            apsm_map(cost, np.zeros(2), -1.0, 0.7, BoxSet(1.0))

    def test_convex_along_segments(self):
        rng = np.random.default_rng(2)
        cost = random_cost(rng)
        for _ in range(200):
            a, b = rng.standard_normal((2, 4)) * 2
            lam = rng.uniform()
            rho = rng.uniform(0, 5)
            mid = theta(cost, lam * a + (1 - lam) * b, rho)
            assert mid <= lam * theta(cost, a, rho) + (1 - lam) * theta(cost, b, rho) + 1e-9


class TestSubgradient:
    def test_zero_at_solution(self):
        cost = QuadraticResidualCost(I2, np.array([1.0, -2.0]))
        np.testing.assert_allclose(subgradient(cost, np.array([1.0, -2.0])),
                                   np.zeros(2), atol=1e-14)

    def test_direct_value(self):
        cost = QuadraticResidualCost(I2, np.zeros(2))
        np.testing.assert_allclose(subgradient(cost, np.array([1.0, -1.0])),
                                   [2.0, -2.0], atol=1e-14)

    def test_matches_central_differences(self):
        # the raw residual is quadratic, so central differences are exact
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(20):
            cost = random_cost(rng)
            x = rng.standard_normal(4)
            g = subgradient(cost, x)
            fd = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd[i] = (cost.residual_sq(x + e) - cost.residual_sq(x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * (1 + np.linalg.norm(g))

    def test_subgradient_inequality(self):
        # theta(y) >= theta(x) + <y-x, g(x)> wherever theta(x) > 0
        rng = np.random.default_rng(4)
        cost = random_cost(rng)
        checked = 0
        for _ in range(500):
            x, y = rng.standard_normal((2, 4)) * 2
            rho = rng.uniform(0, 2)
            tx = theta(cost, x, rho)
            if tx <= 0:
                continue
            checked += 1
            g = subgradient(cost, x)
            assert theta(cost, y, rho) >= tx + (y - x) @ g - 1e-9
        assert checked > 100


class TestApsmMap:
    def test_fixed_point_when_feasible(self):
        cost = QuadraticResidualCost(I2, np.array([0.1, -0.1]))
        box = BoxSet(1.0)
        x = np.array([0.1, -0.1])
        np.testing.assert_array_equal(apsm_map(cost, x, 0.0, 0.7, box), x)

    def test_worked_example(self):
        # H=I, y=0, x=(2,0), rho=0, mu=1: step lands at (1,0), inside a_max=3
        cost = QuadraticResidualCost(I2, np.zeros(2))
        out = apsm_map(cost, np.array([2.0, 0.0]), 0.0, 1.0, BoxSet(3.0))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-14)

    def test_output_inside_box(self):
        rng = np.random.default_rng(5)
        box = BoxSet(0.8)
        for _ in range(200):
            cost = random_cost(rng)
            x = rng.standard_normal(4) * 3
            out = apsm_map(cost, x, rng.uniform(0, 1), rng.uniform(0.1, 1.9), box)
            assert np.all(np.abs(out) <= box.a_max)

    def test_mu_range_enforced(self):
        cost = QuadraticResidualCost(I2, np.zeros(2))
        with pytest.raises(ConfigError):
            apsm_map(cost, np.zeros(2), 0.0, 2.0, BoxSet(1.0))

    def test_step_never_increases_distance_to_feasible(self):
        # quasi-nonexpansivity toward any z in the box with residual <= rho
        rng = np.random.default_rng(6)
        box = BoxSet(1.0)
        for _ in range(1000):
            k2 = 2 * int(rng.integers(2, 5))
            H = rng.standard_normal((2 * k2, k2))
            z = rng.uniform(-1, 1, size=k2)
            y = H @ z + 0.1 * rng.standard_normal(2 * k2)
            cost = QuadraticResidualCost(H, y)
            rho = cost.residual_sq(z) * (1 + rng.uniform())
            x = rng.uniform(-1, 1, size=k2)
            tx = apsm_map(cost, x, rho, rng.uniform(0.1, 1.9), box)
            assert np.linalg.norm(tx - z) <= np.linalg.norm(x - z) + 1e-9


# row kinds of a stacked step, by which rows step: a "step" row has theta > 0
# and a gradient, a "feasible" row theta = 0, a "flat" row (H = 0) theta > 0
# and a vanishing gradient
STEPPING = {"none": ("feasible", "flat"), "all": ("step",),
            "some": ("step", "feasible", "flat")}


@st.composite
def step_stacks(draw):
    """A (B, d) stack for ``sublevel_step`` whose rows step as ``STEPPING``
    says: start points with entries outside the box and -0.0 entries, rho
    and mu each a scalar or one value per row. Returns (costs, z, rho, mu,
    box, row kinds)."""
    stepping = draw(st.sampled_from(sorted(STEPPING)))
    kinds = STEPPING[stepping]
    size = draw(st.integers(len(kinds), 9))
    dim = draw(st.sampled_from([2, 4, 8, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [kinds[i] for i in rng.permutation(np.arange(size) % len(kinds))]
    box = BoxSet(draw(st.sampled_from([1.0, 3.0])))
    z = rng.uniform(-3.0, 3.0, (size, dim)) * box.a_max
    z[rng.random(z.shape) < 0.3] = -0.0
    rho = rng.uniform(0.5, 2.0, size)
    mu = rng.uniform(0.05, 1.95, size)
    if draw(st.booleans()):
        rho = float(rho[0])
    if draw(st.booleans()):
        mu = float(mu[0])
    costs = []
    for kind, zi, rho_i in zip(rows, z, np.broadcast_to(rho, size)):
        H = rng.standard_normal((2 * dim, dim))
        if kind == "flat":
            H[:] = 0.0
        y = rng.standard_normal(2 * dim)
        # scale (H, y) so that the residual at z is a set multiple of rho
        ratio = rng.uniform(0.1, 0.9) if kind == "feasible" else rng.uniform(1.1, 10.0)
        target = rho_i * ratio
        scale = np.sqrt(target / np.sum((H @ zi - y) ** 2))
        costs.append(QuadraticResidualCost(scale * H, scale * y))
    return costs, z, rho, mu, box, rows


class TestStackedStep:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(step_stacks())
    def test_each_row_is_apsm_map_of_that_row_alone(self, stack):
        costs, z, rho, mu, box, rows = stack
        start = z.copy()
        out, theta = sublevel_step(*stack_costs(costs), z, rho, mu, box)
        assert z.tobytes() == start.tobytes()
        size = len(costs)
        for i, (cost, rho_i, mu_i) in enumerate(zip(costs, np.broadcast_to(rho, size),
                                                     np.broadcast_to(mu, size))):
            alone = apsm_map(cost, z[i], float(rho_i), float(mu_i), box)
            assert out[i].tobytes() == alone.tobytes()
            assert (theta[i] > 0.0) == (rows[i] != "feasible")
            if rows[i] != "step":
                assert out[i].tobytes() == project_box(z[i], box).tobytes()


@st.composite
def guarded_stacks(draw):
    """A ``step_stacks`` stack, maybe with a row at its least-squares point
    (theta > 0 and a gradient at rounding level) and a nan row appended,
    and a bound on its |z|: exactly tight, loose or inf. Returns (costs, z,
    rho, mu, box, z_bound)."""
    costs, z, rho, mu, box, _ = draw(step_stacks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = z.shape[1]
    extra = []
    if draw(st.booleans()):
        cost = QuadraticResidualCost(rng.standard_normal((2 * dim, dim)),
                                     10.0 * rng.standard_normal(2 * dim))
        extra.append((cost, np.linalg.solve(cost.gram, cost.hty)))
    if draw(st.booleans()):
        extra.append((costs[0], np.full(dim, np.nan)))
    costs = costs + [cost for cost, _ in extra]
    z = np.vstack([z, *(zi for _, zi in extra)])
    rho, mu = (v if np.ndim(v) == 0 else np.r_[v, np.full(len(extra), v[0])]
               for v in (rho, mu))
    tight = float(np.nanmax(np.abs(z)))
    z_bound = draw(st.sampled_from([tight, 2.0 * tight, np.inf]))
    return costs, z, rho, mu, box, z_bound


def full_tests(monkeypatch):
    """The calls of the full gradient test that ``sublevel_step`` makes."""
    calls = []
    full = sapsm.cost._gradient_test

    def counted(*args):
        calls.append(None)
        return full(*args)

    monkeypatch.setattr(sapsm.cost, "_gradient_test", counted)
    return calls


class TestGradientGuard:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(guarded_stacks())
    def test_a_bound_on_z_leaves_the_step_bitwise(self, stack):
        costs, z, rho, mu, box, z_bound = stack
        stacks = stack_costs(costs)
        guarded = sublevel_step(*stacks, z, rho, mu, box, z_bound)
        full = sublevel_step(*stacks, z, rho, mu, box)
        for a, b in zip(guarded, full):
            assert a.tobytes() == b.tobytes()

    def test_the_full_test_runs_only_when_a_gradient_may_fail_it(self, monkeypatch):
        calls = full_tests(monkeypatch)
        rng = np.random.default_rng(3)
        costs = [random_cost(rng) for _ in range(3)]
        z = rng.uniform(-1.0, 1.0, (3, 4))
        tight = float(np.abs(z).max())
        stacks = stack_costs(costs)
        ref = sublevel_step(*stacks, z, 0.1, MU, BoxSet(1.0))
        assert len(calls) == 1 and np.all(ref[1] > 0.0)
        # every row steps with a gradient far above the floor: no full test
        # at the exactly tight bound, the full one at inf and nan
        for z_bound, runs in ((tight, 0), (np.inf, 1), (np.nan, 1)):
            calls.clear()
            got = sublevel_step(*stacks, z, 0.1, MU, BoxSet(1.0), z_bound)
            assert len(calls) == runs
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        # a row at its least-squares point has theta > 0 and a gradient at
        # rounding level: the full test runs and that row keeps its z; a
        # nan row takes the full test too
        ls = np.linalg.solve(costs[0].gram, costs[0].hty)
        for row in (ls, np.full(4, np.nan)):
            zr = np.vstack([z, row])
            stacks = stack_costs(costs + costs[:1])
            bound = max(tight, float(np.nanmax(np.abs(ls))))
            calls.clear()
            got = sublevel_step(*stacks, zr, 0.1, MU, WIDE, bound)
            assert len(calls) == 1
            full = sublevel_step(*stacks, zr, 0.1, MU, WIDE)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, full))
            assert got[0][-1].tobytes() == zr[-1].tobytes()
        # the least-squares row kept its z with theta > 0: the full test dropped it
        assert step(costs[0], ls, 0.1)[1] > 0.0


class TestNormalEquations:
    @pytest.mark.parametrize("size,m,d", [(1, 4, 2), (7, 8, 4), (5, 64, 32)])
    def test_each_row_of_a_stack_is_the_problem_alone(self, size, m, d):
        rng = np.random.default_rng(size + d)
        H = rng.standard_normal((size, m, d))
        y = rng.standard_normal((size, m))
        gram, hty, yty = normal_equations(H, y)
        for i in range(size):
            cost = QuadraticResidualCost(H[i], y[i])
            assert gram[i].tobytes() == (H[i].T @ H[i]).tobytes() == cost.gram.tobytes()
            assert hty[i].tobytes() == (H[i].T @ y[i]).tobytes() == cost.hty.tobytes()
            assert yty[i] == y[i] @ y[i] == cost.yty


class TestRhoSchedule:
    def test_reference_values(self):
        sched = RhoSchedule(5e-5, 1.06)
        assert sched.at(0) == 5e-5
        assert sched.at(2) == pytest.approx(5.618e-5, rel=1e-12)

    def test_constant_growth(self):
        assert RhoSchedule(5e-5, 1.0).at(17) == 5e-5

    def test_nondecreasing(self):
        sched = RhoSchedule(1e-4, 1.06)
        vals = [sched.at(n) for n in range(0, 2000, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_saturates_without_overflow(self):
        sched = RhoSchedule(5e-5, 1.06)
        assert sched.at(10**6) == RHO_MAX
        assert np.isfinite(sched.at(10**9))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RhoSchedule(0.0, 1.06)
        with pytest.raises(ConfigError):
            RhoSchedule(1e-4, 0.99)
        with pytest.raises(ConfigError):
            RhoSchedule(1e-4).at(-1)
        with pytest.raises(ConfigError):
            RhoSchedule(2 * RHO_MAX, 1.06)
        # an infinite growth would saturate at once, a nan one never
        for growth in (np.inf, np.nan):
            with pytest.raises(ConfigError, match="growth"):
                RhoSchedule(5e-5, growth)


class TestSchedulesAndConfig:
    def test_beta_kinds(self):
        geo = BetaSchedule.geometric(0.9)
        assert geo.at(0) == 1.0 and geo.at(2) == pytest.approx(0.81)
        assert geo.summable
        const = BetaSchedule.constant(0.9999)
        assert const.at(123) == 0.9999
        assert not const.summable
        assert BetaSchedule.constant(0.0).summable
        none = BetaSchedule.none()
        assert none.at(5) == 0.0 and none.summable

    @pytest.mark.parametrize("schedule", [
        RhoSchedule(5e-5, 1.06), RhoSchedule(1e11, 1.5), RhoSchedule(1e-3),
        BetaSchedule.geometric(0.9), BetaSchedule.geometric(1e-160),
        BetaSchedule.constant(0.9999), BetaSchedule.none()])
    def test_table_is_the_schedule(self, schedule):
        table = schedule_table(schedule, 300)
        assert table.dtype == np.float64 and table.shape == (300,)
        assert table.tobytes() == np.array([schedule.at(n) for n in range(300)]).tobytes()
        # runs share the table, so it cannot be written
        assert not table.flags.writeable
        assert schedule_table(schedule, 300) is table

    def test_beta_validation(self):
        with pytest.raises(ConfigError):
            BetaSchedule.geometric(1.0)
        with pytest.raises(ConfigError):
            BetaSchedule.constant(-0.1)
        with pytest.raises(ConfigError):
            BetaSchedule("weird", 1.0)
        for value in (np.inf, np.nan):
            with pytest.raises(ConfigError):
                BetaSchedule.constant(value)
            with pytest.raises(ConfigError):
                BetaSchedule.geometric(value)

    @pytest.mark.parametrize("value", [5.0, 1e-300, -0.0, -1.0, np.nan, np.inf])
    def test_zero_schedule_holds_zero(self, value):
        # a "none" holding any other value would hash apart from
        # BetaSchedule.none() and run as a separate engine group
        with pytest.raises(ConfigError, match="none"):
            BetaSchedule("none", value)
        assert BetaSchedule("none") == BetaSchedule("none", 0.0) == BetaSchedule.none()

    def test_zero_schedule_config_hash_is_stable(self):
        l2_zero = replace(standard_config("l2"), beta=BetaSchedule.none())
        assert l2_zero.config_hash() == "1744b24bfd5a"

    def test_mu_window(self):
        rho = RhoSchedule(5e-5, 1.06)
        ApsmConfig(rho=rho, mu=0.7)
        ApsmConfig(rho=rho, mu=0.05)  # both window edges are admitted
        ApsmConfig(rho=rho, mu=1.95)
        with pytest.raises(ConfigError):
            ApsmConfig(rho=rho, mu=1.99)
        with pytest.raises(ConfigError):
            ApsmConfig(rho=rho, mu=0.01)

    def test_settings_a_variant_does_not_read_rejected(self):
        rho = RhoSchedule(5e-5, 1.06)
        for beta in (BetaSchedule.constant(0.5), BetaSchedule.geometric(0.9),
                     BetaSchedule.constant(0.0)):
            with pytest.raises(ConfigError):
                ApsmConfig(rho=rho, variant="plain", beta=beta)
        with pytest.raises(ConfigError):
            ApsmConfig(rho=rho, variant="plain", tau=0.1)
        with pytest.raises(ConfigError):
            ApsmConfig(rho=rho, variant="l2", tau=0.1)
        ApsmConfig(rho=rho, variant="l2", beta=BetaSchedule.none())
        ApsmConfig(rho=rho, variant="l1", tau=0.1)
        for tau in (-0.1, np.inf, np.nan):
            with pytest.raises(ConfigError, match="tau"):
                ApsmConfig(rho=rho, variant="l1", tau=tau)

    def test_standard_configs(self):
        plain = standard_config("plain")
        l2 = standard_config("l2")
        l1 = standard_config("l1")
        assert plain.rho.rho0 == 5e-5 and plain.rho.growth == 1.06
        assert plain.mu == 0.7
        assert l2.beta == BetaSchedule.geometric(0.9)
        assert l1.beta == BetaSchedule.constant(0.9999)
        assert l1.tau == 0.005
        assert not l1.beta.summable

    def test_config_hash_distinguishes(self):
        a = standard_config("plain")
        b = standard_config("l2")
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == standard_config("plain").config_hash()

    def test_config_hashes_are_stable(self):
        hashes = {v: standard_config(v, max_iters=300).config_hash()
                  for v in ("plain", "l2", "l1")}
        assert hashes == {"plain": "89e6f260a0ea", "l2": "5c914541f7f5",
                          "l1": "5ecee2bf0b53"}
