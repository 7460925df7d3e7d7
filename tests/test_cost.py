import numpy as np
import pytest

from sapsm.cost import (
    RHO_MAX,
    ApsmConfig,
    BetaSchedule,
    QuadraticResidualCost,
    RhoSchedule,
    apsm_map,
    rho_at,
    schedule_table,
    stack_costs,
    standard_config,
    sublevel_step,
)
from sapsm.errors import ConfigError, DimensionMismatch
from sapsm.geometry import BoxSet

I2 = np.eye(2)
WIDE = BoxSet(1e9)


def step(cost, x, rho):
    """The engine's step on a stack of one: (next iterate, residual, theta)."""
    x = np.asarray(x, dtype=float)[None]
    return tuple(a[0] for a in sublevel_step(*stack_costs([cost]), x, rho, 1.0, WIDE))


def theta(cost, x, rho):
    """Cost value (||Hx - y||^2 - rho)_+ as the engine's step computes it."""
    return step(cost, x, rho)[2]


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
        _, resid, theta_val = step(cost, np.array([3.0, 4.0]), 5.0)
        assert resid == pytest.approx(25.0, abs=1e-12)
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


class TestRhoSchedule:
    def test_reference_values(self):
        sched = RhoSchedule(5e-5, 1.06)
        assert rho_at(sched, 0) == 5e-5
        assert rho_at(sched, 2) == pytest.approx(5.618e-5, rel=1e-12)

    def test_constant_growth(self):
        assert rho_at(RhoSchedule(5e-5, 1.0), 17) == 5e-5

    def test_nondecreasing(self):
        sched = RhoSchedule(1e-4, 1.06)
        vals = [rho_at(sched, n) for n in range(0, 2000, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_saturates_without_overflow(self):
        sched = RhoSchedule(5e-5, 1.06)
        assert rho_at(sched, 10**6) == RHO_MAX
        assert np.isfinite(rho_at(sched, 10**9))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RhoSchedule(0.0, 1.06)
        with pytest.raises(ConfigError):
            RhoSchedule(1e-4, 0.99)
        with pytest.raises(ConfigError):
            rho_at(RhoSchedule(1e-4), -1)
        with pytest.raises(ConfigError):
            RhoSchedule(2 * RHO_MAX, 1.06)


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
        at = (lambda n: rho_at(schedule, n)) if isinstance(schedule, RhoSchedule) else schedule.at
        table = schedule_table(schedule, 300)
        assert table.dtype == np.float64 and table.shape == (300,)
        assert table.tobytes() == np.array([at(n) for n in range(300)]).tobytes()
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

    def test_series_sum(self):
        assert BetaSchedule.geometric(0.9).series_sum(10) == pytest.approx(10.0)
        assert BetaSchedule.constant(0.5).series_sum(10) == pytest.approx(5.0)
        assert BetaSchedule.none().series_sum(10) == 0.0

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
