from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sapsm.apsm as apsm
import sapsm.validation as validation
from sapsm.apsm import TRACE_COLUMNS, AuditResult
from sapsm.cost import MU, VARIANTS, QuadraticResidualCost, apsm_map
from sapsm.errors import ConfigError
from sapsm.geometry import BoxSet, constellation, prox_l1_levels
from sapsm.validation import (
    GRID_HI,
    GRID_LO,
    GRID_STEP,
    PROX_ALPHABETS,
    SuiteResult,
    _grid_bound,
    _grid_min,
    _audited_runs,
    _RunSpec,
    attracting_run_suite,
    attracting_step_suite,
    check_attracting,
    check_quasi_fejer,
    prox_grid_suite,
    quasi_fejer_suite,
    run_all_suites,
)

GRID = np.arange(GRID_LO, GRID_HI + GRID_STEP / 2, GRID_STEP)


def serial_prox_grid_suite(cases, seed):
    """The prox suite as one one-element prox call and one whole-grid
    minimum per case, each tallied by its gap's excess over the tolerance:
    the reference the suite must reproduce bit for bit. Reads the tolerance
    from ``validation`` at call time, as the suite does."""
    rng = np.random.default_rng(seed)
    excess = []
    for i, name in enumerate(PROX_ALPHABETS):
        c = constellation(name)
        f1_grid = np.abs(GRID - c.nearest(GRID))
        n = cases // len(PROX_ALPHABETS) + (cases % len(PROX_ALPHABETS) if i == 0 else 0)
        xs = rng.uniform(-2.0, 2.0, size=n)
        taus = rng.uniform(0.0, 0.5, size=n)
        for x, tau in zip(xs, taus):
            p = float(prox_l1_levels(np.array([x]), tau, c)[0])
            ours = tau * abs(p - c.nearest(p)) + 0.5 * (x - p) ** 2
            best = float((np.square(x - GRID) * 0.5 + tau * f1_grid).min())
            excess.append(float(ours - best) - validation.GAP_TOL)
    violations = sum(not e <= 0 for e in excess)
    return SuiteResult("prox-grid-oracle",
                       AuditResult(len(excess), violations, max([0.0, *excess])))


def serial_attracting_step_suite(draws, seed):
    """The single-step suite as one ``apsm_map`` call per draw: the reference
    the stacked suite must reproduce bit for bit. Reads the tolerance from
    ``apsm`` at call time, as the suite does."""
    rng = np.random.default_rng(seed)
    kappa = 1.0 - MU / 2.0
    box = BoxSet(1.0)
    violations = 0
    worst = 0.0
    for _ in range(draws):
        k2 = 2 * int(rng.integers(2, 5))
        n2 = 2 * k2
        H = rng.standard_normal((n2, k2))
        z = rng.uniform(-1.0, 1.0, size=k2)
        y = H @ z + 0.1 * rng.standard_normal(n2)
        cost = QuadraticResidualCost(H, y)
        resid_z = cost.residual_sq(z)
        rho = resid_z * (1.0 + rng.uniform(0.0, 1.0))
        x = rng.uniform(-1.0, 1.0, size=k2)
        tx = apsm_map(cost, x, rho, MU, box)
        lhs = float(np.sum((tx - z) ** 2))
        rhs = (float(np.sum((x - z) ** 2) - kappa * np.sum((x - tx) ** 2))
               + apsm.AUDIT_TOL)
        if lhs > rhs:
            violations += 1
            worst = max(worst, lhs - rhs)
    return SuiteResult("attracting-step", AuditResult(draws, violations, worst))


def assert_same_result(a: SuiteResult, b: SuiteResult):
    assert (a.name, a.audit.checked, a.audit.violations) == (b.name, b.audit.checked,
                                                            b.audit.violations)
    assert float(a.audit.max_excess).hex() == float(b.audit.max_excess).hex()


def dimensions_drawn(draws, seed):
    """The problem sizes 2K the first ``draws`` cases of a seed draw."""
    rng = np.random.default_rng(seed)
    dims = set()
    for _ in range(draws):
        k2 = 2 * int(rng.integers(2, 5))
        rng.standard_normal((2 * k2, k2))
        rng.uniform(-1.0, 1.0, size=k2)
        rng.standard_normal(2 * k2)
        rng.uniform(0.0, 1.0)
        rng.uniform(-1.0, 1.0, size=k2)
        dims.add(k2)
    return dims


class TestProxGrid:
    # x over the whole grid (the suite draws [-2, 2]), at and between grid
    # points and at both ends; tau beyond the suite's [0, 0.5] widens the
    # window up to the whole grid; the point p that tightens the bound lies
    # anywhere on the grid, beyond it, or is not a number
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(PROX_ALPHABETS),
           st.floats(GRID_LO, GRID_HI) | st.integers(0, GRID.size - 1).map(lambda i: GRID[i]),
           st.floats(0.0, 0.5) | st.floats(0.0, 4.0),
           st.floats(GRID_LO, GRID_HI) | st.floats(-1e300, 1e300)
           | st.sampled_from([np.nan, np.inf, -np.inf]))
    @example("qpsk", GRID_LO, 0.0, GRID_HI)
    @example("16qam", GRID_HI, 0.0, np.nan)
    @example("16qam", GRID_HI, 4.0, -np.inf)
    @example("qpsk", 0.0, 0.5, 0.0)
    def test_window_minimum_is_the_grid_minimum(self, name, x, tau, p):
        c = constellation(name)
        f1_grid = np.abs(GRID - c.nearest(GRID))
        whole = np.square(np.subtract(x, GRID)) * 0.5 + tau * f1_grid
        # warnings are errors here, so a cast of a non-finite p would fail
        ub = float(_grid_bound(np.array([x]), np.array([p]), np.array([tau]), GRID, f1_grid)[0])
        assert _grid_min(x, tau, ub, GRID, f1_grid).hex() == float(whole.min()).hex()

    # the gaps lie below zero, about half of them within 1e-9 of it; a
    # negative tolerance makes some cases "violate", so the counts depend on
    # every bit of the gaps
    @pytest.mark.parametrize("tol", [validation.GAP_TOL, -1e-10, -5e-10, -1e-9])
    @pytest.mark.parametrize("cases,seed", [(1, 0), (2, 3), (7, 1), (120, 2), (301, 5)])
    def test_suite_is_the_serial_loop(self, monkeypatch, tol, cases, seed):
        monkeypatch.setattr(validation, "GAP_TOL", tol)
        suite = prox_grid_suite(cases=cases, seed=seed)
        assert suite.audit.checked == cases
        assert_same_result(suite, serial_prox_grid_suite(cases, seed))

    def test_tolerances_exercise_violations(self, monkeypatch):
        monkeypatch.setattr(validation, "GAP_TOL", -5e-10)
        result = prox_grid_suite(cases=120, seed=2)
        assert 0 < result.audit.violations < result.audit.checked

    def test_a_gap_that_is_not_a_number_fails(self, monkeypatch):
        monkeypatch.setattr(validation, "prox_l1_levels",
                            lambda x, tau, c: np.full_like(x, np.nan))
        result = prox_grid_suite(cases=20, seed=1)
        assert (result.audit.checked, result.audit.violations) == (20, 20)
        assert not result.passed and "FAIL" in result.line()


class TestAttractingStep:
    # a negative tolerance makes some steps "violate", so the counts and the
    # worst excess depend on every bit of the sums that decide them
    @pytest.mark.parametrize("tol", [apsm.AUDIT_TOL, -0.1, -1.0])
    @pytest.mark.parametrize("draws,seed", [(1, 0), (1, 9), (6, 1), (6, 21),
                                            (200, 2), (1500, 7)])
    def test_stack_is_the_serial_loop(self, monkeypatch, tol, draws, seed):
        monkeypatch.setattr(apsm, "AUDIT_TOL", tol)
        assert_same_result(attracting_step_suite(draws=draws, seed=seed),
                           serial_attracting_step_suite(draws, seed))

    def test_cases_cover_missing_dimensions(self):
        # the draws above include stacks of several cases where one problem
        # size gets none
        assert dimensions_drawn(6, 1) == {4, 6}
        assert dimensions_drawn(6, 21) == {4, 8}
        assert dimensions_drawn(1500, 7) == {4, 6, 8}

    def test_tolerances_exercise_violations(self, monkeypatch):
        monkeypatch.setattr(apsm, "AUDIT_TOL", -1.0)
        result = attracting_step_suite(draws=1500, seed=7)
        audit = result.audit
        assert 0 < audit.violations < audit.checked and audit.max_excess > 0.0


class TestAuditedRuns:
    def test_merged_stack_is_the_separate_suites(self, monkeypatch):
        stacks, audited = [], []
        batch = validation.apsm_run_batch

        def counted(costs, cfgs, *args, **kwargs):
            stacks.append((len(costs), tuple(cfg.variant for cfg, _ in groupby(cfgs))))
            return batch(costs, cfgs, *args, **kwargs)

        def recorded(check):
            def audit(trace, x_seq, z_ref, cost, cfg):
                audited.append((check.__name__, cfg, z_ref.tobytes(), x_seq.tobytes(),
                                *(getattr(trace, col).tobytes() for col in TRACE_COLUMNS)))
                return check(trace, x_seq, z_ref, cost, cfg)
            return audit

        monkeypatch.setattr(validation, "apsm_run_batch", counted)
        for check in (check_quasi_fejer, check_attracting):
            monkeypatch.setattr(validation, check.__name__, recorded(check))
        merged = run_all_suites(seed=5, prox_cases=20, attracting_draws=20, qf_trials=6)
        merged_runs = audited[:]
        # 6 + 3 trials, three variants each, in one engine stack of three
        # runs of equal configs, plain first: the engine's perturbing block
        # (the l2 and l1 rows) needs no reordering
        assert stacks == [(27, VARIANTS)] and len(merged_runs) == 27
        separate = [quasi_fejer_suite(trials=6, seed=7), attracting_run_suite(trials=3, seed=8)]
        assert stacks == [(27, VARIANTS), (18, VARIANTS), (9, VARIANTS)]
        # every audited run, its trace and its result are those of the
        # separate stacks; the merged stack audits variant by variant
        assert Counter(audited[27:]) == Counter(merged_runs)
        for a, b in zip(merged[2:], separate):
            assert_same_result(a, b)
            assert a.audit.checked > 0

    def test_each_spec_keeps_its_own_tally(self):
        spec = _RunSpec("quasi-fejer-run", check_quasi_fejer, 2, 3, 40)
        other = _RunSpec("attracting-run", check_attracting, 3, 1, 40)
        twice = _audited_runs([spec, other, spec])
        alone = [_audited_runs([s])[0] for s in (spec, other, spec)]
        for a, b in zip(twice, alone):
            assert_same_result(a, b)
        assert_same_result(alone[0], quasi_fejer_suite(2, 3, 40))

    def test_specs_need_one_budget(self):
        specs = [_RunSpec("quasi-fejer-run", check_quasi_fejer, 1, 0, 30),
                 _RunSpec("attracting-run", check_attracting, 1, 0, 40)]
        with pytest.raises(ConfigError, match="max_iters"):
            _audited_runs(specs)
