import numpy as np
import pytest

import sapsm.validation as validation
from sapsm.apsm import TRACE_COLUMNS, _row_groups
from sapsm.cost import MU, QuadraticResidualCost, apsm_map
from sapsm.errors import ConfigError
from sapsm.geometry import BoxSet
from sapsm.validation import (
    SuiteResult,
    _audited_runs,
    _RunSpec,
    attracting_run_suite,
    attracting_step_suite,
    check_attracting,
    check_quasi_fejer,
    quasi_fejer_suite,
    run_all_suites,
)


def serial_attracting_step_suite(draws, seed):
    """The single-step suite as one ``apsm_map`` call per draw: the reference
    the stacked suite must reproduce bit for bit. Reads the tolerance from
    ``validation`` at call time, as the suite does."""
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
               + validation.AUDIT_TOL)
        if lhs > rhs:
            violations += 1
            worst = max(worst, lhs - rhs)
    return SuiteResult("attracting-step", draws, violations, worst)


def assert_same_result(a: SuiteResult, b: SuiteResult):
    assert (a.name, a.checked, a.violations) == (b.name, b.checked, b.violations)
    assert float(a.worst).hex() == float(b.worst).hex()


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


class TestAttractingStep:
    # a negative tolerance makes some steps "violate", so the counts and the
    # worst excess depend on every bit of the sums that decide them
    @pytest.mark.parametrize("tol", [validation.AUDIT_TOL, -0.1, -1.0])
    @pytest.mark.parametrize("draws,seed", [(1, 0), (1, 9), (6, 1), (6, 21),
                                            (200, 2), (1500, 7)])
    def test_stack_is_the_serial_loop(self, monkeypatch, tol, draws, seed):
        monkeypatch.setattr(validation, "AUDIT_TOL", tol)
        assert_same_result(attracting_step_suite(draws=draws, seed=seed),
                           serial_attracting_step_suite(draws, seed))

    def test_cases_cover_missing_dimensions(self):
        # the draws above include stacks of several cases where one problem
        # size gets none
        assert dimensions_drawn(6, 1) == {4, 6}
        assert dimensions_drawn(6, 21) == {4, 8}
        assert dimensions_drawn(1500, 7) == {4, 6, 8}

    def test_tolerances_exercise_violations(self, monkeypatch):
        monkeypatch.setattr(validation, "AUDIT_TOL", -1.0)
        result = attracting_step_suite(draws=1500, seed=7)
        assert 0 < result.violations < result.checked and result.worst > 0.0


class TestAuditedRuns:
    def test_merged_stack_is_the_separate_suites(self, monkeypatch):
        stacks, audited = [], []
        batch = validation.apsm_run_batch

        def counted(costs, cfgs, *args, **kwargs):
            stacks.append((len(costs), len(_row_groups(cfgs))))
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
        # 6 + 3 trials, three variants each, in one engine stack whose runs
        # of one variant perturb as one group
        assert stacks == [(27, 3)] and len(merged_runs) == 27
        separate = [quasi_fejer_suite(trials=6, seed=7), attracting_run_suite(trials=3, seed=8)]
        assert stacks == [(27, 3), (18, 3), (9, 3)]
        # every audited run, its trace and its result are those of the
        # separate stacks
        assert audited[27:] == merged_runs
        for a, b in zip(merged[2:], separate):
            assert_same_result(a, b)
            assert a.checked > 0

    def test_each_spec_keeps_its_own_tally(self):
        spec = _RunSpec("quasi-fejer-run", check_quasi_fejer, 2, 3, 40, ("plain", "l2"))
        other = _RunSpec("attracting-run", check_attracting, 3, 1, 40, ("l1",))
        twice = _audited_runs([spec, other, spec])
        alone = [_audited_runs([s])[0] for s in (spec, other, spec)]
        for a, b in zip(twice, alone):
            assert_same_result(a, b)
        assert_same_result(alone[0], quasi_fejer_suite(2, 3, 40, ("plain", "l2")))

    def test_specs_need_one_budget(self):
        specs = [_RunSpec("quasi-fejer-run", check_quasi_fejer, 1, 0, 30),
                 _RunSpec("attracting-run", check_attracting, 1, 0, 40)]
        with pytest.raises(ConfigError, match="max_iters"):
            _audited_runs(specs)
