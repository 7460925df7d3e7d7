import csv
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sapsm.apsm
import sapsm.cost
from sapsm.apsm import (
    CERTIFY_MARGIN,
    CHUNK,
    TRACE_COLUMNS,
    AuditResult,
    IterateTrace,
    activation_index,
    apsm_run,
    apsm_run_batch,
    check_attracting,
    check_quasi_fejer,
    diagnose,
)
from sapsm.cost import (
    MU,
    ApsmConfig,
    BetaSchedule,
    QuadraticResidualCost,
    RhoSchedule,
    apsm_map,
    schedule_table,
    stack_costs,
    standard_config,
)
from sapsm.errors import ConfigError, DimensionMismatch, NonFiniteIterate
from sapsm.geometry import (
    BoxSet,
    Constellation,
    constellation,
    perturbation_l1,
    perturbation_l2,
    soft_slice,
)
from sapsm.mimo import ChannelModel, interval_errors, make_instance, slicing_interval, trial_seed
from sapsm.validation import quasi_fejer_suite

from helpers import attracting_whole_window, hard_slicing_perturbation

QPSK = constellation("qpsk")
QAM16 = constellation("16qam")
QAM64 = constellation("64qam")
# an odd alphabet, whose middle level 0.0 slices to signed zeros
THREE = Constellation(np.array([-0.75**0.5, 0.0, 0.75**0.5]))


def small_instance(seed=0, k=2, n=4, snr=8.0):
    inst = make_instance(ChannelModel("iid"), QPSK, k, n, snr, trial_seed(99, seed))
    return inst, QuadraticResidualCost(inst.H, inst.y)


class TestRun:
    def test_feasible_start_is_fixed_point(self):
        # y = 0 makes the zero start the solution
        cost = QuadraticResidualCost(np.eye(2), np.zeros(2))
        cfg = ApsmConfig(rho=RhoSchedule(1e-3, 1.0), variant="plain", max_iters=50)
        x, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        assert x.tobytes() == np.zeros(2).tobytes()
        assert len(trace) == cfg.max_iters
        assert np.all(trace.step_norm == 0.0)
        assert np.all(trace.theta == 0.0)

    def test_interior_least_squares_reachable(self):
        # identity channel, target inside the box: iterates converge onto it
        y = np.array([0.4, -0.4])
        cost = QuadraticResidualCost(np.eye(2), y)
        cfg = ApsmConfig(rho=RhoSchedule(1e-30, 1.0), mu=1.0, variant="plain",
                         max_iters=200)
        x, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        np.testing.assert_allclose(x, y, atol=1e-6)
        assert trace.objective[-1] < 1e-12

    def test_l1_terminal_sublevel_feasibility(self):
        inst, cost = small_instance(seed=1)
        cfg = standard_config("l1", max_iters=300)
        x, trace = apsm_run(cost, cfg, QPSK)
        rho_final = cfg.rho.at(int(trace.n[-1]))
        assert cost.residual_sq(x) <= rho_final + 1e-9

    def test_iterates_stay_in_box(self):
        # H = I and y far outside the box: the unclamped steps leave it, so
        # the clamp bites, and the iterates sit on its faces
        y = np.array([5.0, -5.0, 4.0, -3.0])
        cost = QuadraticResidualCost(np.eye(4), y)
        unclamped = apsm_map(cost, np.zeros(4), 5e-5, MU, BoxSet(1e9))
        assert np.all(np.abs(unclamped) > QPSK.a_max)
        for variant in ("plain", "l2", "l1"):
            _, trace = apsm_run(cost, standard_config(variant, max_iters=120),
                                QPSK, record_iterates=True)
            assert np.all(np.abs(trace.iterates) <= QPSK.a_max)
            assert np.array_equal(trace.iterates[-1], QPSK.a_max * np.sign(y))

    def test_deterministic_reruns(self):
        inst, cost = small_instance(seed=3)
        cfg = standard_config("l1", max_iters=150)
        x1, t1 = apsm_run(cost, cfg, QPSK, record_iterates=True)
        x2, t2 = apsm_run(cost, cfg, QPSK, record_iterates=True)
        np.testing.assert_array_equal(x1, x2)
        for name in ("theta", "objective", "rho", "step_norm", "pert_norm"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
        np.testing.assert_array_equal(t1.iterates, t2.iterates)

    def test_record_budget(self):
        inst, cost = small_instance(seed=4)
        for variant in ("plain", "l2", "l1"):
            cfg = standard_config(variant, max_iters=75)
            for record in (False, True):
                _, trace = apsm_run(cost, cfg, QPSK, record_iterates=record)
                assert len(trace) == cfg.max_iters
                for col in recorded_columns(trace):
                    assert getattr(trace, col).shape == (cfg.max_iters,), col
                np.testing.assert_array_equal(trace.n, np.arange(cfg.max_iters))
                if record:
                    assert trace.iterates.shape == (cfg.max_iters + 1, 4)
                else:
                    assert trace.iterates is None
                    # these columns are derived from the iterates
                    for col in ("objective", "step_norm", "pert_norm"):
                        with pytest.raises(ConfigError, match=col):
                            getattr(trace, col)

    def test_every_step_is_apsm_map(self):
        # the engine's step at the reference setup is the audited iteration
        # map, bit for bit, applied to the perturbed iterate
        qam16 = constellation("16qam")
        box = qam16.box()
        for t in range(5):
            inst = make_instance(ChannelModel("iid"), qam16, 16, 64, 9.0,
                                 trial_seed(2024, t))
            cost = QuadraticResidualCost(inst.H, inst.y)
            for variant in ("plain", "l2", "l1"):
                cfg = standard_config(variant)
                _, trace = apsm_run(cost, cfg, qam16, record_iterates=True)
                assert len(trace) == cfg.max_iters
                for n, x in enumerate(trace.iterates[:-1]):
                    beta_n = cfg.beta.at(n)
                    if variant == "l2":
                        x = x + beta_n * perturbation_l2(x, qam16)
                    elif variant == "l1":
                        x = x + beta_n * perturbation_l1(x, cfg.tau, qam16)
                    step = apsm_map(cost, x, cfg.rho.at(n), cfg.mu, box)
                    np.testing.assert_array_equal(step, trace.iterates[n + 1])

    def test_non_finite_raises_with_iteration(self):
        with np.errstate(over="ignore"):
            cost = QuadraticResidualCost(np.eye(2), np.array([1e308, 0.0]))
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run(cost, standard_config("plain", max_iters=5), QPSK)
        assert err.value.iteration == 0

    @pytest.mark.parametrize("variant", ["plain", "l2", "l1"])
    def test_non_finite_is_the_only_signal(self, variant):
        # under warnings-as-errors a run that overflows or runs on a
        # non-finite observation still raises NonFiniteIterate, not a
        # RuntimeWarning
        inst, _ = small_instance(seed=3)
        costs = []
        with np.errstate(over="ignore", invalid="ignore"):
            costs.append(QuadraticResidualCost(np.eye(2), np.array([1e308, 0.0])))
            for i, bad in ((0, np.inf), (2, -np.inf), (1, np.nan)):
                y = inst.y.copy()
                y[i] = bad
                costs.append(QuadraticResidualCost(inst.H, y))
        cfg = standard_config(variant, max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cost in costs:
                with pytest.raises(NonFiniteIterate) as err:
                    apsm_run(cost, cfg, QPSK)
                assert err.value.iteration == 0

    @pytest.mark.parametrize("bad_row", [0, 1])
    def test_non_finite_mid_run_reports_its_iteration(self, monkeypatch, bad_row):
        # a mixed stack one of whose two l2 rows (tau = inf in the perturbing
        # block of l2, l2 and l1) turns nan from the 4th perturbation on,
        # that is at iteration 3; the other rows stay finite
        costs = [small_instance(seed=s)[1] for s in range(5)]
        cfgs = [standard_config(v, max_iters=10) for v in ("plain", "l2", "l2", "l1", "plain")]
        apsm_run_batch(costs, cfgs, QPSK)
        calls = []

        def poisoned(x, tau, c, sliced=None):
            calls.append(len(x))
            v = soft_slice(x, tau, c, sliced)
            if len(calls) >= 4:
                v[np.flatnonzero(tau == np.inf)[bad_row]] = np.nan
            return v

        monkeypatch.setattr(sapsm.apsm, "soft_slice", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run_batch(costs, cfgs, QPSK, record_iterates=True)
        assert err.value.iteration == 3
        assert calls[0] == 3

    def test_non_finite_last_iterate_names_the_last_iteration(self, monkeypatch):
        # a nan that appears in the last step's result never reaches a theta;
        # the check of the final iterate names the last iteration
        costs = [small_instance(seed=s)[1] for s in range(3)]
        cfgs = [standard_config(v, max_iters=6) for v in ("plain", "l2", "l1")]
        step = sapsm.apsm.sublevel_step
        calls = []

        def poisoned(*args):
            calls.append(None)
            x, theta = step(*args)
            if len(calls) == cfgs[0].max_iters:
                x[1] = np.nan
            return x, theta

        monkeypatch.setattr(sapsm.apsm, "sublevel_step", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run_batch(costs, cfgs, QPSK)
        assert err.value.iteration == cfgs[0].max_iters - 1
        assert len(calls) == cfgs[0].max_iters

    def test_metadata(self):
        inst, cost = small_instance(seed=6)
        for variant, summable in (("plain", True), ("l2", True), ("l1", False)):
            cfg = standard_config(variant, max_iters=10)
            _, trace = apsm_run(cost, cfg, QPSK)
            assert trace.cfg == cfg and trace.cfg.variant == variant
            assert trace.cfg.beta.summable is summable
            assert trace.cost is cost and trace.c is QPSK


class TestAudits:
    def test_plain_is_fejer_monotone_after_activation(self):
        inst, cost = small_instance(seed=7)
        cfg = standard_config("plain", max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        audit = check_quasi_fejer(trace, trace.iterates, inst.s, cost, cfg)
        assert audit.checked > 0
        assert audit.violations == 0

    def test_500_seeded_trials_of_every_variant(self):
        result = quasi_fejer_suite(trials=500, seed=11).audit
        assert result.checked > 0
        assert result.violations == 0

    def test_infeasible_reference_excluded(self):
        inst, cost = small_instance(seed=8)
        cfg = standard_config("plain", max_iters=40)  # rho never reaches ||w||^2
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        assert activation_index(trace, cost.residual_sq(inst.s)) is None
        audit = check_quasi_fejer(trace, trace.iterates, inst.s, cost, cfg)
        assert audit.checked == 0 and audit.violations == 0

    def test_infeasible_reference_empties_both_audits(self):
        # the window is empty, not missing: both checks tally no step, and
        # an audit that checked nothing does not pass
        inst, cost = small_instance(seed=8)
        cfg = standard_config("l1", max_iters=40)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        assert activation_index(trace, cost.residual_sq(inst.s)) is None
        for check in (check_quasi_fejer, check_attracting):
            audit = check(trace, trace.iterates, inst.s, cost, cfg)
            assert audit == AuditResult() and not audit.passed

    def test_tallies_add(self):
        a, b = AuditResult(3, 1, 0.5), AuditResult(4, 0, 0.0)
        assert a + b == b + a == AuditResult(7, 1, 0.5)
        assert AuditResult() + a == a
        assert not a.passed and b.passed and not AuditResult().passed

    def test_a_worst_excess_that_is_not_a_number_wins_in_either_order(self):
        bad = AuditResult.from_excess(np.array([np.nan, -1.0]))
        for good in (AuditResult(4, 0, 0.0), AuditResult(4, 2, 0.5), AuditResult()):
            for total in (bad + good, good + bad):
                assert math.isnan(total.max_excess)
                assert (total.checked, total.violations) == (good.checked + 2,
                                                             good.violations + 1)
                assert not total.passed
        # without a nan the worst excess keeps its bytes, -0.0 included
        for a, b in ((-0.0, 0.0), (0.0, -0.0), (0.25, -0.0)):
            got = (AuditResult(1, 0, a) + AuditResult(1, 0, b)).max_excess
            assert float(got).hex() == float(max(a, b)).hex()
            assert math.copysign(1.0, got) == math.copysign(1.0, max(a, b))

    def test_an_excess_that_is_not_a_number_violates(self):
        audit = AuditResult.from_excess(np.array([np.nan, -1.0]))
        assert (audit.checked, audit.violations) == (2, 1) and not audit.passed
        assert AuditResult.from_excess(np.array([-1.0, 0.0])) == AuditResult(2, 0, 0.0)

    def test_attracting_unperturbed(self):
        inst, cost = small_instance(seed=9)
        cfg = standard_config("plain", max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        audit = check_attracting(trace, trace.iterates, inst.s, cost, cfg)
        assert audit.checked > 0
        assert audit.violations == 0

    def test_attracting_perturbed_variants(self):
        inst, cost = small_instance(seed=10)
        for variant in ("l2", "l1"):
            cfg = standard_config(variant, max_iters=260)
            _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
            audit = check_attracting(trace, trace.iterates, inst.s, cost, cfg)
            assert audit.checked > 0
            assert audit.violations == 0

    @pytest.mark.parametrize("variant", ["l2", "l1"])
    def test_both_audits_make_one_perturbation_call(self, monkeypatch, variant):
        inst, cost = small_instance(seed=10)
        cfg = standard_config(variant, max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        alone = [check(IterateTrace(trace.theta, cfg, cost, QPSK, trace.iterates),
                       trace.iterates, inst.s, cost, cfg)
                 for check in (check_quasi_fejer, check_attracting)]
        calls = []

        def counted(perturbation):
            def call(*args):
                calls.append(len(args[0]))
                return perturbation(*args)
            return call

        monkeypatch.setattr(sapsm.apsm, "perturbation_l2", counted(perturbation_l2))
        monkeypatch.setattr(sapsm.apsm, "perturbation_l1", counted(perturbation_l1))
        shared = [check(trace, trace.iterates, inst.s, cost, cfg)
                  for check in (check_quasi_fejer, check_attracting)]
        assert calls == [cfg.max_iters]
        assert shared == alone and all(audit.checked > 0 for audit in shared)

    def test_telescoped_step_energy_is_bounded(self):
        # the per-step bound summed over the audited window:
        # kappa sum max(s - p, 0)^2 <= ||x_a - z||^2 + sum (2 p d + p^2)
        inst, cost = small_instance(seed=12)
        cfg = standard_config("l2", max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        start = activation_index(trace, cost.residual_sq(inst.s))
        assert start is not None
        kappa = 1.0 - cfg.mu / 2.0
        steps = trace.step_norm[start:]
        perts = trace.pert_norm[start:]
        assert perts.max() > 0
        dists = np.linalg.norm(trace.iterates[start:-1] - inst.s, axis=1)
        energy = kappa * float(np.sum(np.maximum(steps - perts, 0.0) ** 2))
        slack = float(np.sum(2.0 * perts * dists + perts**2))
        assert energy <= dists[0] ** 2 + slack + 1e-9 * steps.size

    def test_per_step_slack_never_exceeds_the_whole_window_slack(self, monkeypatch):
        # every config of a mixed stack, including a non-summable and a
        # slowly decaying beta: sigma_n <= gamma_n on every audited step,
        # and the unperturbed run's excess is the reference's, bitwise
        cfgs = [standard_config("l1", max_iters=260),
                replace(standard_config("l1", max_iters=260),
                        beta=BetaSchedule.geometric(0.999)),
                standard_config("l2", max_iters=260),
                standard_config("plain", max_iters=260)]
        insts = [small_instance(seed)[0] for seed in range(8)]
        costs = [QuadraticResidualCost(inst.H, inst.y) for _ in cfgs for inst in insts]
        _, traces = apsm_run_batch(costs, [cfg for cfg in cfgs for _ in insts], QPSK,
                                   record_iterates=True)
        excesses = []
        from_excess = AuditResult.from_excess
        monkeypatch.setattr(AuditResult, "from_excess",
                            lambda excess: excesses.append(excess) or from_excess(excess))
        audited = {cfg: 0 for cfg in cfgs}
        for trace, inst in zip(traces, insts * len(cfgs)):
            args = (trace, trace.iterates, inst.s, trace.cost, trace.cfg)
            excesses.clear()
            check_attracting(*args)
            reference, gamma = attracting_whole_window(*args)
            if not gamma.size:
                continue
            (excess,) = excesses
            audited[trace.cfg] += excess.size
            # reference - excess = sigma_n - gamma_n, up to the rounding of
            # the terms of either right-hand side
            d = np.linalg.norm(trace.iterates - inst.s, axis=1)
            scale = 1.0 + d.max() ** 2 + gamma
            assert np.all(reference - excess <= 1e-12 * scale)
            if trace.cfg.variant == "plain":
                assert np.array_equal(excess, reference)
        assert all(count >= 300 for count in audited.values()), audited

    def test_attracting_audit_charges_an_unperturbed_l1_step_no_slack(self):
        # an l1 run that jumps from s to -s on the lattice, where the
        # perturbation vanishes: the jump moves away from z = s, which no
        # kappa-attracting step can do
        s = QPSK.levels[[0, 1, 1, 0]]
        cost = QuadraticResidualCost(np.eye(s.size), s)
        cfg = standard_config("l1", max_iters=2)
        trace = IterateTrace(np.zeros(2), cfg, cost, QPSK, np.stack([s, -s, -s]))
        assert np.array_equal(trace.pert_norm, np.zeros(2))
        audit = check_attracting(trace, trace.iterates, s, cost, cfg)
        assert (audit.checked, audit.violations) == (2, 1)
        assert audit.max_excess == pytest.approx(4.0 * (2.0 - cfg.mu / 2.0) * s @ s)

    def test_steps_decay_on_converging_runs(self):
        inst, cost = small_instance(seed=13)
        _, trace = apsm_run(cost, standard_config("plain", max_iters=300), QPSK,
                            record_iterates=True)
        decile = max(1, len(trace) // 10)
        assert trace.step_norm[-decile:].mean() < trace.step_norm[:decile].mean()

    def test_theta_tail_vanishes(self):
        inst, cost = small_instance(seed=14)
        _, trace = apsm_run(cost, standard_config("l1", max_iters=300), QPSK)
        decile = max(1, len(trace) // 10)
        assert trace.theta[0] > 0
        assert trace.theta[-decile:].mean() <= 1e-6 * trace.theta[0]

    def test_diagnose_report(self):
        inst, cost = small_instance(seed=15)
        cfg = standard_config("l1", max_iters=260)
        report = diagnose(cost, cfg, QPSK, inst.s)
        assert report.activation_index is not None
        assert report.quasi_fejer.violations == 0
        assert report.attracting.violations == 0
        assert report.theta_tail >= 0.0
        payload = report.to_json()
        assert "activation_index" in payload


class TestTraceExport:
    def test_csv_round_readable(self, tmp_path):
        inst, cost = small_instance(seed=16)
        _, trace = apsm_run(cost, standard_config("l2", max_iters=20), QPSK,
                            record_iterates=True)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace)
        assert set(rows[0]) == {"n", "theta", "objective", "rho", "step_norm", "pert_norm"}
        np.testing.assert_allclose(
            [float(r["objective"]) for r in rows], trace.objective, rtol=0)


# (K, N, constellation) per problem size 2K of the batched-engine properties
SIZES = {4: (2, 4, QPSK), 6: (3, 6, THREE), 8: (4, 8, QPSK), 12: (6, 12, QAM64),
         32: (16, 32, QAM16)}


def recorded_columns(trace):
    """The trace columns a run has: all of TRACE_COLUMNS when it recorded
    its iterates, only those not derived from them otherwise."""
    if trace.iterates is not None:
        return TRACE_COLUMNS
    return ("n", "theta", "rho")


def assert_same_run(a, b):
    """Two (final iterate, trace) results are bitwise equal."""
    (xa, ta), (xb, tb) = a, b
    assert xa.dtype == xb.dtype and xa.tobytes() == xb.tobytes()
    assert len(ta) == len(tb)
    for col in recorded_columns(ta):
        ca, cb = getattr(ta, col), getattr(tb, col)
        assert ca.dtype == cb.dtype and ca.tobytes() == cb.tobytes(), col
    assert (ta.iterates is None) == (tb.iterates is None)
    if ta.iterates is not None:
        assert ta.iterates.tobytes() == tb.iterates.tobytes()
    assert ta.cfg == tb.cfg


def serial_reference_run(cost, cfg, c):
    """The engine as one serial loop of 1-D numpy and Python float
    operations: the reference the batched engine must reproduce bit for
    bit. Its objective is computed in the loop, as the reference for the
    column the trace derives from its iterates. Returns (final iterate,
    TRACE_COLUMNS arrays, iterates)."""
    box = c.box()
    x = np.zeros(cost.dim_in)

    def residual(v, gv):
        return max(float(v @ gv - 2.0 * (cost.hty @ v) + cost.yty), 0.0)

    records, iterates = [], [x.copy()]
    for n in range(cfg.max_iters):
        beta_n = cfg.beta.at(n)
        pert_norm, z = 0.0, x
        if beta_n != 0.0:
            if cfg.variant == "l2":
                v = hard_slicing_perturbation(x, c)
            else:
                v = perturbation_l1(x, cfg.tau, c)
            pert_norm = beta_n * math.sqrt(float(v @ v))
            z = x + beta_n * v
        rho_n = cfg.rho.at(n)
        gz = cost.gram @ z
        resid_z = residual(z, gz)
        theta_n = max(resid_z - rho_n, 0.0)
        if theta_n > 0.0:
            grad = 2.0 * (gz - cost.hty)
            gn2 = float(grad @ grad)
            if math.sqrt(gn2) > 1e-12 * (1.0 + math.sqrt(float(z @ z))):
                z = z - (cfg.mu * theta_n / gn2) * grad
        x_next = np.clip(z, -box.a_max, box.a_max)
        diff = x_next - x
        step_norm = math.sqrt(float(diff @ diff))
        objective = resid_z if pert_norm == 0.0 else residual(x, cost.gram @ x)
        records.append((n, theta_n, objective, rho_n, step_norm, pert_norm))
        iterates.append(x_next.copy())
        x = x_next
    columns = [np.asarray(col) for col in zip(*records)]
    return x, columns, np.asarray(iterates)


def assert_observed_as_recorded(costs, cfgs, c, record):
    """A run that observes its chunks returns what it returns unobserved,
    and its chunks' iterates, in order, are the recorded run's x_1 ..
    x_final, row by row. Returns the chunk sizes."""
    chunks = []
    observed = apsm_run_batch(costs, cfgs, c, record_iterates=record,
                              observe=lambda xs: chunks.append(xs.copy()))
    plain = apsm_run_batch(costs, cfgs, c, record_iterates=record)
    for i in range(len(costs)):
        assert_same_run((observed[0][i], observed[1][i]), (plain[0][i], plain[1][i]))
    _, traces = apsm_run_batch(costs, cfgs, c, record_iterates=True)
    recorded = np.stack([trace.iterates[1:] for trace in traces], axis=1)
    seen = np.concatenate(chunks)
    assert seen.shape == recorded.shape and seen.tobytes() == recorded.tobytes()
    sizes = [len(xs) for xs in chunks]
    assert all(size == CHUNK for size in sizes[:-1]) and 1 <= sizes[-1] <= CHUNK
    return sizes


def assert_rows_are_serial(costs, cfgs, c):
    """Every row of a recorded stack run is bitwise serial_reference_run."""
    final, traces = apsm_run_batch(costs, cfgs, c, record_iterates=True)
    for i, cost in enumerate(costs):
        x, columns, iterates = serial_reference_run(cost, cfgs[i], c)
        assert final[i].tobytes() == x.tobytes()
        for col, ref in zip(TRACE_COLUMNS, columns):
            got = getattr(traces[i], col)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), col
        assert traces[i].iterates.tobytes() == iterates.tobytes()


@dataclass(frozen=True)
class DippingRho(RhoSchedule):
    """The geometric radius schedule, back at rho0 at iteration ``dip``."""

    dip: int = -1

    def at(self, n: int) -> float:
        return self.rho0 if n == self.dip else super().at(n)


def counted_steps(monkeypatch):
    """One entry per later call of the engine's ``sublevel_step``."""
    calls = []
    step = sapsm.apsm.sublevel_step

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(sapsm.apsm, "sublevel_step", counted)
    return calls


@pytest.fixture
def stepped(monkeypatch):
    return counted_steps(monkeypatch)


@pytest.fixture
def slicings(monkeypatch):
    """The shape of each point the constellations slice (P_S)."""
    calls = []
    nearest = Constellation.nearest

    def counted(c, x):
        calls.append(x.shape)
        return nearest(c, x)

    monkeypatch.setattr(Constellation, "nearest", counted)
    return calls


def config_pool(max_iters):
    """Configs a stack's rows draw from: the three standard variants, an l2
    with its own radius schedule and relaxation, an l2 whose geometric beta
    underflows to 0 by iteration 3, an l1 with another tau and beta, and
    three that the engine must tell apart: an l1 with tau = 0 and an l2 with
    beta = 0, which never perturb, and an l1 with a beta above 1."""
    return (
        standard_config("plain", max_iters=max_iters),
        standard_config("l2", max_iters=max_iters),
        standard_config("l1", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(1e-3, 1.1), mu=1.3,
                   beta=BetaSchedule.geometric(0.5), variant="l2",
                   max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.geometric(1e-160),
                   variant="l2", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(1e-4, 1.03), mu=0.4,
                   beta=BetaSchedule.constant(0.5), tau=0.05, variant="l1",
                   max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.geometric(0.99),
                   variant="l1", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.constant(0.0),
                   variant="l2", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(2e-4, 1.04), beta=BetaSchedule.constant(1.7), tau=0.2,
                   variant="l1", max_iters=max_iters),
    )


@st.composite
def batches(draw):
    """Problems of one size and a config per row (all with one budget; equal
    configs in a row or scattered)."""
    dim = draw(st.sampled_from(sorted(SIZES)))
    k, n, c = SIZES[dim]
    size = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    snrs = draw(st.lists(st.sampled_from([0.0, 8.0, 20.0]), min_size=size,
                         max_size=size))
    costs = []
    for t, snr in enumerate(snrs):
        inst = make_instance(ChannelModel("iid"), c, k, n, snr, trial_seed(seed, t))
        costs.append(QuadraticResidualCost(inst.H, inst.y))
    pool = config_pool(draw(st.integers(1, 80)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        picks.sort()
    cfgs = [pool[i] for i in picks]
    return costs, cfgs, c, draw(st.booleans())



def tail_pool(max_iters):
    """Configs a stack's rows draw from to reach the certified tail: the
    three standard variants, an l2 and an l1 whose constant beta is exactly
    1, a plain and an l2 with constant radii (growth = 1), and the rows
    that never perturb: an l2 with beta = 0 and an l1 with tau = 0."""
    return (
        standard_config("plain", max_iters=max_iters),
        standard_config("l2", max_iters=max_iters),
        standard_config("l1", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(1e-3, 1.1), mu=1.3, beta=BetaSchedule.constant(1.0),
                   variant="l2", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(1e-4, 1.08), beta=BetaSchedule.constant(1.0), tau=0.02,
                   variant="l1", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(40.0), max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(40.0), beta=BetaSchedule.geometric(0.8), variant="l2",
                   max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.constant(0.0), variant="l2",
                   max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.geometric(0.99),
                   variant="l1", max_iters=max_iters),
    )


# the tail_pool rows that never perturb
FIXED_ROWS = (0, 5, 7, 8)
# an edge row's l1 perturbation: from x_0 = 0 every coordinate walks toward
# its slice, by EDGE_TAU beta_n at iteration n, EDGE_TAU sum_n beta_n in all
EDGE_TAU, EDGE_BETA = 0.004, BetaSchedule.geometric(0.98)


@st.composite
def tail_stacks(draw):
    """(costs, cfgs, constellation, whether an edge row leaves its radius) of
    a 300-iteration mixed stack that the certificate reaches mid-run: rows
    of ``tail_pool`` (or of its fixed rows alone) on iid channels, noisy or
    noiseless, one of them perhaps with a ``DippingRho``, and up to two
    edge rows. An edge row is f(x) = ||x||^2 (H = I, y = 0) under
    EDGE_TAU and EDGE_BETA, its walk moving away from y in every
    coordinate, so the certificate's bound over the hull its remaining
    betas reach is exact; its constant radius u d t^2, t the whole walk,
    lies between 0.85 and 1.15 of f where the walk ends (u not within 1%
    of 1). Below 1 the walk leaves the radius late in the run, and no stack
    holding it is certified; a certificate that bounded less than the whole
    hull would stop it early."""
    k, n, c = draw(st.sampled_from([(2, 4, QPSK), (4, 8, QPSK), (16, 32, QAM16)]))
    size = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    snrs = draw(st.lists(st.sampled_from([5.0, 9.0, 18.0, math.inf]), min_size=size,
                         max_size=size))
    costs = []
    for t, snr in enumerate(snrs):
        inst = make_instance(ChannelModel("iid"), c, k, n, snr, trial_seed(seed, t))
        costs.append(QuadraticResidualCost(inst.H, inst.y))
    pool = tail_pool(300)
    picks = (st.sampled_from(FIXED_ROWS) if draw(st.booleans())
             else st.integers(0, len(pool) - 1))
    cfgs = [pool[i] for i in draw(st.lists(picks, min_size=size, max_size=size))]
    if draw(st.booleans()):
        i = draw(st.integers(0, size - 1))
        rho = cfgs[i].rho
        cfgs[i] = replace(cfgs[i], rho=DippingRho(rho.rho0, rho.growth,
                                                  draw(st.integers(0, 200))))
    radii = st.one_of(st.floats(0.85, 0.99), st.floats(1.01, 1.15))
    edges = dict(draw(st.lists(st.tuples(st.integers(0, size - 1), radii), max_size=2)))
    walk = EDGE_TAU * schedule_table(EDGE_BETA, 300).sum()
    for i, u in edges.items():
        costs[i] = QuadraticResidualCost(np.eye(2 * k), np.zeros(2 * k))
        cfgs[i] = ApsmConfig(rho=RhoSchedule(u * 2 * k * walk**2), beta=EDGE_BETA,
                             tau=EDGE_TAU, variant="l1", max_iters=300)
    return costs, cfgs, c, any(u < 1.0 for u in edges.values())


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batches())
    def test_each_row_is_its_single_run(self, batch):
        costs, cfgs, c, record = batch
        final, traces = apsm_run_batch(costs, cfgs, c, record_iterates=record)
        assert final.shape == (len(costs), costs[0].dim_in) and len(traces) == len(costs)
        for i, cost in enumerate(costs):
            single = apsm_run(cost, cfgs[i], c, record_iterates=record)
            assert_same_run((final[i], traces[i]), single)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(batches(), st.randoms(use_true_random=False))
    def test_rows_do_not_depend_on_the_stack(self, batch, rnd):
        costs, cfgs, c, record = batch
        whole = apsm_run_batch(costs, cfgs, c, record_iterates=record)
        # a subset of the rows in another order: groups split, merge and move
        order = rnd.sample(range(len(costs)), rnd.randint(1, len(costs)))
        part = apsm_run_batch([costs[i] for i in order], [cfgs[i] for i in order], c,
                              record_iterates=record)
        for j, i in enumerate(order):
            assert_same_run((part[0][j], part[1][j]), (whole[0][i], whole[1][i]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batches())
    def test_rows_are_the_serial_loop(self, batch):
        costs, cfgs, c, _ = batch
        assert_rows_are_serial(costs, cfgs, c)

    def test_one_soft_slicing_call_per_iteration_on_the_perturbing_rows(self, monkeypatch):
        # every pool config on its own problem, the plain row last; the
        # block holds the other rows in the caller's order, except the l1
        # with tau = 0 and the l2 with beta = 0
        steps = 12
        pool = config_pool(steps)
        quiet = (pool[0], pool[6], pool[7])
        cfgs = list(reversed(pool))
        costs = [small_instance(seed=s)[1] for s in range(len(cfgs))]
        block = [i for i, cfg in enumerate(cfgs) if cfg not in quiet]
        calls = []

        def counted(x, tau, c, sliced=None):
            calls.append((x.copy(), tau.copy()))
            return soft_slice(x, tau, c, sliced)

        monkeypatch.setattr(sapsm.apsm, "soft_slice", counted)
        _, traces = apsm_run_batch(costs, cfgs, QPSK, record_iterates=True)
        assert len(calls) == steps
        taus = [[cfgs[i].tau if cfgs[i].variant == "l1" else np.inf] for i in block]
        for n, (x, tau) in enumerate(calls):
            assert x.tobytes() == np.stack([traces[i].iterates[n] for i in block]).tobytes()
            assert np.array_equal(tau, taus)
        # a block whose beta underflows to 0 makes no call from then on
        calls.clear()
        apsm_run_batch(costs[:2], [pool[4]] * 2, QPSK)
        assert len(calls) == np.count_nonzero([pool[4].beta.at(n) for n in range(steps)]) == 3
        # nor does a stack whose rows never perturb, plain or not
        calls.clear()
        apsm_run_batch(costs[:3], list(quiet), QPSK)
        apsm_run_batch(costs[:3], [pool[0]] * 3, QPSK)
        assert calls == []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batches())
    def test_observed_windows_are_the_recorded_iterates(self, batch):
        costs, cfgs, c, record = batch
        assert_observed_as_recorded(costs, cfgs, c, record)

    @pytest.mark.parametrize("record", [False, True])
    def test_observed_windows_of_a_sorted_stack(self, record):
        # the perturbing rows come first here, so the engine sorts the stack
        steps = 2 * CHUNK + 3
        cfgs = list(reversed(config_pool(steps)))
        costs = [small_instance(seed=s)[1] for s in range(len(cfgs))]
        sizes = assert_observed_as_recorded(costs, cfgs, QPSK, record)
        assert sizes == [CHUNK, CHUNK, 3]

    def test_an_ordered_stack_is_observed_in_place(self):
        cfgs = [standard_config(v, max_iters=CHUNK + 1) for v in ("plain", "l2", "l1")]
        costs = [small_instance(seed=s)[1] for s in range(len(cfgs))]
        seen = []
        apsm_run_batch(costs, cfgs, QPSK, observe=seen.append)
        assert [len(xs) for xs in seen] == [CHUNK, 1]
        assert np.shares_memory(seen[0], seen[1])

    def test_a_recorded_stack_is_observed_as_views_of_its_record(self):
        # the rows are in the engine's order: observe sees the record itself
        cfgs = [standard_config(v, max_iters=2 * CHUNK + 3) for v in ("plain", "l2", "l1")]
        costs = [small_instance(seed=s)[1] for s in range(len(cfgs))]
        seen = []
        _, traces = apsm_run_batch(costs, cfgs, QPSK, record_iterates=True,
                                   observe=seen.append)
        assert [len(xs) for xs in seen] == [CHUNK, CHUNK, 3]
        assert all(np.shares_memory(xs, trace.iterates) for xs in seen for trace in traces)
        recorded = np.stack([trace.iterates[1:] for trace in traces], axis=1)
        assert np.concatenate(seen).tobytes() == recorded.tobytes()

    # six small runs of the standard variants, 300 iterations: no row steps
    # from iteration 154 on, and the certificate holds at the first chunk
    # end after it
    STOP = 156

    def standard_stack(self, steps=300):
        costs = [small_instance(seed=s)[1] for s in range(6)]
        return costs, [standard_config(v, max_iters=steps) for v in ("plain", "l2", "l1")
                       for _ in range(2)]

    @pytest.mark.parametrize("record", [False, True])
    def test_a_standard_stack_steps_until_its_stop_and_then_clamps_its_block(
            self, monkeypatch, stepped, record):
        # two plain rows before a block of four: the ordinary iterations run
        # up to the stop a certified run makes, and each later iteration
        # perturbs and clamps the block alone, handing each chunk to observe
        costs, cfgs = self.standard_stack()
        clamped = []
        clamp = sapsm.apsm.project_box

        def counted(x, box, out=None):
            clamped.append(x.shape)
            return clamp(x, box, out=out)

        monkeypatch.setattr(sapsm.apsm, "project_box", counted)
        _, traces = apsm_run_batch(costs, cfgs, QPSK, record_iterates=record)
        last = max(int(np.flatnonzero(trace.theta).max()) for trace in traces)
        assert len(stepped) == self.STOP == CHUNK * (last // CHUNK + 1)
        assert clamped == [(4, 4)] * (300 - self.STOP)
        stepped.clear()
        assert len(certified_run(costs, cfgs, QPSK)[2]) == len(stepped) == self.STOP
        assert assert_observed_as_recorded(costs, cfgs, QPSK, record) == [CHUNK] * 25
        assert_rows_are_serial(costs, cfgs, QPSK)

    @pytest.mark.parametrize("record", [False, True])
    def test_a_sorted_stack_is_observed_through_the_tail(self, stepped, record):
        # the perturbing rows come first, so the engine sorts the stack and
        # hands over each chunk, in the tail too, as one gather; the stop
        # does not depend on the rows' order
        costs, cfgs = self.standard_stack()
        assert assert_observed_as_recorded(costs[::-1], cfgs[::-1], QPSK,
                                           record) == [CHUNK] * 25
        assert len(stepped) == 3 * self.STOP

    def test_the_tail_perturbs_from_the_slice_of_its_certificate(self, slicings):
        # every beta is at most 1: each ordinary iteration slices the block's
        # x, the certificate slices it once, at the stop, and the tail
        # slices it no more, certified or not
        costs, cfgs = self.standard_stack()
        for certify in (False, True):
            slicings.clear()
            apsm_run_batch(costs, cfgs, QPSK, certify=certify)
            assert slicings == [(4, 4)] * (self.STOP + 1)

    @pytest.mark.parametrize("dipping", [slice(None), slice(2)])
    def test_a_dipping_radius_is_not_certified_before_its_dip(self, stepped, dipping):
        # the radius of every row, or of the two plain rows alone, falls
        # back to rho0 inside the second chunk after the standard stop: the
        # certificate, which bounds by each row's least later radius,
        # refuses every chunk end before the dip, and those rows step there
        dip = self.STOP + CHUNK + 5
        costs, cfgs = self.standard_stack()
        cfgs[dipping] = [replace(cfg, rho=DippingRho(cfg.rho.rho0, cfg.rho.growth, dip))
                         for cfg in cfgs[dipping]]
        _, traces = apsm_run_batch(costs, cfgs, QPSK)
        assert all(trace.theta[dip] > 0.0 for trace in traces[dipping])
        last = max(int(np.flatnonzero(trace.theta).max()) for trace in traces)
        assert len(stepped) == CHUNK * (last // CHUNK + 1) < 300
        assert_rows_are_serial(costs, cfgs, QPSK)

    def test_a_beta_above_1_steps_and_slices_at_every_iteration(self, stepped, slicings):
        # an l1 row's beta of 1.7 may carry it out of its slicing interval:
        # no chunk end is certified, and every iteration steps and slices
        costs, cfgs = self.standard_stack()
        cfgs[-1] = replace(cfgs[-1], beta=BetaSchedule.constant(1.7))
        apsm_run_batch(costs, cfgs, QPSK)
        assert len(stepped) == len(slicings) == 300
        assert_rows_are_serial(costs, cfgs, QPSK)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tail_stacks())
    def test_recorded_stacks_are_the_serial_loop_through_the_tail(self, stack):
        costs, cfgs, c, leaves = stack
        with pytest.MonkeyPatch.context() as mp:
            stepped = counted_steps(mp)
            assert_rows_are_serial(costs, cfgs, c)
        # the certificate fires mid-run unless an edge row leaves its radius
        assert (len(stepped) < 300) != leaves

    def test_a_standard_stack_skips_most_full_gradient_tests(self, monkeypatch):
        # 16x64 16-QAM, two realizations per standard variant: the full
        # gradient test (it reads 0 here) runs in few of the ordinary
        # iterations in which some row steps, and the rows stay serial
        insts = [make_instance(ChannelModel("iid"), QAM16, 16, 64, 9.0, trial_seed(5, t))
                 for t in range(2)]
        costs = [QuadraticResidualCost(inst.H, inst.y) for inst in insts] * 3
        cfgs = [standard_config(v) for v in ("plain", "l2", "l1") for _ in insts]
        calls = {"stepping": 0, "full": 0}
        step, full = sapsm.apsm.sublevel_step, sapsm.cost._gradient_test

        def counted_step(*args):
            x, theta = step(*args)
            calls["stepping"] += bool(np.count_nonzero(theta))
            return x, theta

        def counted_full(*args):
            calls["full"] += 1
            return full(*args)

        monkeypatch.setattr(sapsm.apsm, "sublevel_step", counted_step)
        monkeypatch.setattr(sapsm.cost, "_gradient_test", counted_full)
        assert_rows_are_serial(costs, cfgs, QAM16)
        assert calls["stepping"] > 100 and 10 * calls["full"] <= calls["stepping"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batches())
    def test_every_stepped_point_lies_within_the_engine_bound(self, batch):
        costs, cfgs, c, record = batch
        step = sapsm.apsm.sublevel_step
        excess = []

        def checked(gram, hty, yty, z, rho, mu, box, z_bound):
            excess.append(float(np.abs(z).max()) - z_bound)
            return step(gram, hty, yty, z, rho, mu, box, z_bound)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sapsm.apsm, "sublevel_step", checked)
            apsm_run_batch(costs, cfgs, c, record_iterates=record)
        assert excess and max(excess) <= 0.0

    def test_costs_of_different_sizes_rejected(self):
        costs = [small_instance(seed=0)[1], small_instance(seed=1, k=4, n=8)[1]]
        cfg = standard_config("plain", max_iters=3)
        with pytest.raises(DimensionMismatch):
            apsm_run_batch(costs, [cfg, cfg], QPSK)

    def test_stack_needs_one_budget_and_one_config_per_row(self):
        costs = [small_instance(seed=0)[1], small_instance(seed=1)[1]]
        with pytest.raises(ConfigError, match="max_iters"):
            apsm_run_batch(costs, [standard_config("plain", max_iters=3),
                                   standard_config("l2", max_iters=4)], QPSK)
        for cfgs in ([standard_config("l1", max_iters=3)],
                     [standard_config("l1", max_iters=3)] * 3):
            with pytest.raises(ConfigError, match="configs for 2 problems"):
                apsm_run_batch(costs, cfgs, QPSK)

    @pytest.mark.parametrize("size", [1, 2, 15, 45, 64])
    @pytest.mark.parametrize("dim", [4, 7, 8, 32, 64])
    def test_row_products_are_the_serial_blas_call(self, size, dim):
        # The engine is bitwise its serial self only because np.matvec and
        # np.vecdot make, per row, the BLAS call a single matvec or dot
        # makes, as a stacked np.matmul does. If a numpy or BLAS upgrade
        # breaks this, outputs drift.
        rng = np.random.default_rng(1000 * size + dim)
        H = rng.standard_normal((size, 2 * dim, dim))
        gram = np.stack([h.T @ h for h in H])
        z = rng.standard_normal((size, dim))
        a = rng.standard_normal((size, dim))
        gz = np.matvec(gram, z)
        for rows in (np.arange(size), np.arange(size)[::-2], rng.permutation(size)):
            g, x, y, gx = gram[rows], z[rows], a[rows], gz[rows]
            mv = np.matvec(g, x)
            assert mv.tobytes() == np.matmul(g, x[:, :, None])[:, :, 0].tobytes()
            for u, w in ((x, y), (x, gx), (gx, gx)):
                dots = np.vecdot(u, w)
                assert dots.tobytes() == np.matmul(u[:, None, :], w[:, :, None]).tobytes()
                for j in range(rows.size):
                    assert dots[j].tobytes() == np.float64(u[j] @ w[j]).tobytes()
            for j, i in enumerate(rows):
                assert mv[j].tobytes() == (gram[i] @ z[i]).tobytes()
                assert gx[j].tobytes() == mv[j].tobytes()

def certify_pool(max_iters):
    """Configs a certified stack's rows draw from: the three standard
    variants, a plain and an l2 with constant radii (growth = 1), one that
    x_0 = 0 meets and one that the rows meet later or never, and last an
    l1 whose constant beta of 1.7 may carry it out of its slicing
    interval."""
    return (
        standard_config("plain", max_iters=max_iters),
        standard_config("l2", max_iters=max_iters),
        standard_config("l1", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(200.0), variant="plain", max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(8.0), beta=BetaSchedule.geometric(0.9), variant="l2",
                   max_iters=max_iters),
        ApsmConfig(rho=RhoSchedule(5e-5, 1.06), beta=BetaSchedule.constant(1.7), tau=0.005,
                   variant="l1", max_iters=max_iters),
    )


@st.composite
def certify_stacks(draw):
    """(costs, cfgs, constellation, each row's transmit vector) of a mixed
    stack: iid or Kronecker channels, noisy or noiseless."""
    k, n, c = draw(st.sampled_from([(4, 8, QPSK), (16, 32, QAM16)]))
    model = draw(st.sampled_from([ChannelModel("iid"), ChannelModel("kronecker", 0.8, 0.8)]))
    size = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    snrs = draw(st.lists(st.sampled_from([5.0, 9.0, 13.0, 18.0, math.inf]),
                         min_size=size, max_size=size))
    insts = [make_instance(model, c, k, n, snr, trial_seed(seed, t))
             for t, snr in enumerate(snrs)]
    pool = certify_pool(300)
    picks = draw(st.lists(st.integers(0, len(pool) - 2), min_size=size, max_size=size))
    if draw(st.booleans()):
        # the beta = 1.7 row in a stack that might otherwise be certified
        picks[draw(st.integers(0, size - 1))] = len(pool) - 1
    return ([QuadraticResidualCost(inst.H, inst.y) for inst in insts],
            [pool[i] for i in picks], c, np.stack([inst.s for inst in insts]))


def certified_run(costs, cfgs, c):
    """(final iterates, traces, the iterates it handed over as (n, B, d)) of
    a certified run."""
    seen = []
    final, traces = apsm_run_batch(costs, cfgs, c, certify=True,
                                   observe=lambda xs: seen.append(xs.copy()))
    return final, traces, np.concatenate(seen)


class TestCertifiedStop:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(certify_stacks())
    def test_a_certified_stop_keeps_every_decision_and_count(self, stack):
        costs, cfgs, c, sent = stack
        steps = cfgs[0].max_iters
        full, traces = apsm_run_batch(costs, cfgs, c, record_iterates=True)
        iterates = np.stack([trace.iterates for trace in traces], axis=1)
        # the default is the full run, bitwise
        for run in (apsm_run_batch(costs, cfgs, c, certify=False),
                    apsm_run_batch(costs, cfgs, c)):
            assert run[0].tobytes() == full.tobytes()
            assert all(a.theta.tobytes() == b.theta.tobytes()
                       for a, b in zip(run[1], traces, strict=True))
        final, certified, seen = certified_run(costs, cfgs, c)
        stop = len(seen)
        # up to the stop the certified run is the full run, bitwise; from it
        # on its thetas are 0, as are the full run's
        assert seen.tobytes() == iterates[1:stop + 1].tobytes()
        assert final.tobytes() == iterates[stop].tobytes()
        for a, b in zip(certified, traces, strict=True):
            assert a.theta[:stop].tobytes() == b.theta[:stop].tobytes()
            assert not a.theta[stop:].any() and not b.theta[stop:].any()
        # every later full iterate has the decisions of the stop, so every
        # count a sweep repeats from the stop on is the full run's
        assert (c.nearest(iterates[stop:]) == c.nearest(final)).all()
        counts = interval_errors(iterates[1:], *slicing_interval(sent, c))
        assert (counts[stop:] == counts[stop - 1]).all()
        # and lies in the hull the certificate bounded: between x_stop and
        # the point toward its slice that the remaining betas can reach,
        # min(|r|, S min(tau, |r|)) away, widened by the rounding slack
        x_stop = iterates[stop]
        r = c.nearest(x_stop) - x_stop
        reach = np.array([[schedule_table(cfg.beta, steps)[stop:].sum()] for cfg in cfgs])
        tau = np.array([[cfg.tau if cfg.variant == "l1" else math.inf] for cfg in cfgs])
        half = np.minimum(np.abs(r), reach * np.minimum(tau, np.abs(r))) / 2
        slack = (steps - stop + 1) * 2.0**-48 * c.a_max
        assert (np.abs(iterates[stop:] - x_stop - np.copysign(half, r)) <= half + slack).all()
        # a beta above 1 in the block is never certified
        if any(cfg.variant == "l1" and cfg.beta.value > 1.0 for cfg in cfgs):
            assert stop == steps and final.tobytes() == full.tobytes()

    def test_a_standard_stack_stops_at_a_chunk_end_before_its_budget(self):
        # 16x64 16-QAM at 5, 9 and 13 dB, the three standard variants
        insts = [make_instance(ChannelModel("iid"), QAM16, 16, 64, snr, trial_seed(5, t))
                 for t, snr in enumerate([5.0, 9.0, 13.0])]
        costs = [QuadraticResidualCost(inst.H, inst.y) for inst in insts] * 3
        cfgs = [standard_config(v) for v in ("plain", "l2", "l1") for _ in insts]
        full, traces = apsm_run_batch(costs, cfgs, QAM16)
        final, _, seen = certified_run(costs, cfgs, QAM16)
        stop = len(seen)
        # the first chunk end whose chunk ends on a zero theta row after the
        # full run's last positive theta
        last = max(int(np.flatnonzero(trace.theta).max()) for trace in traces)
        assert stop == CHUNK * ((last + 1) // CHUNK + 1) == 204
        assert QAM16.nearest(full).tobytes() == QAM16.nearest(final).tobytes()
        assert all(not trace.theta[stop - 1:].any() for trace in traces)
        # with a beta of 1.7 on one row, the stack goes the full budget
        cfgs[-1] = replace(cfgs[-1], beta=BetaSchedule.constant(1.7))
        full, traces = apsm_run_batch(costs, cfgs, QAM16)
        final, certified, seen = certified_run(costs, cfgs, QAM16)
        assert len(seen) == 300 and final.tobytes() == full.tobytes()
        assert all(a.theta.tobytes() == b.theta.tobytes() for a, b in zip(certified, traces))

    @pytest.mark.parametrize("excess, stop", [(0.0, 60), (1.0, 60), (1.9, 60), (2.1, CHUNK)])
    def test_a_bound_within_the_margin_of_the_radius_is_not_certified(self, excess, stop):
        # a plain row whose constant radius x_0 = 0 meets never moves;
        # its bound at the center x_0 is f(0) + 2e, f(0) = y'y exactly, so
        # it is certified at the first chunk end only once the radius
        # exceeds y'y + 2e
        inst, cost = small_instance(seed=4)
        margin = CERTIFY_MARGIN * (QPSK.a_max * np.sqrt(np.diag(cost.gram)).sum()
                                   + math.sqrt(cost.yty)) ** 2
        cfg = ApsmConfig(rho=RhoSchedule(cost.yty + excess * margin), max_iters=60)
        final, (trace,), seen = certified_run([cost], [cfg], QPSK)
        assert len(seen) == stop and not seen.any() and not final.any()
        assert not trace.theta.any()

    @pytest.mark.parametrize("rho, stop", [(1.2, 120), (2.2, CHUNK), (2.6, CHUNK)])
    def test_a_block_row_is_certified_on_the_hull_of_x_and_its_slice(self, rho, stop):
        # f(x) = ||x - (0.3, 0.3)||^2; the l2 row walks from 0 toward its
        # slice (-a, -a), a = 0.707, by 2% of the way each iteration, and no
        # theta is positive before iteration 55 at radius 1.2. At the first
        # chunk end x_12 = -0.152 and the center of the hull, -0.43, both
        # lie within 1.2, but the slice (f = 2.03) does not. Its remaining
        # betas sum to 2.16, so the hull reaches the slice, and the bound
        # f(c) + 2 |Gc - H'y|'r + r'|G|r is 2.03, f at the slice (exact for
        # a separable f): it refuses the stop, and the row steps from 55 on.
        # At radii 2.2 and 2.6 the bound admits it
        cost = QuadraticResidualCost(np.eye(2), np.array([0.3, 0.3]))
        cfg = ApsmConfig(rho=RhoSchedule(rho), beta=BetaSchedule.constant(0.02), variant="l2",
                         max_iters=120)
        full, (trace,) = apsm_run_batch([cost], [cfg], QPSK, record_iterates=True)
        final, _, seen = certified_run([cost], [cfg], QPSK)
        assert len(seen) == stop and final.tobytes() == trace.iterates[stop].tobytes()
        assert not trace.theta[:55].any()
        assert trace.theta[55:].any() == (stop == 120)

    def test_an_l2_row_is_certified_on_the_hull_its_remaining_betas_reach(self):
        # the same f; the l2 row's geometric beta 0.7^n pulls it toward the
        # slice (f = 2.03) while a radius growing from 1 by 0.5% per
        # iteration pushes it back, until its last step at 14. At the chunk
        # end 24 its remaining betas sum to 0.7^24 / 0.3 < 1e-3: the hull
        # they reach lies within the radius, while the slice, which its
        # full hull holds, lies outside every radius of the run
        cost = QuadraticResidualCost(np.eye(2), np.array([0.3, 0.3]))
        cfg = ApsmConfig(rho=RhoSchedule(1.0, 1.005), beta=BetaSchedule.geometric(0.7),
                         variant="l2", max_iters=120)
        full, (trace,) = apsm_run_batch([cost], [cfg], QPSK, record_iterates=True)
        final, _, seen = certified_run([cost], [cfg], QPSK)
        stop = len(seen)
        last = int(np.flatnonzero(trace.theta).max())
        assert last == 14 and stop == CHUNK * ((last + 1) // CHUNK + 1) == 24
        assert final.tobytes() == trace.iterates[stop].tobytes()
        assert schedule_table(cfg.beta, 120)[stop:].sum() < 1e-3
        assert cost.residual_sq(QPSK.nearest(final[0])) > trace.rho[-1]

    @pytest.mark.parametrize("share, certified", [(0.5, False), (1.01, True)])
    def test_the_hull_is_widened_by_its_rounding_slack(self, share, certified):
        # the same f, an l2 row at x_n = (-0.15, -0.15) and 100 later betas
        # of 0.02: the hull runs to the slice (-a, -a), where the bound is f
        # plus 2e. Widened by the slack s = 101 2^-48 a on each side it is
        # f(-a - s, -a - s) + 2e, 1e-12 higher; a radius midway is refused
        cost = QuadraticResidualCost(np.eye(2), np.array([0.3, 0.3]))
        x = np.full((1, 2), -0.15)
        sliced = QPSK.nearest(x)
        margin = 2 * CERTIFY_MARGIN * (2 * QPSK.a_max + math.sqrt(cost.yty)) ** 2
        bare = cost.residual_sq(sliced[0]) + margin
        widened = cost.residual_sq(sliced[0] - 101 * 2.0**-48 * QPSK.a_max) + margin
        assert widened - bare > 1e-12
        rho = np.array([bare + share * (widened - bare)])
        assert sapsm.apsm._certified(stack_costs([cost]), x, 0, QPSK, sliced,
                                     np.full((1, 1), math.inf), np.full((100, 1, 1), 0.02),
                                     rho) == certified

    def test_a_recorded_run_is_not_certified(self):
        _, cost = small_instance()
        with pytest.raises(ConfigError, match="certified"):
            apsm_run_batch([cost], [standard_config("plain", max_iters=3)], QPSK,
                           record_iterates=True, certify=True)

    @pytest.mark.parametrize("certify", [False, True])
    def test_non_finite_at_a_certifying_chunk_end_names_its_iteration(self, monkeypatch,
                                                                       certify):
        # a radius every point meets: unpoisoned, the certified stack stops
        # at the first chunk end. The step of iteration CHUNK - 1 returns a
        # nan, after a zero theta, so the chunk ends quiet on a nan iterate:
        # the certificate refuses it, and the next theta names the iteration
        steps = 40
        cfgs = [replace(standard_config(v, max_iters=steps), rho=RhoSchedule(1e3))
                for v in ("plain", "l2", "l1")]
        costs = [small_instance(seed=s)[1] for s in range(3)]
        assert len(certified_run(costs, cfgs, QPSK)[2]) == CHUNK
        step = sapsm.apsm.sublevel_step
        calls = []

        def poisoned(*args):
            calls.append(None)
            x, theta = step(*args)
            if len(calls) == CHUNK:
                x[1] = np.nan
            return x, theta

        monkeypatch.setattr(sapsm.apsm, "sublevel_step", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run_batch(costs, cfgs, QPSK, certify=certify)
        assert err.value.iteration == CHUNK
