import csv

import numpy as np
import pytest

from sapsm.apsm import (
    IterateTrace,
    activation_index,
    apsm_run,
    check_attracting,
    check_quasi_fejer,
    diagnose,
)
from sapsm.cost import (
    ApsmConfig,
    QuadraticResidualCost,
    RhoSchedule,
    apsm_map,
    rho_at,
    standard_config,
)
from sapsm.errors import DimensionMismatch, NonFiniteIterate
from sapsm.geometry import constellation, perturbation_l1, perturbation_l2
from sapsm.mimo import ChannelModel, make_instance, trial_seed
from sapsm.validation import quasi_fejer_suite

QPSK = constellation("qpsk")


def small_instance(seed=0, k=2, n=4, snr=8.0):
    inst = make_instance(ChannelModel("iid"), QPSK, k, n, snr, trial_seed(99, seed))
    return inst, QuadraticResidualCost(inst.H, inst.y)


class TestRun:
    def test_feasible_start_is_fixed_point(self):
        x0 = np.array([0.5, -0.5])
        cost = QuadraticResidualCost(np.eye(2), x0.copy())
        cfg = ApsmConfig(rho=RhoSchedule(1e-3, 1.0), variant="plain", max_iters=50)
        x, trace = apsm_run(cost, cfg, QPSK, x0=x0)
        np.testing.assert_array_equal(x, x0)
        assert np.all(trace.step_norm == 0.0)
        assert np.all(trace.theta == 0.0)

    def test_interior_least_squares_reachable(self):
        # identity channel, target inside the box: iterates converge onto it
        y = np.array([0.4, -0.4])
        cost = QuadraticResidualCost(np.eye(2), y)
        cfg = ApsmConfig(rho=RhoSchedule(1e-30, 1.0), mu=1.0, variant="plain",
                         max_iters=200)
        x, trace = apsm_run(cost, cfg, QPSK)
        np.testing.assert_allclose(x, y, atol=1e-6)
        assert trace.objective[-1] < 1e-12

    def test_l1_terminal_sublevel_feasibility(self):
        inst, cost = small_instance(seed=1)
        cfg = standard_config("l1", max_iters=300)
        x, trace = apsm_run(cost, cfg, QPSK)
        rho_final = rho_at(cfg.rho, int(trace.n[-1]))
        assert cost.residual_sq(x) <= rho_final + 1e-9

    def test_iterates_stay_in_box(self):
        inst, cost = small_instance(seed=2)
        for variant in ("plain", "l2", "l1"):
            _, trace = apsm_run(cost, standard_config(variant, max_iters=120),
                                QPSK, x0=np.full(4, 5.0), record_iterates=True)
            assert np.all(np.abs(trace.iterates[1:]) <= QPSK.a_max + 1e-15)

    def test_deterministic_reruns(self):
        inst, cost = small_instance(seed=3)
        cfg = standard_config("l1", max_iters=150)
        x1, t1 = apsm_run(cost, cfg, QPSK, record_iterates=True)
        x2, t2 = apsm_run(cost, cfg, QPSK, record_iterates=True)
        np.testing.assert_array_equal(x1, x2)
        for name in ("theta", "objective", "rho", "step_norm", "pert_norm"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
        np.testing.assert_array_equal(t1.iterates, t2.iterates)

    def test_stop_eps_halts_early(self):
        x0 = np.array([0.5, -0.5])
        cost = QuadraticResidualCost(np.eye(2), x0.copy())
        cfg = ApsmConfig(rho=RhoSchedule(1e-3, 1.0), variant="plain",
                         max_iters=50, stop_eps=1e-12)
        _, trace = apsm_run(cost, cfg, QPSK, x0=x0)
        assert len(trace) == 1

    def test_record_budget(self):
        inst, cost = small_instance(seed=4)
        cfg = standard_config("l2", max_iters=75)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        assert len(trace) <= cfg.max_iters
        assert trace.iterates.shape == (len(trace) + 1, 4)

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
                    step = apsm_map(cost, x, rho_at(cfg.rho, n), cfg.mu, box)
                    np.testing.assert_array_equal(step, trace.iterates[n + 1])

    def test_dimension_mismatch(self):
        inst, cost = small_instance(seed=5)
        with pytest.raises(DimensionMismatch):
            apsm_run(cost, standard_config("plain"), QPSK, x0=np.zeros(3))

    def test_non_finite_raises_with_iteration(self):
        with np.errstate(over="ignore"):
            cost = QuadraticResidualCost(np.eye(2), np.array([1e308, 0.0]))
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run(cost, standard_config("plain", max_iters=5), QPSK)
        assert err.value.iteration == 0

    def test_metadata(self):
        inst, cost = small_instance(seed=6)
        for variant, summable in (("plain", True), ("l2", True), ("l1", False)):
            cfg = standard_config(variant, max_iters=10)
            _, trace = apsm_run(cost, cfg, QPSK)
            assert trace.variant == variant
            assert trace.summability_flag is summable
            assert trace.config_hash == cfg.config_hash()


class TestAudits:
    def test_plain_is_fejer_monotone_after_activation(self):
        inst, cost = small_instance(seed=7)
        cfg = standard_config("plain", max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        audit = check_quasi_fejer(trace, trace.iterates, inst.s, cost, cfg)
        assert audit.checked > 0
        assert audit.violations == 0

    def test_l2_geometric_500_seeded_trials(self):
        result = quasi_fejer_suite(trials=500, seed=11, variants=("l2",))
        assert result.checked > 0
        assert result.violations == 0

    def test_infeasible_reference_excluded(self):
        inst, cost = small_instance(seed=8)
        cfg = standard_config("plain", max_iters=40)  # rho never reaches ||w||^2
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        assert activation_index(trace, cost.residual_sq(inst.s)) is None
        audit = check_quasi_fejer(trace, trace.iterates, inst.s, cost, cfg)
        assert audit.checked == 0 and audit.violations == 0

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

    def test_telescoped_step_energy_is_bounded(self):
        # kappa * sum of squared steps <= ||x_a - z||^2 + sum gamma_n
        inst, cost = small_instance(seed=12)
        cfg = standard_config("l2", max_iters=260)
        _, trace = apsm_run(cost, cfg, QPSK, record_iterates=True)
        start = activation_index(trace, cost.residual_sq(inst.s))
        assert start is not None
        kappa = 1.0 - cfg.mu / 2.0
        steps = trace.step_norm[start:]
        d0 = np.linalg.norm(trace.iterates[start] - inst.s)
        betas = np.array([cfg.beta.at(int(k)) for k in trace.n[start:]])
        dists = np.linalg.norm(trace.iterates[start:-1] - inst.s, axis=1)
        v_norms = np.where(betas > 0, trace.pert_norm[start:] / np.maximum(betas, 1e-300), 0.0)
        r = max(float(np.max(dists + kappa * steps)), float(np.max(v_norms)))
        gamma_total = float(np.sum(betas)) * r**2 * (2.0 + cfg.beta.series_sum(cfg.max_iters))
        assert kappa * float(np.sum(steps**2)) <= d0**2 + gamma_total + 1e-9

    def test_steps_decay_on_converging_runs(self):
        inst, cost = small_instance(seed=13)
        _, trace = apsm_run(cost, standard_config("plain", max_iters=300), QPSK)
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
        _, trace = apsm_run(cost, standard_config("l2", max_iters=20), QPSK)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace)
        assert set(rows[0]) == {"n", "theta", "objective", "rho", "step_norm", "pert_norm"}
        np.testing.assert_allclose(
            [float(r["objective"]) for r in rows], trace.objective, rtol=0)
