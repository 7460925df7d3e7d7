import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sapsm.apsm
from sapsm.apsm import (
    TRACE_COLUMNS,
    IterateTrace,
    activation_index,
    apsm_run,
    apsm_run_batch,
    check_attracting,
    check_quasi_fejer,
    diagnose,
)
from sapsm.cost import (
    ApsmConfig,
    BetaSchedule,
    QuadraticResidualCost,
    RhoSchedule,
    apsm_map,
    rho_at,
    standard_config,
)
from sapsm.errors import ConfigError, DimensionMismatch, NonFiniteIterate
from sapsm.geometry import constellation, perturbation_l1, perturbation_l2
from sapsm.mimo import ChannelModel, make_instance, trial_seed
from sapsm.validation import quasi_fejer_suite

QPSK = constellation("qpsk")
QAM16 = constellation("16qam")


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
                    # the objective column is derived from the iterates
                    with pytest.raises(ConfigError):
                        trace.objective

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

    @pytest.mark.parametrize("variant", ["plain", "l2", "l1"])
    def test_non_finite_is_the_only_signal(self, variant):
        # under warnings-as-errors a run that overflows or starts from a
        # non-finite point still raises NonFiniteIterate, not a RuntimeWarning
        with np.errstate(over="ignore"):
            huge = QuadraticResidualCost(np.eye(2), np.array([1e308, 0.0]))
        _, cost = small_instance(seed=3)
        cfg = standard_config(variant, max_iters=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run_cost, x0 in ((huge, None), (cost, [np.inf, 0.0, 0.0, 0.0]),
                                 (cost, [0.0, np.nan, 0.0, 0.0])):
                with pytest.raises(NonFiniteIterate) as err:
                    apsm_run(run_cost, cfg, QPSK, x0=x0)
                assert err.value.iteration == 0

    @pytest.mark.parametrize("bad_row", [0, 1])
    def test_non_finite_mid_run_reports_its_iteration(self, monkeypatch, bad_row):
        # a mixed stack whose l2 group (two rows) turns nan from the 4th
        # perturbation on, that is at iteration 3; the other rows stay finite
        costs = [small_instance(seed=s)[1] for s in range(5)]
        cfgs = [standard_config(v, max_iters=10) for v in ("plain", "l2", "l2", "l1", "plain")]
        apsm_run_batch(costs, cfgs, QPSK)
        calls = []

        def poisoned(x, c):
            calls.append(len(x))
            v = perturbation_l2(x, c)
            if len(calls) >= 4:
                v[bad_row] = np.nan
            return v

        monkeypatch.setattr(sapsm.apsm, "perturbation_l2", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate) as err:
                apsm_run_batch(costs, cfgs, QPSK, record_iterates=True)
        assert err.value.iteration == 3
        assert calls[0] == 2

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
SIZES = {4: (2, 4, QPSK), 8: (4, 8, QPSK), 32: (16, 32, QAM16)}


def recorded_columns(trace):
    """The trace columns a run has: all of TRACE_COLUMNS when it recorded
    its iterates, every one but the derived objective otherwise."""
    if trace.iterates is not None:
        return TRACE_COLUMNS
    return tuple(col for col in TRACE_COLUMNS if col != "objective")


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
    assert (ta.variant, ta.config_hash, ta.summability_flag) == (
        tb.variant, tb.config_hash, tb.summability_flag)


def serial_reference_run(cost, cfg, c, x0=None):
    """The engine as one serial loop of 1-D numpy and Python float
    operations: the reference the batched engine must reproduce bit for
    bit. Its objective is computed in the loop, as the reference for the
    column the trace derives from its iterates. Returns (final iterate,
    TRACE_COLUMNS arrays, iterates)."""
    box = c.box()
    x = np.zeros(cost.dim_in) if x0 is None else np.array(x0, dtype=float)

    def residual(v, gv):
        return max(float(v @ gv - 2.0 * (cost.hty @ v) + cost.yty), 0.0)

    records, iterates = [], [x.copy()]
    for n in range(cfg.max_iters):
        beta_n = cfg.beta.at(n)
        pert_norm, z = 0.0, x
        if beta_n != 0.0:
            if cfg.variant == "l2":
                v = perturbation_l2(x, c)
            else:
                v = perturbation_l1(x, cfg.tau, c)
            pert_norm = beta_n * math.sqrt(float(v @ v))
            z = x + beta_n * v
        rho_n = rho_at(cfg.rho, n)
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


def config_pool(max_iters):
    """Configs a stack's rows draw from: the three standard variants, an l2
    with its own radius schedule and relaxation, an l2 whose geometric beta
    underflows to 0 by iteration 3, and an l1 with another tau and beta."""
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
    )


@st.composite
def batches(draw):
    """Problems of one size, a config per row (all with one budget; equal
    configs in a row or scattered), and start points of which some lie
    outside the box and some have -0.0 entries."""
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
    x0 = None
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-2.0, 2.0, size=(size, dim))
        x0[rng.random((size, dim)) < 0.3] = -0.0
    return costs, cfgs, c, x0, draw(st.booleans())


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batches())
    def test_each_row_is_its_single_run(self, batch):
        costs, cfgs, c, x0, record = batch
        final, traces = apsm_run_batch(costs, cfgs, c, x0, record_iterates=record)
        assert final.shape == (len(costs), costs[0].dim_in) and len(traces) == len(costs)
        for i, cost in enumerate(costs):
            single = apsm_run(cost, cfgs[i], c, None if x0 is None else x0[i],
                              record_iterates=record)
            assert_same_run((final[i], traces[i]), single)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(batches(), st.randoms(use_true_random=False))
    def test_rows_do_not_depend_on_the_stack(self, batch, rnd):
        costs, cfgs, c, x0, record = batch
        whole = apsm_run_batch(costs, cfgs, c, x0, record_iterates=record)
        # a subset of the rows in another order: groups split, merge and move
        order = rnd.sample(range(len(costs)), rnd.randint(1, len(costs)))
        part = apsm_run_batch([costs[i] for i in order], [cfgs[i] for i in order], c,
                              None if x0 is None else x0[order], record_iterates=record)
        for j, i in enumerate(order):
            assert_same_run((part[0][j], part[1][j]), (whole[0][i], whole[1][i]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batches())
    def test_rows_are_the_serial_loop(self, batch):
        costs, cfgs, c, x0, _ = batch
        final, traces = apsm_run_batch(costs, cfgs, c, x0, record_iterates=True)
        for i, cost in enumerate(costs):
            x, columns, iterates = serial_reference_run(
                cost, cfgs[i], c, None if x0 is None else x0[i])
            assert final[i].tobytes() == x.tobytes()
            for col, ref in zip(TRACE_COLUMNS, columns):
                got = getattr(traces[i], col)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), col
            assert traces[i].iterates.tobytes() == iterates.tobytes()

    def test_costs_of_different_sizes_rejected(self):
        costs = [small_instance(seed=0)[1], small_instance(seed=1, k=4, n=8)[1]]
        cfg = standard_config("plain", max_iters=3)
        with pytest.raises(DimensionMismatch):
            apsm_run_batch(costs, [cfg, cfg], QPSK)
        with pytest.raises(DimensionMismatch):
            apsm_run_batch(costs[:1], [cfg], QPSK, x0=np.zeros((2, 4)))

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
