import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapsm import detectors
from sapsm.cost import BetaSchedule, QuadraticResidualCost, standard_config
from sapsm.detectors import (
    DetectorKind,
    detect,
    detect_box_oracle,
    detect_constrained_lmmse,
    detect_lmmse,
    detect_ml_bruteforce,
    first_order_residual,
)
from sapsm.errors import CandidateBudget, ConfigError, SolverFailure
from sapsm.geometry import BoxSet, constellation, project_box
from sapsm.mimo import ChannelInstance, ChannelModel, make_instance, realify, trial_seed

QPSK = constellation("qpsk")
QAM16 = constellation("16qam")

ALL_KINDS = tuple(DetectorKind)


def manual_instance(H, y, sigma2=0.0, s=None):
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    s = np.zeros(H.shape[1]) if s is None else np.asarray(s, dtype=float)
    return ChannelInstance(H=H, s=s, w=y - H @ s, y=y, sigma2=sigma2, seed=0)


def rand_instance(seed, k=4, n=8, snr=10.0, c=QPSK):
    return make_instance(ChannelModel("iid"), c, k, n, snr, trial_seed(555, seed))


class TestLmmse:
    def test_identity_channel_shrinkage(self):
        inst = manual_instance(realify(np.eye(1)), [1.0, -1.0], sigma2=1.0)
        np.testing.assert_allclose(detect_lmmse(inst), [0.5, -0.5], atol=1e-12)

    def test_zero_noise_limit_inverts(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        inst = manual_instance(H, y, sigma2=0.0)
        np.testing.assert_allclose(detect_lmmse(inst), np.linalg.solve(H, y),
                                   atol=1e-9)

    def test_normal_equation_residual(self):
        for seed in range(20):
            inst = rand_instance(seed)
            x = detect_lmmse(inst)
            A = inst.H.T @ inst.H + inst.sigma2 * np.eye(inst.H.shape[1])
            b = inst.H.T @ inst.y
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_system_is_structured_error(self):
        # rank-1 channel with zero regularization
        inst = manual_instance([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], sigma2=0.0)
        with pytest.raises(SolverFailure):
            detect_lmmse(inst)
        with pytest.raises(SolverFailure):
            detect_constrained_lmmse(inst)


class TestConstrainedLmmse:
    def test_identity_channel_bias_removal(self):
        inst = manual_instance(realify(np.eye(1)), [1.0, -1.0], sigma2=1.0)
        np.testing.assert_allclose(detect_constrained_lmmse(inst), [1.0, -1.0],
                                   atol=1e-12)

    def test_vanishing_regularization_unbiases(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((4, 4))
        y = rng.standard_normal(4)
        inst = manual_instance(H, y, sigma2=1e-12)
        np.testing.assert_allclose(detect_constrained_lmmse(inst),
                                   detect_lmmse(inst), rtol=1e-5, atol=1e-9)

    def test_noiseless_full_rank_is_zero_forcing(self):
        # sigma2 = 0 with H of full column rank: H'H is invertible, every
        # alpha_k is 1 and the estimate is the least-squares solution (the
        # 2N x 2N output covariance HH' would be singular here)
        rng = np.random.default_rng(2)
        H = rng.standard_normal((8, 4))
        y = rng.standard_normal(8)
        inst = manual_instance(H, y, sigma2=0.0)
        np.testing.assert_allclose(detect_constrained_lmmse(inst),
                                   np.linalg.lstsq(H, y, rcond=None)[0],
                                   rtol=1e-10, atol=1e-12)

    def test_alpha_matches_per_column_solves(self):
        for seed in range(20):
            inst = rand_instance(seed + 100)
            base = detect_lmmse(inst)
            scaled = detect_constrained_lmmse(inst)
            A = inst.H @ inst.H.T + inst.sigma2 * np.eye(inst.H.shape[0])
            for k in range(inst.H.shape[1]):
                h_k = inst.H[:, k]
                alpha_k = 1.0 / (h_k @ np.linalg.solve(A, h_k))
                assert abs(scaled[k] - alpha_k * base[k]) <= 1e-10 * (1 + abs(scaled[k]))


def projected_gradient_box(cost, box, tol=1e-13, max_iters=200_000):
    """Projected gradient with step 1/L: a slow solver of the box relaxation
    that shares no logic with the active-set oracle, the reference on small,
    well-conditioned cases."""
    lipschitz = 2.0 * float(np.linalg.eigvalsh(cost.gram)[-1])
    x = np.zeros(cost.dim_in)
    for _ in range(max_iters):
        x_next = project_box(x - cost.gradient(x) / lipschitz, box)
        step = np.linalg.norm(x_next - x)
        x = x_next
        if step <= tol:
            return x
    raise AssertionError("projected-gradient reference did not converge")


def kkt_holds(cost, x, box, rtol=1e-9):
    """Feasible, zero gradient off the bounds, outward gradient on them."""
    g = cost.gradient(x)
    tol = rtol * (1.0 + np.abs(cost.gram).max() + np.abs(cost.hty).max())
    at_bound = np.abs(x) == box.a_max
    return bool(np.all(np.abs(x) <= box.a_max)
                and np.all(np.abs(g[~at_bound]) <= tol)
                and np.all(np.sign(x[at_bound]) * g[at_bound] <= tol))


@st.composite
def box_problems(draw):
    """Small instances whose box optimum is interior, entirely at the
    bounds, or mixed; dimension 1 included."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(2 * d, 3 * d + 2))
    kind = draw(st.sampled_from(["interior", "bound", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.standard_normal((n, d))
    if kind == "interior":
        return manual_instance(H, H @ rng.uniform(-0.5, 0.5, d))
    if kind == "bound":
        # orthogonal columns decouple the coordinates, so clipping a target
        # outside the box puts every one of them on a bound
        H = np.linalg.qr(H)[0] * rng.uniform(0.5, 2.0, d)
        target = rng.choice([-1.0, 1.0], d) * rng.uniform(1.5, 4.0, d)
        return manual_instance(H, H @ target)
    return manual_instance(H, H @ rng.uniform(-2.0, 2.0, d)
                           + 0.3 * rng.standard_normal(n))


class TestBoxOracle:
    def test_interior_optimum_matches_least_squares(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((8, 4))
        x_star = rng.uniform(-0.2, 0.2, size=4)
        inst = manual_instance(H, H @ x_star)
        res = detect_box_oracle(inst, QPSK.box())
        assert res.converged
        np.testing.assert_allclose(res.x, x_star, atol=1e-8)

    def test_active_bound_clamps(self):
        inst = manual_instance([[2.0]], [4.0])
        res = detect_box_oracle(inst, BoxSet(1.0))
        np.testing.assert_allclose(res.x, [1.0], atol=1e-12)

    def test_first_order_condition(self):
        for seed in range(10):
            inst = rand_instance(seed + 200)
            res = detect_box_oracle(inst, QPSK.box())
            cost = QuadraticResidualCost(inst.H, inst.y)
            assert res.converged
            assert first_order_residual(cost, res.x, QPSK.box()) <= 1e-9

    def test_first_order_condition_on_correlated_channels(self):
        box = QAM16.box()
        for seed in range(10):
            inst = make_instance(ChannelModel("kronecker", 0.8, 0.8), QAM16, 16, 64,
                                 18.0, trial_seed(556, seed))
            res = detect_box_oracle(inst, box)
            cost = QuadraticResidualCost(inst.H, inst.y)
            assert res.converged
            assert first_order_residual(cost, res.x, box) <= 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(box_problems())
    def test_matches_projected_gradient_reference(self, inst):
        cost = QuadraticResidualCost(inst.H, inst.y)
        box = QPSK.box()
        ref = projected_gradient_box(cost, box)
        res = detect_box_oracle(inst, box)
        assert res.converged
        assert kkt_holds(cost, res.x, box)
        np.testing.assert_allclose(res.x, ref, rtol=0, atol=1e-7)
        ref_obj = cost.residual_sq(ref)
        assert cost.residual_sq(res.x) <= ref_obj + 1e-12 * (1.0 + ref_obj)

    def test_beats_random_feasible_points(self):
        inst = rand_instance(300)
        cost = QuadraticResidualCost(inst.H, inst.y)
        res = detect_box_oracle(inst, QPSK.box())
        obj = cost.residual_sq(res.x)
        rng = np.random.default_rng(3)
        samples = rng.uniform(-QPSK.a_max, QPSK.a_max, size=(100_000, 8))
        gram = cost.gram
        objs = (np.einsum("ij,ij->i", samples @ gram, samples)
                - 2.0 * samples @ cost.hty + cost.yty)
        assert obj <= objs.min() + 1e-9

    def test_budget_exhaustion_flag(self, monkeypatch):
        monkeypatch.setattr(detectors, "ACTIVE_SET_SOLVES", 1)
        inst = rand_instance(301)
        res = detect_box_oracle(inst, QPSK.box())
        assert not res.converged
        assert res.iterations == 1
        assert np.all(np.abs(res.x) <= QPSK.a_max)

    def test_zero_channel_has_no_energy(self):
        inst = manual_instance(np.zeros((4, 2)), np.ones(4))
        with pytest.raises(SolverFailure, match="no energy"):
            detect_box_oracle(inst, QPSK.box())

    def test_duplicated_columns_raise_or_certify(self):
        # H'H is singular; an answer flagged converged must still be optimal
        box = BoxSet(1.0)
        with pytest.raises(SolverFailure):
            detect_box_oracle(manual_instance([[1.0, 1.0], [2.0, 2.0]], [0.5, 1.0]), box)
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            H = rng.standard_normal((2 * d, d))
            H[:, rng.integers(1, d)] = H[:, 0]
            inst = manual_instance(H, H @ rng.uniform(-2.0, 2.0, d)
                                   + 0.1 * rng.standard_normal(2 * d))
            try:
                res = detect_box_oracle(inst, box)
            except SolverFailure:
                continue
            cost = QuadraticResidualCost(inst.H, inst.y)
            assert np.all(np.abs(res.x) <= box.a_max)
            if res.converged:
                assert kkt_holds(cost, res.x, box)
                ref_obj = cost.residual_sq(projected_gradient_box(cost, box, tol=1e-12))
                assert cost.residual_sq(res.x) <= ref_obj + 1e-9


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would add about 0.3 s of import time and 20 MB of
    # resident memory to every run
    code = ("import sys, sapsm; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


class TestMlBruteforce:
    def test_noiseless_recovers_truth(self):
        rng = np.random.default_rng(4)
        Hc = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        H = realify(Hc / np.linalg.norm(Hc, axis=0))
        s = QPSK.levels[rng.integers(0, 2, size=4)]
        inst = manual_instance(H, H @ s, s=s)
        np.testing.assert_array_equal(detect_ml_bruteforce(inst, QPSK), s)

    def test_hand_enumeration_k1(self):
        inst = rand_instance(400, k=1, n=2, snr=3.0)
        best = min(
            (np.array(cand) for cand in itertools.product(QPSK.levels, repeat=2)),
            key=lambda x: float(np.sum((inst.H @ x - inst.y) ** 2)),
        )
        np.testing.assert_array_equal(detect_ml_bruteforce(inst, QPSK), best)

    def test_dominates_all_other_detectors(self):
        c = QPSK
        for seed in range(10):
            inst = rand_instance(seed + 500, k=2, n=4, snr=6.0)
            cost = QuadraticResidualCost(inst.H, inst.y)
            ml = detect_ml_bruteforce(inst, c)
            ml_obj = cost.residual_sq(ml)
            for kind in ALL_KINDS:
                if kind is DetectorKind.ML_BRUTEFORCE:
                    continue
                x_hat, _ = detect(kind, inst, c)
                sliced = c.nearest(x_hat)
                assert ml_obj <= cost.residual_sq(sliced) + 1e-9

    def test_tie_break_is_first_candidate(self):
        # zero channel: every candidate has equal objective
        inst = manual_instance(np.zeros((4, 4)), np.ones(4))
        out = detect_ml_bruteforce(inst, QPSK)
        np.testing.assert_array_equal(out, np.full(4, QPSK.levels[0]))

    def test_budget_refusal_names_count(self):
        inst = rand_instance(600, k=11, n=11, c=QAM16)
        with pytest.raises(CandidateBudget) as err:
            detect_ml_bruteforce(inst, QAM16)
        assert err.value.count == 4**22


class TestDispatch:
    def test_noiseless_identity_channel_all_kinds(self):
        rng = np.random.default_rng(5)
        k = 2
        H = realify(np.eye(k))
        s = QPSK.levels[rng.integers(0, 2, size=2 * k)]
        inst = manual_instance(H, H @ s, s=s)
        for kind in ALL_KINDS:
            x_hat, _ = detect(kind, inst, QPSK)
            np.testing.assert_array_equal(QPSK.nearest(x_hat), s,
                                          err_msg=str(kind))

    def test_plain_equals_l2_with_zero_beta(self):
        inst = rand_instance(700)
        plain = standard_config("plain", max_iters=120)
        l2 = replace(standard_config("l2", max_iters=120), beta=BetaSchedule.none())
        x_plain, t_plain = detect(DetectorKind.APSM_PLAIN, inst, QPSK, plain,
                                  record_iterates=True)
        x_l2, t_l2 = detect(DetectorKind.APSM_L2, inst, QPSK, l2,
                            record_iterates=True)
        np.testing.assert_array_equal(x_plain, x_l2)
        np.testing.assert_array_equal(t_plain.iterates, t_l2.iterates)
        for name in ("theta", "objective", "step_norm", "pert_norm"):
            np.testing.assert_array_equal(getattr(t_plain, name), getattr(t_l2, name))

    def test_config_of_another_variant_rejected(self):
        inst = rand_instance(700)
        with pytest.raises(ConfigError):
            detect(DetectorKind.APSM_PLAIN, inst, QPSK, standard_config("l2"))
        with pytest.raises(ConfigError):
            detect(DetectorKind.APSM_L1, inst, QPSK, standard_config("l2"))

    def test_outputs_respect_their_sets(self):
        inst = rand_instance(800)
        for kind in (DetectorKind.APSM_PLAIN, DetectorKind.APSM_L2,
                     DetectorKind.APSM_L1, DetectorKind.BOX_ORACLE):
            x_hat, _ = detect(kind, inst, QPSK)
            assert np.all(np.abs(x_hat) <= QPSK.a_max + 1e-15), kind
        x_ml, _ = detect(DetectorKind.ML_BRUTEFORCE, inst, QPSK)
        assert np.all(np.isin(x_ml, QPSK.levels))

    def test_apsm_kinds_return_traces(self):
        inst = rand_instance(900)
        for kind in ALL_KINDS:
            _, trace = detect(kind, inst, QPSK)
            if kind in (DetectorKind.APSM_PLAIN, DetectorKind.APSM_L2,
                        DetectorKind.APSM_L1):
                assert trace is not None and len(trace) > 0
            else:
                assert trace is None

    def test_box_proximity_of_plain_apsm(self):
        # unperturbed variant lands near the box optimum on most instances
        hits = 0
        for seed in range(20):
            inst = rand_instance(seed + 1000)
            cost = QuadraticResidualCost(inst.H, inst.y)
            x, _ = detect(DetectorKind.APSM_PLAIN, inst, QPSK)
            box = detect_box_oracle(inst, QPSK.box())
            if cost.residual_sq(x) <= 1.5 * cost.residual_sq(box.x):
                hits += 1
        assert hits >= 19
