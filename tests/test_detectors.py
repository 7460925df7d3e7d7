import itertools
from dataclasses import replace

import numpy as np
import pytest

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
from sapsm.errors import CandidateBudget, SolverFailure
from sapsm.geometry import BoxSet, constellation
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


class TestBoxOracle:
    def test_interior_optimum_matches_least_squares(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((8, 4))
        x_star = rng.uniform(-0.2, 0.2, size=4)
        inst = manual_instance(H, H @ x_star)
        res = detect_box_oracle(inst, QPSK.box(), tol=1e-12)
        assert res.converged
        np.testing.assert_allclose(res.x, x_star, atol=1e-8)

    def test_active_bound_clamps(self):
        inst = manual_instance([[2.0]], [4.0])
        res = detect_box_oracle(inst, BoxSet(1.0), tol=1e-12)
        np.testing.assert_allclose(res.x, [1.0], atol=1e-12)

    def test_first_order_condition(self):
        for seed in range(10):
            inst = rand_instance(seed + 200)
            res = detect_box_oracle(inst, QPSK.box(), tol=1e-10)
            cost = QuadraticResidualCost(inst.H, inst.y)
            assert res.converged
            assert first_order_residual(cost, res.x, QPSK.box(), res.lipschitz) <= 1e-9

    def test_beats_random_feasible_points(self):
        inst = rand_instance(300)
        cost = QuadraticResidualCost(inst.H, inst.y)
        res = detect_box_oracle(inst, QPSK.box(), tol=1e-10)
        obj = cost.residual_sq(res.x)
        rng = np.random.default_rng(3)
        samples = rng.uniform(-QPSK.a_max, QPSK.a_max, size=(100_000, 8))
        gram = cost.gram
        objs = (np.einsum("ij,ij->i", samples @ gram, samples)
                - 2.0 * samples @ cost.hty + cost.yty)
        assert obj <= objs.min() + 1e-9

    def test_budget_exhaustion_flag(self):
        inst = rand_instance(301)
        res = detect_box_oracle(inst, QPSK.box(), tol=1e-16, max_iters=3)
        assert not res.converged
        assert res.iterations == 3
        assert np.all(np.abs(res.x) <= QPSK.a_max)


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
        cfg = replace(standard_config("l2", max_iters=120), beta=BetaSchedule.none())
        x_plain, t_plain = detect(DetectorKind.APSM_PLAIN, inst, QPSK, cfg,
                                  record_iterates=True)
        x_l2, t_l2 = detect(DetectorKind.APSM_L2, inst, QPSK, cfg,
                            record_iterates=True)
        np.testing.assert_array_equal(x_plain, x_l2)
        np.testing.assert_array_equal(t_plain.iterates, t_l2.iterates)
        for name in ("theta", "objective", "step_norm", "pert_norm"):
            np.testing.assert_array_equal(getattr(t_plain, name), getattr(t_l2, name))

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
            box = detect_box_oracle(inst, QPSK.box(), tol=1e-10)
            if cost.residual_sq(x) <= 1.5 * cost.residual_sq(box.x):
                hits += 1
        assert hits >= 19
