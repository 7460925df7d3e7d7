"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavyweight experiments are shared through module-scoped fixtures; the
per-criterion lines print to the terminal even under output capture.
"""

import time

import numpy as np
import pytest

from sapsm.apsm import AuditResult, apsm_run, check_quasi_fejer
from sapsm.cost import QuadraticResidualCost, standard_config
from sapsm.detectors import (
    DetectorKind as D,
    detect,
    detect_box_oracle,
    detect_constrained_lmmse,
    detect_lmmse,
)
from sapsm.geometry import constellation
from sapsm.mimo import ChannelInstance, ChannelModel, make_instance, realify, trial_seed
from sapsm.sim import ExperimentConfig, run_ser_vs_snr, table_text
from sapsm.validation import attracting_step_suite, prox_grid_suite

from helpers import first_order_residual

QAM16 = constellation("16qam")
QPSK = constellation("qpsk")

SEED_FEAS = 20_240_901
SEED_BOX = 20_240_904
SEED_ML = 20_240_905
SEED_ALPHA = 20_240_906
SEED_CORR = 20_240_908

VARIANTS = ("plain", "l2", "l1")


def report(capsys, num, passed, detail):
    # print through the capture so the line lands in the terminal/tee
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {'PASS' if passed else 'FAIL'}: {detail}",
              flush=True)
    assert passed, detail


@pytest.fixture(scope="module")
def reference_runs():
    """Criteria 1+2 workload: 500 trials x 3 variants of the 16x64 setup."""
    trials, iters = 500, 300
    configs = {v: standard_config(v, max_iters=iters) for v in VARIANTS}
    feasible = {v: 0 for v in VARIANTS}
    audits = AuditResult()
    run_time = 0.0
    for t in range(trials):
        inst = make_instance(ChannelModel("iid"), QAM16, 16, 64, 9.0,
                             trial_seed(SEED_FEAS, t))
        cost = QuadraticResidualCost(inst.H, inst.y)
        for v in VARIANTS:
            t0 = time.perf_counter()
            _, trace = apsm_run(cost, configs[v], QAM16, record_iterates=True)
            run_time += time.perf_counter() - t0
            if trace.theta[-1] == 0.0:
                feasible[v] += 1
            audits += check_quasi_fejer(trace, trace.iterates, inst.s, cost,
                                        configs[v])
    return {"trials": trials, "feasible": feasible, "audits": audits,
            "run_time": run_time}


@pytest.fixture(scope="module")
def correlated_experiment():
    """Criteria 8+9 workload: Kronecker 0.8 at 18 dB, 2000 paired trials."""
    cfg = ExperimentConfig(
        k=16, n=64, modulation="16qam",
        channel=ChannelModel("kronecker", 0.8, 0.8),
        detectors=(D.APSM_L1, D.APSM_PLAIN, D.CONSTRAINED_LMMSE),
        snr_db=(18.0,), trials=2000, max_iters=300, master_seed=SEED_CORR,
    )
    table = run_ser_vs_snr(cfg, workers=1)
    return cfg, table, table_text(table, "csv")


def test_criterion_1_feasibility(reference_runs, capsys):
    r = reference_runs
    shares = {v: r["feasible"][v] / r["trials"] for v in VARIANTS}
    ok = all(s >= 0.99 for s in shares.values()) and r["run_time"] < 60.0
    report(capsys, 1, ok,
           f"terminal sublevel feasibility {shares} (need >= 0.99 each), "
           f"engine time {r['run_time']:.1f}s (< 60s)")


def test_criterion_2_quasi_fejer(reference_runs, capsys):
    audits = reference_runs["audits"]
    report(capsys, 2, audits.passed,
           f"{audits.violations} violations / {audits.checked} audited steps "
           f"(worst excess {audits.max_excess:.2e}, tol 1e-9)")


def test_criterion_3_attracting_steps(capsys):
    res = attracting_step_suite(draws=10_000, seed=20_240_903).audit
    report(capsys, 3, res.violations == 0 and res.checked == 10_000,
           f"{res.violations} violations / {res.checked} random single steps "
           f"(kappa=0.65, tol 1e-9, worst excess {res.max_excess:.2e})")


def test_criterion_4_box_proximity(capsys):
    instances = 100
    close = 0
    first_order_ok = True
    tol = 1e-10
    for i in range(instances):
        inst = make_instance(ChannelModel("iid"), QPSK, 4, 8, 10.0,
                             trial_seed(SEED_BOX, i))
        cost = QuadraticResidualCost(inst.H, inst.y)
        x, _ = detect(D.APSM_PLAIN, inst, QPSK)
        box = detect_box_oracle(inst, QPSK.box())
        resid = first_order_residual(cost, box.x, QPSK.box())
        first_order_ok &= box.converged and resid <= 10 * tol
        if cost.residual_sq(x) <= 1.5 * cost.residual_sq(box.x):
            close += 1
    ok = close >= 95 and first_order_ok
    report(capsys, 4, ok,
           f"plain final objective within 1.5x of box optimum on {close}/100 "
           f"instances (need >= 95); box first-order residual <= 1e-9: "
           f"{first_order_ok}")


def test_criterion_5_ml_dominance(capsys):
    cfg = ExperimentConfig(
        k=2, n=4, modulation="qpsk", channel=ChannelModel("iid"),
        detectors=tuple(D), snr_db=(8.0,), trials=2000, max_iters=300,
        master_seed=SEED_ML,
    )
    rows = {r.detector: r for r in run_ser_vs_snr(cfg, workers=1).rows}
    ml = rows["ml_bruteforce"]
    failures = []
    for name, row in rows.items():
        if name == "ml_bruteforce":
            continue
        se = np.sqrt(max(row.ser * (1 - row.ser), 0.0) / row.symbols)
        if ml.ser > row.ser + 2 * se:
            failures.append(name)
    sers = {name: round(r.ser, 5) for name, r in rows.items()}
    report(capsys, 5, not failures,
           f"ml ser {ml.ser:.5f} vs others within 2 SE {sers}; "
           f"violations: {failures or 'none'}")


def test_criterion_6_closed_form_baselines(capsys):
    ident = ChannelInstance(H=realify(np.eye(1)), s=np.zeros(2),
                            y=np.array([1.0, -1.0]), sigma2=1.0)
    lm = detect_lmmse(ident)
    cl = detect_constrained_lmmse(ident)
    exact = (np.max(np.abs(lm - [0.5, -0.5])) <= 1e-12
             and np.max(np.abs(cl - [1.0, -1.0])) <= 1e-12)
    worst_alpha = 0.0
    for i in range(100):
        inst = make_instance(ChannelModel("iid"), QAM16, 4, 8, 9.0,
                             trial_seed(SEED_ALPHA, i))
        base = detect_lmmse(inst)
        scaled = detect_constrained_lmmse(inst)
        A = inst.H @ inst.H.T + inst.sigma2 * np.eye(inst.H.shape[0])
        for k in range(inst.H.shape[1]):
            h_k = inst.H[:, k]
            alpha_k = 1.0 / (h_k @ np.linalg.solve(A, h_k))
            worst_alpha = max(worst_alpha,
                              abs(scaled[k] - alpha_k * base[k]))
    ok = exact and worst_alpha <= 1e-10
    report(capsys, 6, ok,
           f"identity-channel examples exact to 1e-12: {exact}; worst alpha "
           f"gap over 100 instances {worst_alpha:.2e} (tol 1e-10)")


def test_criterion_7_prox_oracle(capsys):
    res = prox_grid_suite(cases=10_000, seed=20_240_907).audit
    report(capsys, 7, res.violations == 0 and res.checked == 10_000,
           f"{res.violations} objective gaps beyond 1e-6 over {res.checked} "
           f"random (x, tau) draws (worst excess {res.max_excess:.2e})")


def test_criterion_8_correlated_ordering(correlated_experiment, capsys):
    _, table, _ = correlated_experiment
    rows = {r.detector: r for r in table.rows}
    l1, plain, clmmse = (rows["apsm_l1"], rows["apsm_plain"],
                         rows["constrained_lmmse"])
    ok = l1.errors <= plain.errors <= clmmse.errors
    report(capsys, 8, ok,
           f"error counts l1={l1.errors} <= plain={plain.errors} <= "
           f"constrained_lmmse={clmmse.errors} over {l1.symbols} symbols "
           f"(ser {l1.ser:.5f} / {plain.ser:.5f} / {clmmse.ser:.5f})")


def test_criterion_9_worker_determinism(correlated_experiment, capsys):
    cfg, _, text_serial = correlated_experiment
    text_parallel = table_text(run_ser_vs_snr(cfg, workers=8), "csv")
    report(capsys, 9, text_parallel == text_serial,
           f"workers=1 and workers=8 emit byte-identical CSV "
           f"({len(text_serial)} bytes)")
