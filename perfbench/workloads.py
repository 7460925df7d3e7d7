"""Workload definitions, the timed loop and the correctness checks.

Every call into the package goes through a module attribute
(``sim.run_ser_vs_snr``, ``detectors.detect``, ...) so that the tracer in
``spans.py`` sees it. A *trial* is one channel realization passed through
every detector of the workload; for ``validate`` it is one
``run_all_suites`` call at a tenth of its default sizes.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sapsm.apsm as apsm
import sapsm.detectors as detectors
import sapsm.mimo as mimo
import sapsm.sim as sim
import sapsm.validation as validation
from sapsm.cost import VARIANTS, QuadraticResidualCost, standard_config
from sapsm.detectors import DetectorKind as D
from sapsm.geometry import constellation
from sapsm.mimo import ChannelModel, trial_seed

import speed
from spans import patched

REFERENCE_FILE = Path(__file__).with_name("reference.json")

ALL_DETECTORS = (D.APSM_PLAIN, D.APSM_L2, D.APSM_L1, D.LMMSE,
                 D.CONSTRAINED_LMMSE, D.BOX_ORACLE)
APSM_KINDS = tuple(detectors._APSM_VARIANT)
# l1's beta is constant (not summable), so its audits are reported, not gated.
GATED_VARIANTS = ("plain", "l2")

# Two-proportion test against the stored reference SER: |p - p_ref| must stay
# within Z * sqrt(D * p_pool (1 - p_pool) (1/n + 1/N)). D inflates the
# binomial variance for errors that cluster within a realization; it is
# measured per workload by make_reference.py.
SER_Z = 5.0

# run_all_suites at a tenth of its default sizes (2000 prox cases, 2000
# attracting draws, 40 + 20 audited runs): one call takes about 0.2 s, short
# enough that the median over a run's calls is steady on a shared VM, while
# the mix of suites (and so of layers) stays that of the default call.
VALIDATE_SIZES = {"prox_cases": 200, "attracting_draws": 200, "qf_trials": 4}

# Salt for the realizations the check pass uses, so they differ from the
# timed batches of the same seed.
CHECK_SALT = 7_919
# Realizations audited by the check pass after the timed loop.
CHECK_TRIALS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "snr", "iter" or "validate"
    detectors: tuple = ALL_DETECTORS
    channel: ChannelModel = field(default_factory=ChannelModel)
    snr_db: tuple = (9.0,)
    trials: int = 1  # per SNR point and batch
    k: int = 16
    n: int = 64
    modulation: str = "16qam"
    checkpoints: tuple = ()  # iterations whose SER is checked (iter sweeps)

    @property
    def trials_per_batch(self) -> int:
        if self.kind == "validate":
            return 1
        return self.trials * len(self.snr_db)

    def experiment(self, master_seed: int, trials: int | None = None,
                   snr_db: tuple | None = None, kinds: tuple | None = None):
        return sim.ExperimentConfig(
            k=self.k, n=self.n, modulation=self.modulation, channel=self.channel,
            detectors=kinds or self.detectors, snr_db=snr_db or self.snr_db,
            trials=trials or self.trials, master_seed=master_seed)

    def check_setup(self) -> "Workload":
        """Setup of the check pass: the workload's own sweep setup, or the
        reference one for ``validate``, which has no sweep."""
        return WORKLOADS["ref_snr"] if self.kind == "validate" else self


WORKLOADS = {w.name: w for w in (
    Workload("ref_snr", "headline SER sweep at the paper's 16x64 16-QAM iid "
             "setup; the APSM engine takes most of each trial",
             "snr", snr_db=(5.0, 9.0, 13.0), trials=5),
    Workload("corr_snr", "Kronecker 0.8 channel at 18 dB; ill-conditioning "
             "makes the box oracle dominate and the engine a minor share",
             "snr", channel=ChannelModel("kronecker", 0.8, 0.8),
             snr_db=(18.0,), trials=5),
    Workload("ref_iter", "per-iteration SER; same engine with iterate "
             "recording and per-iteration slicing in sim",
             "iter", detectors=(D.APSM_PLAIN, D.APSM_L2, D.APSM_L1, D.LMMSE),
             trials=15, checkpoints=(25, 100, 300)),
    Workload("validate", "invariant suites at a tenth of default size: audits, "
             "prox oracle and many small (2K=8) engine runs where Python "
             "dispatch dominates", "validate"),
)}


def run_batch(w: Workload, master_seed: int):
    """One call of the workload's public entry point.

    Returns the error counts keyed by (detector, x_value) for sweeps, or the
    suite results for ``validate``.
    """
    if w.kind == "validate":
        return validation.run_all_suites(master_seed, **VALIDATE_SIZES)
    cfg = w.experiment(master_seed)
    if w.kind == "snr":
        table = sim.run_ser_vs_snr(cfg)
    else:
        table = sim.run_ser_vs_iter(cfg)
    sim.table_text(table)
    return {(r.detector, r.x_value): (r.errors, r.symbols) for r in table.rows}


def warm_up(w: Workload, seed: int) -> None:
    """One small call that finishes lazy set-up (scipy.linalg, the
    correlation-root cache) before anything is timed."""
    if w.kind == "validate":
        validation.run_all_suites(seed, prox_cases=2, attracting_draws=1, qf_trials=2)
    else:
        cfg = w.experiment(seed, trials=1, snr_db=w.snr_db[:1])
        (sim.run_ser_vs_snr if w.kind == "snr" else sim.run_ser_vs_iter)(cfg)


@dataclass
class Tally:
    """Trials attempted, and the ids of those that failed: a trial that
    fails two checks counts once."""

    attempted: int = 0
    failed_ids: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def new_trials(self, n: int) -> range:
        ids = range(self.attempted, self.attempted + n)
        self.attempted += n
        return ids

    def fail(self, ids, why: str) -> None:
        self.failed_ids.update(ids)
        if len(self.problems) < 20:
            self.problems.append(why)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)


@dataclass
class LoopResult:
    batch_tps: list  # raw trials/s of each batch
    batch_tps_ref: list  # the same at the reference machine speed
    probes: list  # speed probe seconds, one before and one after each batch
    batches: int
    trials: int  # trials of the batches that completed
    trial_ids: range  # ids of every trial the loop attempted
    busy_s: float  # time inside batches, probes excluded
    counts: dict  # (detector, x) -> [errors, symbols], summed over batches

    # 0 when every batch failed; the run is then reported as incorrect
    @property
    def trials_per_s(self) -> float:
        return float(np.median(self.batch_tps)) if self.batch_tps else 0.0

    @property
    def trials_per_s_at_ref_speed(self) -> float:
        return float(np.median(self.batch_tps_ref)) if self.batch_tps_ref else 0.0


def _box_probe(sink: list):
    """Records the convergence flag of every box-oracle solve; negligible
    next to the solve itself (one list append per realization)."""
    solve = detectors.detect_box_oracle

    def probe(*args, **kwargs):
        out = solve(*args, **kwargs)
        sink.append(out.converged)
        return out

    return patched([(detectors, "detect_box_oracle", probe)])


def timed_loop(w: Workload, seed: int, seconds: float, tally: Tally,
               pause=None, pauses: int = 0) -> LoopResult:
    """Run whole batches for ``seconds``; batch b uses the inputs of seed
    mix (seed, b), so every run of a seed sees the same sequence of inputs.

    The speed probe (a child process, see ``speed.Probe``) runs between
    batches, outside the timed regions.
    ``pause`` is called ``pauses`` times at evenly spaced points of the run,
    untimed and not counted in ``seconds``, so that what it measures samples
    the same stretch of machine time as the batches.
    """
    tps, tps_ref = [], []
    batches = 0
    first_id = tally.attempted
    probes: list = []
    counts: dict = {}
    box_flags: list = []
    trials = 0
    busy = 0.0
    paused = 0.0
    done = 0
    with speed.Probe() as probe, _box_probe(box_flags):
        probes.append(probe())
        start = time.perf_counter()
        while True:
            bseed = trial_seed(seed, batches)
            batches += 1
            n = w.trials_per_batch
            ids = tally.new_trials(n)
            flags_before = len(box_flags)
            t0 = time.perf_counter()
            try:
                out = run_batch(w, bseed)
            except Exception as exc:  # noqa: BLE001 - counted as failed trials
                tally.fail(ids, f"batch {batches - 1}: {type(exc).__name__}: {exc}")
                out = None
            dt = time.perf_counter() - t0
            busy += dt
            probes.append(probe())
            if out is not None:
                tps.append(n / dt)
                tps_ref.append(n / dt * (probes[-2] + probes[-1]) / 2.0
                               / speed.REFERENCE_PROBE_S)
                trials += n
                _fail_unconverged(tally, ids, box_flags[flags_before:])
                if w.kind == "validate":
                    bad = [r.line() for r in out if not r.passed]
                    if bad:
                        tally.fail(ids, f"suite failed: {bad}")
                else:
                    for key, (e, s) in out.items():
                        acc = counts.setdefault(key, [0, 0])
                        acc[0] += e
                        acc[1] += s
            elapsed = time.perf_counter() - start - paused
            if done < pauses and elapsed >= seconds * done / pauses:
                t1 = time.perf_counter()
                pause()
                done += 1
                paused += time.perf_counter() - t1
                probes.append(probe())
            if elapsed >= seconds and done == pauses:
                break
    return LoopResult(tps, tps_ref, probes, batches, trials,
                      range(first_id, tally.attempted), busy, counts)


def _fail_unconverged(tally: Tally, ids: range, flags: list) -> None:
    """Fail the trials whose box-oracle solve did not converge; the solves
    come one per realization, in trial order."""
    if all(flags):
        return
    bad = [i for i, ok in zip(ids, flags) if not ok] if len(flags) == len(ids) else ids
    tally.fail(bad, f"box_oracle did not converge on {flags.count(False)} solves")


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def ser_within_tolerance(e: int, n: int, ref_e: int, ref_n: int,
                         dispersion: float) -> tuple[bool, float]:
    """Two-proportion test; returns (ok, tolerance on |p - p_ref|)."""
    pool = (e + ref_e) / (n + ref_n)
    tol = SER_Z * math.sqrt(dispersion * pool * (1.0 - pool) * (1.0 / n + 1.0 / ref_n))
    return abs(e / n - ref_e / ref_n) <= tol, tol


def checked_cells(w: Workload, counts: dict) -> dict:
    """The (detector, x) cells whose SER is compared with the reference."""
    if w.kind != "iter":
        return counts
    keep = {}
    for (det, x), v in counts.items():
        if det in (k.value for k in APSM_KINDS) and int(x) in w.checkpoints:
            keep[(det, x)] = v
        elif int(x) == w.checkpoints[-1]:
            keep[(det, x)] = v
    return keep


def check_ser(w: Workload, loop: LoopResult, reference: dict, tally: Tally) -> int:
    """Compare the run's summed SER per cell with the stored reference;
    returns the number of cells checked."""
    if w.kind == "validate" or not loop.counts:
        return 0
    ref = reference["workloads"][w.name]
    cells = {(c["detector"], c["x"]): c for c in ref["cells"]}
    checked = checked_cells(w, loop.counts)
    bad = []
    for (det, x), (e, n) in sorted(checked.items()):
        c = cells.get((det, x))
        if c is None:
            bad.append(f"{det}@{x}: no reference cell")
            continue
        ok, tol = ser_within_tolerance(e, n, c["errors"], c["symbols"], ref["dispersion"])
        if not ok:
            bad.append(f"{det}@{x}: ser {e / n:.5f} vs reference "
                       f"{c['errors'] / c['symbols']:.5f} (tolerance {tol:.5f})")
    if bad:
        # the run's outputs are wrong as a whole: every timed trial fails
        tally.fail(loop.trial_ids, "SER outside tolerance: " + "; ".join(bad))
    return len(checked)


@dataclass
class CheckResult:
    trials: int = 0
    audits: dict = field(default_factory=dict)  # variant -> [checked, violations]


def check_pass(w: Workload, seed: int, tally: Tally) -> CheckResult:
    """Per-realization checks after the timed loop, on a few realizations of
    the workload's setup:

    - every detector raises nothing and its symbol errors equal the sweep's;
    - each APSM variant ends on the same iterate with and without recording;
    - the quasi-Fejér and attracting audits of ``plain`` and ``l2`` against
      the transmitted vector are non-vacuous (checked > 0) and clean;
    - the box oracle converges (counted through the probe).
    """
    s = w.check_setup()
    master = trial_seed(seed, CHECK_SALT)
    snr = s.snr_db[0]
    cfg = s.experiment(master, trials=CHECK_TRIALS, snr_db=(snr,),
                       kinds=ALL_DETECTORS)
    c = constellation(s.modulation)
    result = CheckResult(trials=CHECK_TRIALS)
    ids = tally.new_trials(CHECK_TRIALS)
    box_flags: list = []
    try:
        with _box_probe(box_flags):
            table = sim.run_ser_vs_snr(cfg)
            sim.table_text(table)
    except Exception as exc:  # noqa: BLE001 - counted as failed trials
        tally.fail(ids, f"check sweep: {type(exc).__name__}: {exc}")
        return result
    _fail_unconverged(tally, ids, box_flags)
    swept = {r.detector: r.errors for r in table.rows}
    direct = {k.value: 0 for k in ALL_DETECTORS}
    for t in ids:
        problems = []
        box_flags = []
        try:
            with _box_probe(box_flags):
                inst = mimo.make_instance(s.channel, c, s.k, s.n, snr,
                                          trial_seed(master, 0, t - ids.start))
                for kind in ALL_DETECTORS:
                    if kind in APSM_KINDS:
                        acfg = sim.resolve_apsm_config(cfg, kind)
                        x, _ = detectors.detect(kind, inst, c, acfg)
                        xr, trace = detectors.detect(kind, inst, c, acfg,
                                                     record_iterates=True)
                        if not np.array_equal(x, xr):
                            problems.append(f"{kind.value}: recorded run ends elsewhere")
                        problems += _audit(trace, inst, acfg, result)
                    else:
                        x, _ = detectors.detect(kind, inst, c)
                    direct[kind.value] += mimo.symbol_errors(x, inst.s, c)
        except Exception as exc:  # noqa: BLE001 - counted as a failed trial
            problems.append(f"{type(exc).__name__}: {exc}")
        if not all(box_flags):
            problems.append("box_oracle did not converge")
        if problems:
            tally.fail([t], f"check trial {t - ids.start}: " + "; ".join(problems))
    if direct != swept:
        tally.fail(ids, f"sweep errors {swept} != direct {direct}")
    return result


def _audit(trace, inst, acfg, result: CheckResult) -> list:
    cost = QuadraticResidualCost(inst.H, inst.y)
    problems = []
    for audit_fn in (apsm.check_quasi_fejer, apsm.check_attracting):
        audit = audit_fn(trace, trace.iterates, inst.s, cost, acfg)
        acc = result.audits.setdefault(acfg.variant, [0, 0])
        acc[0] += audit.checked
        acc[1] += audit.violations
        if acfg.variant in GATED_VARIANTS and (audit.checked == 0 or audit.violations):
            problems.append(f"{acfg.variant} {audit_fn.__name__}: "
                            f"{audit.violations} violations / {audit.checked} checks")
    return problems


def config_hashes(w: Workload) -> dict:
    """``ApsmConfig.config_hash()`` of each variant the workload runs."""
    if w.kind == "validate":
        iters = inspect.signature(validation.quasi_fejer_suite).parameters["max_iters"]
        return {v: standard_config(v, max_iters=iters.default).config_hash()
                for v in VARIANTS}
    cfg = w.experiment(0, kinds=ALL_DETECTORS)
    return {detectors._APSM_VARIANT[k]: sim.resolve_apsm_config(cfg, k).config_hash()
            for k in APSM_KINDS}
