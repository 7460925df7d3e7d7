"""Randomized invariant suites: each one checks an inequality the algorithm
is supposed to satisfy on every instance, and reports violation counts.

These back the ``validate`` CLI subcommand and the acceptance tests; sample
sizes are parameters so both can pick their own budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apsm import AUDIT_TOL, apsm_run, check_attracting, check_quasi_fejer
from .cost import MU, VARIANTS, QuadraticResidualCost, apsm_map, standard_config
from .geometry import BoxSet, constellation, prox_l1_levels
from .mimo import ChannelModel, make_instance, trial_seed

# prox oracle: search grid, alphabets, and the objective gap it tolerates
GRID_LO, GRID_HI, GRID_STEP = -3.0, 3.0, 1e-4
PROX_ALPHABETS, GAP_TOL = ("qpsk", "16qam"), 1e-6
# setup of the audited full runs: small enough (2K = 8) for many trials
RUN_K, RUN_N, RUN_MODULATION, RUN_SNR_DB, RUN_ITERS = 4, 8, "qpsk", 8.0, 260


@dataclass
class SuiteResult:
    name: str
    checked: int
    violations: int
    worst: float

    @property
    def passed(self) -> bool:
        # an empty audit window means the suite was misconfigured, not clean
        return self.violations == 0 and self.checked > 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.violations} violations "
                f"/ {self.checked} checks (worst excess {self.worst:.3e})")


def prox_grid_suite(cases: int = 10_000, seed: int = 0) -> SuiteResult:
    """Scalar prox against a dense grid-search argmin oracle.

    For random (x, tau), the shrink-to-lattice prox must attain the grid
    minimum of tau * |u - P_S(u)| + (x - u)^2 / 2 within ``GAP_TOL``.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(GRID_LO, GRID_HI + GRID_STEP / 2, GRID_STEP)
    violations = 0
    worst = 0.0
    per_alpha = cases // len(PROX_ALPHABETS)
    buf = np.empty_like(grid)
    for name in PROX_ALPHABETS:
        c = constellation(name)
        f1_grid = np.abs(grid - c.nearest(grid))
        xs = rng.uniform(-2.0, 2.0, size=per_alpha)
        taus = rng.uniform(0.0, 0.5, size=per_alpha)
        for xi, ti in zip(xs, taus):
            # objective over the grid, in-place to stay cache-resident
            np.subtract(xi, grid, out=buf)
            np.square(buf, out=buf)
            buf *= 0.5
            buf += ti * f1_grid
            best = float(buf.min())
            p = float(prox_l1_levels(np.array([xi]), ti, c)[0])
            ours = ti * abs(p - c.nearest(p)) + 0.5 * (xi - p) ** 2
            gap = ours - best
            if gap > GAP_TOL:
                violations += 1
            worst = max(worst, gap)
    return SuiteResult("prox-grid-oracle", per_alpha * len(PROX_ALPHABETS),
                       violations, worst)


def attracting_step_suite(draws: int = 10_000, seed: int = 0) -> SuiteResult:
    """Single-step attracting inequality on random feasible geometry.

    Draws random (H, y, x in B, feasible z) and checks, with kappa = 1 - MU/2,
    that one iteration map application satisfies
    ||T(x) - z||^2 <= ||x - z||^2 - kappa ||x - T(x)||^2 + AUDIT_TOL.
    """
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
        rhs = float(np.sum((x - z) ** 2) - kappa * np.sum((x - tx) ** 2)) + AUDIT_TOL
        if lhs > rhs:
            violations += 1
            worst = max(worst, lhs - rhs)
    return SuiteResult("attracting-step", draws, violations, worst)


def _audited_runs(name: str, audit, trials: int, seed: int, max_iters: int,
                  variants: tuple[str, ...]) -> SuiteResult:
    """Recorded engine runs on seeded RUN_* instances, each audited against
    the true transmit vector by ``audit`` (a ``check_*`` function)."""
    c = constellation(RUN_MODULATION)
    model = ChannelModel("iid")
    violations = 0
    checked = 0
    worst = 0.0
    for t in range(trials):
        inst = make_instance(model, c, RUN_K, RUN_N, RUN_SNR_DB, trial_seed(seed, t))
        cost = QuadraticResidualCost(inst.H, inst.y)
        for variant in variants:
            cfg = standard_config(variant, max_iters=max_iters)
            _, trace = apsm_run(cost, cfg, c, record_iterates=True)
            result = audit(trace, trace.iterates, inst.s, cost, cfg)
            checked += result.checked
            violations += result.violations
            worst = max(worst, result.max_excess)
    return SuiteResult(name, checked, violations, worst)


def quasi_fejer_suite(trials: int = 60, seed: int = 0, max_iters: int = RUN_ITERS,
                      variants: tuple[str, ...] = VARIANTS) -> SuiteResult:
    """Full-run Type-I quasi-Fejér audits against the true transmit vector."""
    return _audited_runs("quasi-fejer-run", check_quasi_fejer, trials, seed,
                         max_iters, variants)


def attracting_run_suite(trials: int = 20, seed: int = 0) -> SuiteResult:
    """Full-run attracting audits (with perturbation slack) for all variants."""
    return _audited_runs("attracting-run", check_attracting, trials, seed,
                         RUN_ITERS, VARIANTS)


def run_all_suites(seed: int = 0, prox_cases: int = 2000,
                   attracting_draws: int = 2000,
                   qf_trials: int = 40) -> list[SuiteResult]:
    return [
        prox_grid_suite(cases=prox_cases, seed=seed),
        attracting_step_suite(draws=attracting_draws, seed=seed + 1),
        quasi_fejer_suite(trials=qf_trials, seed=seed + 2),
        attracting_run_suite(trials=max(qf_trials // 2, 1), seed=seed + 3),
    ]
