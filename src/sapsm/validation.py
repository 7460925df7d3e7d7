"""Randomized invariant suites: each one checks an inequality the algorithm
is supposed to satisfy on every instance, and reports violation counts.

These back the ``validate`` CLI subcommand and the acceptance tests; sample
sizes are parameters so both can pick their own budget. The audited full
runs of every suite in a call share one engine stack, the single-step
suite steps all its cases of one dimension as one stack, and the prox
suite calls the prox once per alphabet; each row is bitwise the run, step
or prox it would be alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

# apsm_run and apsm_map are not called here, but the benchmark harness
# (perfbench/) patches this module's names for them, so the imports stay
from .apsm import (  # noqa: F401
    AuditResult,
    apsm_run,
    apsm_run_batch,
    attracting_audit,
    check_attracting,
    check_quasi_fejer,
)
from .cost import (  # noqa: F401
    MU,
    VARIANTS,
    QuadraticResidualCost,
    apsm_map,
    normal_equations,
    residuals,
    standard_config,
    sublevel_step,
)
from .geometry import BoxSet, constellation, prox_l1_levels
from .mimo import ChannelModel, make_instance, trial_seed

# prox oracle: search grid, alphabets, and the objective gap it tolerates
GRID_LO, GRID_HI, GRID_STEP = -3.0, 3.0, 1e-4
PROX_ALPHABETS, GAP_TOL = ("qpsk", "16qam"), 1e-6
# setup of the audited full runs: small enough (2K = 8) for many trials
RUN_K, RUN_N, RUN_MODULATION, RUN_SNR_DB, RUN_ITERS = 4, 8, "qpsk", 8.0, 260


class SuiteResult(NamedTuple):
    """A suite's name and the tally of every inequality it checked."""

    name: str
    audit: AuditResult

    @property
    def passed(self) -> bool:
        return self.audit.passed

    def line(self) -> str:
        a = self.audit
        return (f"{'PASS' if a.passed else 'FAIL'} {self.name}: {a.violations} violations "
                f"/ {a.checked} checks (worst excess {a.max_excess:.3e})")


def _grid_bound(x: np.ndarray, p: np.ndarray, tau: np.ndarray, grid: np.ndarray,
                f1_grid: np.ndarray) -> np.ndarray:
    """min(g(u0), g(up)) per case, g(u) = tau * f1(u) + (x - u)^2 / 2, u0 the
    grid point nearest x and up the one nearest p, both clipped to the grid;
    a non-finite p takes u0. Each term is a grid value, formed by the
    operations ``_grid_min`` evaluates the grid with, so it bounds the grid
    minimum from above, bitwise."""
    bounds = []
    for u in (x, np.where(np.isfinite(p), p, x)):
        i = np.rint((np.clip(u, GRID_LO, GRID_HI) - GRID_LO) / GRID_STEP).astype(np.intp)
        bounds.append(np.square(x - grid[i]) * 0.5 + tau * f1_grid[i])
    return np.minimum(*bounds)


def _grid_min(x: float, tau: float, ub: float, grid: np.ndarray,
              f1_grid: np.ndarray) -> float:
    """The grid minimum of g(u) = tau * f1(u) + (x - u)^2 / 2, bitwise, given
    an upper bound ``ub`` on it that is at least one grid point's g (see
    ``_grid_bound``). As g(u) >= (x - u)^2 / 2, every point farther than
    sqrt(2 ub) from x has g > ub, so the search covers the points within
    sqrt(2 ub) of x, plus two steps for rounding: the minimum lies among
    them, whatever point gave ub."""
    half = math.sqrt(2.0 * ub) + 2.0 * GRID_STEP
    lo = max(math.floor((x - half - GRID_LO) / GRID_STEP), 0)
    hi = min(math.ceil((x + half - GRID_LO) / GRID_STEP) + 1, grid.size)
    g = np.subtract(x, grid[lo:hi])
    np.square(g, out=g)
    g *= 0.5
    g += tau * f1_grid[lo:hi]
    return float(g.min())


def prox_grid_suite(cases: int = 10_000, seed: int = 0) -> SuiteResult:
    """Scalar prox against a dense grid-search argmin oracle.

    For random (x, tau), the shrink-to-lattice prox must attain the grid
    minimum of tau * |u - P_S(u)| + (x - u)^2 / 2 within ``GAP_TOL``. The
    cases split evenly over the alphabets, the first taking the remainder;
    the prox runs once per alphabet over all its cases, and only the
    quadratic term and the oracle run per case. Each case is tallied by its
    excess over ``GAP_TOL``, as every audit is: a gap that is not a number
    counts as a violation.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(GRID_LO, GRID_HI + GRID_STEP / 2, GRID_STEP)
    gaps = []
    share, extra = divmod(cases, len(PROX_ALPHABETS))
    for i, name in enumerate(PROX_ALPHABETS):
        c = constellation(name)
        f1_grid = np.abs(grid - c.nearest(grid))
        n = share + (extra if i == 0 else 0)
        xs = rng.uniform(-2.0, 2.0, size=n)
        taus = rng.uniform(0.0, 0.5, size=n)
        ps = prox_l1_levels(xs, taus, c)
        penalty = taus * np.abs(ps - c.nearest(ps))
        bounds = _grid_bound(xs, ps, taus, grid, f1_grid)
        # the quadratic term stays a scalar power: an array square differs
        # from it in the last bit on about one case in a thousand
        for x, tau, p, pen, ub in zip(xs.tolist(), taus.tolist(), ps.tolist(),
                                      penalty.tolist(), bounds.tolist()):
            gaps.append(pen + 0.5 * (x - p) ** 2 - _grid_min(x, tau, ub, grid, f1_grid))
    return SuiteResult("prox-grid-oracle", AuditResult.from_excess(np.array(gaps) - GAP_TOL))


def attracting_step_suite(draws: int = 10_000, seed: int = 0) -> SuiteResult:
    """Single-step attracting inequality on random feasible geometry.

    Draws random (H, y, x in B, feasible z) and checks, by ``attracting_audit``
    with kappa = 1 - MU/2, that one iteration map application satisfies
    ||T(x) - z||^2 <= ||x - z||^2 - kappa ||x - T(x)||^2 + AUDIT_TOL.
    Every case is drawn first; the cases of each dimension then build their
    normal equations and take their step as one stack, each row bitwise the
    cost and the map of that case alone.
    """
    rng = np.random.default_rng(seed)
    cases = {}
    for _ in range(draws):
        k2 = 2 * int(rng.integers(2, 5))
        n2 = 2 * k2
        H = rng.standard_normal((n2, k2))
        z = rng.uniform(-1.0, 1.0, size=k2)
        y = H @ z + 0.1 * rng.standard_normal(n2)
        # the radius is drawn before x and set once the residual at z is known
        grow = 1.0 + rng.uniform(0.0, 1.0)
        x = rng.uniform(-1.0, 1.0, size=k2)
        cases.setdefault(k2, []).append((H, y, z, grow, x))
    total = AuditResult()
    for group in cases.values():
        H, y, z, grow, x = map(np.array, zip(*group))
        gram, hty, yty = normal_equations(H, y)
        rho = residuals(hty, yty, z, np.matvec(gram, z)) * grow
        tx = sublevel_step(gram, hty, yty, x, rho, MU, BoxSet(1.0))[0]
        total += attracting_audit(np.sum((tx - z) ** 2, axis=1), np.sum((x - z) ** 2, axis=1),
                                  np.sum((x - tx) ** 2, axis=1), MU)
    return SuiteResult("attracting-step", total)


class _RunSpec(NamedTuple):
    """One audited suite: ``trials`` seeded RUN_* instances, run once per
    variant, each run audited against the true transmit vector by ``audit``
    (a ``check_*`` function)."""

    name: str
    audit: Callable
    trials: int
    seed: int
    max_iters: int = RUN_ITERS


def _audited_runs(specs: list[_RunSpec]) -> list[SuiteResult]:
    """The result of each spec, from one recorded engine stack that holds
    the runs of every spec; all specs must share one ``max_iters``.

    The stack holds its rows variant by spec by trial, plain rows first,
    which is the engine's own block order; each audit runs in that order,
    and a spec's tally does not depend on it.
    """
    c = constellation(RUN_MODULATION)
    model = ChannelModel("iid")
    runs = [(i, make_instance(model, c, RUN_K, RUN_N, RUN_SNR_DB, trial_seed(spec.seed, t)))
            for i, spec in enumerate(specs) for t in range(spec.trials)]
    costs = [QuadraticResidualCost(inst.H, inst.y) for _, inst in runs]
    rows = [(i, inst, cost, standard_config(variant, max_iters=specs[i].max_iters))
            for variant in VARIANTS for (i, inst), cost in zip(runs, costs)]
    _, traces = apsm_run_batch([row[2] for row in rows], [row[3] for row in rows],
                               c, record_iterates=True)
    tallies = [AuditResult() for _ in specs]
    for (i, inst, cost, cfg), trace in zip(rows, traces):
        tallies[i] += specs[i].audit(trace, trace.iterates, inst.s, cost, cfg)
    return [SuiteResult(spec.name, tally) for spec, tally in zip(specs, tallies)]


def quasi_fejer_suite(trials: int = 60, seed: int = 0,
                      max_iters: int = RUN_ITERS) -> SuiteResult:
    """Full-run Type-I quasi-Fejér audits of all variants against the true
    transmit vector."""
    return _audited_runs([_RunSpec("quasi-fejer-run", check_quasi_fejer, trials, seed,
                                   max_iters)])[0]


def attracting_run_suite(trials: int = 20, seed: int = 0) -> SuiteResult:
    """Full-run attracting audits (with perturbation slack) for all variants."""
    return _audited_runs([_RunSpec("attracting-run", check_attracting, trials, seed)])[0]


def run_all_suites(seed: int = 0, prox_cases: int = 2000,
                   attracting_draws: int = 2000,
                   qf_trials: int = 40) -> list[SuiteResult]:
    """Every suite; the two audited-run suites share one engine stack."""
    return [
        prox_grid_suite(cases=prox_cases, seed=seed),
        attracting_step_suite(draws=attracting_draws, seed=seed + 1),
        *_audited_runs([
            _RunSpec("quasi-fejer-run", check_quasi_fejer, qf_trials, seed + 2),
            _RunSpec("attracting-run", check_attracting, max(qf_trials // 2, 1), seed + 3),
        ]),
    ]
