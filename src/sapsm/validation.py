"""Randomized invariant suites: each one checks an inequality the algorithm
is supposed to satisfy on every instance, and reports violation counts.

These back the ``validate`` CLI subcommand and the acceptance tests; sample
sizes are parameters so both can pick their own budget. The audited full
runs of every suite in a call share one engine stack, and the single-step
suite steps all its cases of one dimension as one stack; each row is
bitwise the run or step it would be alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# apsm_run and apsm_map are not called here, but the benchmark harness
# (perfbench/) patches this module's names for them, so the imports stay
from .apsm import (  # noqa: F401
    AUDIT_TOL,
    apsm_run,
    apsm_run_batch,
    check_attracting,
    check_quasi_fejer,
)
from .cost import (  # noqa: F401
    MU,
    VARIANTS,
    QuadraticResidualCost,
    apsm_map,
    residuals,
    stack_costs,
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
    Every case is drawn first; the cases of each dimension then take their
    step as one stack, each row bitwise the map applied to it alone.
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
        cases.setdefault(k2, []).append((QuadraticResidualCost(H, y), z, grow, x))
    kappa = 1.0 - MU / 2.0
    violations = 0
    worst = 0.0
    for group in cases.values():
        costs, z, grow, x = zip(*group)
        gram, hty, yty = stack_costs(costs)
        z, grow, x = np.array(z), np.array(grow), np.array(x)
        rho = residuals(hty, yty, z, np.matvec(gram, z)) * grow
        tx = sublevel_step(gram, hty, yty, x, rho, MU, BoxSet(1.0))[0]
        lhs = np.sum((tx - z) ** 2, axis=1)
        rhs = np.sum((x - z) ** 2, axis=1) - kappa * np.sum((x - tx) ** 2, axis=1) + AUDIT_TOL
        excess = (lhs - rhs)[lhs > rhs]
        violations += excess.size
        worst = max(worst, float(excess.max(initial=0.0)))
    return SuiteResult("attracting-step", draws, violations, worst)


class _RunSpec(NamedTuple):
    """One audited suite: ``trials`` seeded RUN_* instances, run once per
    variant, each run audited against the true transmit vector by ``audit``
    (a ``check_*`` function)."""

    name: str
    audit: Callable
    trials: int
    seed: int
    max_iters: int = RUN_ITERS
    variants: tuple[str, ...] = VARIANTS


def _audited_runs(specs: list[_RunSpec]) -> list[SuiteResult]:
    """The result of each spec, from one recorded engine stack that holds
    the runs of every spec; all specs must share one ``max_iters``.

    The stack orders its rows variant by spec by trial, so that the runs of
    one variant perturb as one group whatever spec they serve; the audits
    run in spec by variant by trial order, as separate calls would.
    """
    c = constellation(RUN_MODULATION)
    model = ChannelModel("iid")
    rows = []
    for i, spec in enumerate(specs):
        insts = [make_instance(model, c, RUN_K, RUN_N, RUN_SNR_DB, trial_seed(spec.seed, t))
                 for t in range(spec.trials)]
        costs = [QuadraticResidualCost(inst.H, inst.y) for inst in insts]
        rows += [(i, inst, cost, standard_config(variant, max_iters=spec.max_iters))
                 for variant in spec.variants for inst, cost in zip(insts, costs)]
    order = sorted(range(len(rows)), key=lambda j: VARIANTS.index(rows[j][3].variant))
    _, traces = apsm_run_batch([rows[j][2] for j in order], [rows[j][3] for j in order],
                               c, record_iterates=True)
    trace_of = dict(zip(order, traces))
    # checked, violations, worst excess of each spec
    tallies = [[0, 0, 0.0] for _ in specs]
    for j, (i, inst, cost, cfg) in enumerate(rows):
        trace = trace_of[j]
        result = specs[i].audit(trace, trace.iterates, inst.s, cost, cfg)
        tally = tallies[i]
        tally[0] += result.checked
        tally[1] += result.violations
        tally[2] = max(tally[2], result.max_excess)
    return [SuiteResult(spec.name, *tally) for spec, tally in zip(specs, tallies)]


def quasi_fejer_suite(trials: int = 60, seed: int = 0, max_iters: int = RUN_ITERS,
                      variants: tuple[str, ...] = VARIANTS) -> SuiteResult:
    """Full-run Type-I quasi-Fejér audits against the true transmit vector."""
    (result,) = _audited_runs([_RunSpec("quasi-fejer-run", check_quasi_fejer, trials,
                                        seed, max_iters, variants)])
    return result


def attracting_run_suite(trials: int = 20, seed: int = 0) -> SuiteResult:
    """Full-run attracting audits (with perturbation slack) for all variants."""
    (result,) = _audited_runs([_RunSpec("attracting-run", check_attracting, trials, seed)])
    return result


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
