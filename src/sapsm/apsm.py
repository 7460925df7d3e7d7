"""Perturbed subgradient-projection engine with runtime convergence audits.

One run interleaves a superiorization perturbation (hard or soft slicing
toward the constellation lattice) with a relaxed subgradient projection onto
the current residual sublevel set, clamped to the box. The engine iterates a
stack of runs, one config per row (rows with an equal config perturb as a
group), each row bitwise the run it would be alone; a single run is a stack
of one. The recorded trace is enough to audit, after the fact, the two
inequalities that convergence theory promises: quasi-Fejér monotonicity of
Type I and the kappa-attracting step decrease, both relative to a feasible
reference point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .cost import (
    ApsmConfig,
    QuadraticResidualCost,
    residuals,
    schedule_table,
    stack_costs,
    sublevel_step,
)
from .errors import ConfigError, DimensionMismatch, NonFiniteIterate
from .geometry import Constellation, perturbation_l1, perturbation_l2

TRACE_COLUMNS = ("n", "theta", "objective", "rho", "step_norm", "pert_norm")
# rounding slack on the right-hand side of every audited inequality
AUDIT_TOL = 1e-9


@dataclass
class IterateTrace:
    """Per-iteration scalars of one run, plus identifying metadata.

    ``iterates`` holds the full sequence x_0 .. x_final (one row more than
    there are records) and is only populated when requested; the
    ``objective`` column is derived from it.
    """

    n: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    step_norm: np.ndarray
    pert_norm: np.ndarray
    variant: str
    config_hash: str
    summability_flag: bool
    cost: QuadraticResidualCost
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n.size

    @property
    def objective(self) -> np.ndarray:
        """The residual ||H x_n - y||^2 at each unperturbed iterate x_n,
        computed from the recorded iterates (the engine does not compute
        it). np.matvec makes per iterate the gemv the engine makes per row,
        so this is bitwise the residual the loop would have computed."""
        if self.iterates is None:
            raise ConfigError("the objective column needs a run with record_iterates=True")
        xs = self.iterates[:-1]
        gram, hty, yty = self.cost.gram, self.cost.hty, self.cost.yty
        return residuals(hty, yty, xs, np.matvec(gram, xs))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for n, *values in zip(*(getattr(self, col) for col in TRACE_COLUMNS)):
                writer.writerow([int(n)] + [format(v, ".17g") for v in values])


def _row_groups(cfgs: list[ApsmConfig]) -> list[tuple[int, int, ApsmConfig]]:
    """(start, stop, config) of each run of consecutive rows with an equal
    config."""
    groups = []
    start = 0
    for i in range(1, len(cfgs) + 1):
        if i == len(cfgs) or cfgs[i] != cfgs[start]:
            groups.append((start, i, cfgs[start]))
            start = i
    return groups


# a row that overflows or divides by zero surfaces as NonFiniteIterate, not
# as a numpy warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def apsm_run_batch(costs: list[QuadraticResidualCost], cfgs: list[ApsmConfig],
                   c: Constellation, x0: np.ndarray | None = None,
                   record_iterates: bool = False) -> tuple[np.ndarray, list[IterateTrace]]:
    """Run the perturbed iteration on B problems at once, row i under
    ``cfgs[i]``; return (final iterates as (B, d), one trace per row).

    Follows the superiorized recursion on every row: perturb the current
    iterate, evaluate the sublevel cost and its subgradient at the perturbed
    point, take the relaxed subgradient-projection step, clamp to the box.
    Consecutive rows with an equal config form a group, which perturbs as
    one call on its slice of the stack; all rows take one step together.
    Every row runs the full ``max_iters`` iterations, which all configs of a
    stack must share, and is bitwise the run it would be alone. Every
    iterate after the first projection lies in the box. The traces' arrays
    are views into buffers that the stack's traces share.
    """
    if len(cfgs) != len(costs):
        raise ConfigError(f"{len(cfgs)} configs for {len(costs)} problems")
    budgets = sorted({cfg.max_iters for cfg in cfgs})
    if len(budgets) != 1:
        raise ConfigError(f"a stack needs one max_iters, got {budgets}")
    (steps,) = budgets
    gram, hty, yty = stack_costs(costs)
    size, dim = hty.shape
    if x0 is None:
        x = np.zeros((size, dim))
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (size, dim):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected {(size, dim)}")
    box = c.box()
    groups = _row_groups(cfgs)
    rho = np.empty((steps, size))
    mu = np.empty(size)
    perturbed = []
    for a, b, cfg in groups:
        rho[:, a:b] = schedule_table(cfg.rho, steps)[:, None]
        mu[a:b] = cfg.mu
        if cfg.variant != "plain":
            perturbed.append((a, b, cfg, schedule_table(cfg.beta, steps).tolist()))
    # theta, squared step norm and squared perturbation norm of each
    # iteration and row; the norms are finished after the loop
    records = np.zeros((3, steps, size))
    iterates = np.empty((size, steps + 1, dim)) if record_iterates else None
    if record_iterates:
        iterates[:, 0] = x
    z_buf = np.empty_like(x)
    diff = np.empty_like(x)

    for n in range(steps):
        z = x
        for a, b, cfg, betas in perturbed:
            beta_n = betas[n]
            if beta_n == 0.0:
                continue
            if cfg.variant == "l2":
                v = perturbation_l2(x[a:b], c)
            else:
                v = perturbation_l1(x[a:b], cfg.tau, c)
            if z is x:
                z = z_buf
                np.copyto(z, x)
            np.add(x[a:b], beta_n * v, out=z[a:b])
            np.vecdot(v, v, out=records[2, n, a:b])

        x_next, _, records[0, n] = sublevel_step(gram, hty, yty, z, rho[n], mu, box)

        np.subtract(x_next, x, out=diff)
        np.vecdot(diff, diff, out=records[1, n])
        if record_iterates:
            iterates[:, n + 1] = x_next
        x = x_next

    # any overflow or nan lands in theta (through the residual) or in the
    # squared step; report the first iteration that holds one
    bad = np.flatnonzero(~np.isfinite(records[:2]).all(axis=(0, 2)))
    if bad.size:
        raise NonFiniteIterate(int(bad[0]))
    np.sqrt(records[1:], out=records[1:])
    for a, b, cfg, _ in perturbed:
        records[2, :, a:b] *= schedule_table(cfg.beta, steps)[:, None]
    iters = np.arange(steps)
    theta, step_norm, pert_norm = records
    traces = []
    for a, b, cfg in groups:
        config_hash = cfg.config_hash()
        rho_column = schedule_table(cfg.rho, steps)
        traces += [
            IterateTrace(
                n=iters,
                theta=theta[:, i],
                rho=rho_column,
                step_norm=step_norm[:, i],
                pert_norm=pert_norm[:, i],
                variant=cfg.variant,
                config_hash=config_hash,
                summability_flag=cfg.beta.summable,
                cost=costs[i],
                iterates=iterates[i] if record_iterates else None,
            )
            for i in range(a, b)
        ]
    return x, traces


def apsm_run(cost: QuadraticResidualCost, cfg: ApsmConfig, c: Constellation,
             x0: np.ndarray | None = None,
             record_iterates: bool = False) -> tuple[np.ndarray, IterateTrace]:
    """Run the perturbed iteration on one problem and return (final iterate,
    trace): ``apsm_run_batch`` on a stack of one."""
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)[None]
    final, (trace,) = apsm_run_batch([cost], [cfg], c, x0, record_iterates)
    return final[0], trace


@dataclass
class AuditResult:
    """Outcome of one inequality audit over an iterate sequence."""

    checked: int = 0
    violations: int = 0
    max_excess: float = 0.0

    @classmethod
    def from_excess(cls, excess: np.ndarray) -> "AuditResult":
        """Tally lhs - rhs of the audited inequality, one entry per step."""
        return cls(int(excess.size), int(np.count_nonzero(excess > 0)),
                   float(excess.max(initial=0.0)))


@dataclass
class DiagnosticReport:
    """Summary of the convergence audits for a single recorded run."""

    quasi_fejer: AuditResult
    attracting: AuditResult
    theta_tail: float
    activation_index: int | None

    def to_json(self) -> str:
        return json.dumps({
            "quasi_fejer": vars(self.quasi_fejer),
            "attracting": vars(self.attracting),
            "theta_tail": self.theta_tail,
            "activation_index": self.activation_index,
        }, sort_keys=True)


def activation_index(trace: IterateTrace, residual_ref: float) -> int | None:
    """First record index whose radius makes the reference point feasible."""
    hits = np.nonzero(trace.rho >= residual_ref)[0]
    return int(hits[0]) if hits.size else None


def _audit_window(trace: IterateTrace, x_seq: np.ndarray, z_ref: np.ndarray,
                  cost: QuadraticResidualCost) -> tuple[int | None, np.ndarray | None]:
    """The activation index and the distances ||x_n - z|| of the iterates
    x_0 .. x_N of a trace of N records, or (None, None) when the reference
    never becomes feasible."""
    start = activation_index(trace, cost.residual_sq(z_ref))
    if start is None:
        return None, None
    return start, np.linalg.norm(x_seq - z_ref[None, :], axis=1)


def check_quasi_fejer(trace: IterateTrace, x_seq: np.ndarray,
                      z_ref: np.ndarray, cost: QuadraticResidualCost,
                      cfg: ApsmConfig) -> AuditResult:
    """Audit Type-I quasi-Fejér monotonicity toward a reference point.

    Checks ||x_{n+1} - z|| <= ||x_n - z|| + beta_n ||v_n||, up to AUDIT_TOL,
    for every iteration at which the reference is feasible (its residual is
    within the radius); earlier iterations are outside the guarantee.
    """
    start, d = _audit_window(trace, x_seq, z_ref, cost)
    if start is None:
        return AuditResult()
    lhs = d[start + 1:]
    rhs = d[start:-1] + trace.pert_norm[start:] + AUDIT_TOL
    return AuditResult.from_excess(lhs - rhs)


def check_attracting(trace: IterateTrace, x_seq: np.ndarray,
                     z_ref: np.ndarray, cost: QuadraticResidualCost,
                     cfg: ApsmConfig) -> AuditResult:
    """Audit the kappa-attracting decrease with the perturbation slack.

    With kappa = 1 - mu/2, checks, up to AUDIT_TOL,
    ||x_{n+1} - z||^2 <= ||x_n - z||^2 - kappa ||x_{n+1} - x_n||^2 + gamma_n,
    where gamma_n = beta_n * r^2 * (2 + b) is the summable slack implied by
    bounded perturbations; r and b are reconstructed from the recorded norms.
    """
    start, d = _audit_window(trace, x_seq, z_ref, cost)
    if start is None:
        return AuditResult()
    kappa = 1.0 - cfg.mu / 2.0
    steps = trace.step_norm[start:]
    betas = schedule_table(cfg.beta, len(trace))[start:]
    v_norms = np.zeros_like(betas)
    pos = betas > 0
    v_norms[pos] = trace.pert_norm[start:][pos] / betas[pos]
    r = max(
        float((d[start:-1] + kappa * steps).max(initial=0.0)),
        float(v_norms.max(initial=0.0)),
    )
    b = cfg.beta.series_sum(cfg.max_iters)
    gamma = betas * r**2 * (2.0 + b)
    lhs = d[start + 1:] ** 2
    rhs = d[start:-1] ** 2 - kappa * steps**2 + gamma + AUDIT_TOL
    return AuditResult.from_excess(lhs - rhs)


def diagnose(cost: QuadraticResidualCost, cfg: ApsmConfig, c: Constellation,
             z_ref: np.ndarray) -> DiagnosticReport:
    """Run with full recording and audit both convergence inequalities."""
    _, trace = apsm_run(cost, cfg, c, record_iterates=True)
    tail = max(1, math.ceil(len(trace) / 10))
    return DiagnosticReport(
        quasi_fejer=check_quasi_fejer(trace, trace.iterates, z_ref, cost, cfg),
        attracting=check_attracting(trace, trace.iterates, z_ref, cost, cfg),
        theta_tail=float(trace.theta[-tail:].mean()),
        activation_index=activation_index(trace, cost.residual_sq(z_ref)),
    )
