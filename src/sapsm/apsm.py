"""Perturbed subgradient-projection engine with runtime convergence audits.

One run interleaves a superiorization perturbation (hard or soft slicing
toward the constellation lattice) with a relaxed subgradient projection onto
the current residual sublevel set, clamped to the box. The recorded trace is
enough to audit, after the fact, the two inequalities that convergence theory
promises: quasi-Fejér monotonicity of Type I and the kappa-attracting step
decrease, both relative to a feasible reference point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .cost import ApsmConfig, QuadraticResidualCost, rho_at, sublevel_step
from .errors import DimensionMismatch, NonFiniteIterate
from .geometry import Constellation, perturbation_l1, perturbation_l2

TRACE_COLUMNS = ("n", "theta", "objective", "rho", "step_norm", "pert_norm")


@dataclass
class IterateTrace:
    """Per-iteration scalars of one run, plus identifying metadata.

    ``iterates`` holds the full sequence x_0 .. x_final (one row more than
    there are records) and is only populated when requested.
    """

    n: np.ndarray
    theta: np.ndarray
    objective: np.ndarray
    rho: np.ndarray
    step_norm: np.ndarray
    pert_norm: np.ndarray
    variant: str
    config_hash: str
    summability_flag: bool
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n.size

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for n, *values in zip(*(getattr(self, col) for col in TRACE_COLUMNS)):
                writer.writerow([int(n)] + [format(v, ".17g") for v in values])


def apsm_run(cost: QuadraticResidualCost, cfg: ApsmConfig, c: Constellation,
             x0: np.ndarray | None = None,
             record_iterates: bool = False) -> tuple[np.ndarray, IterateTrace]:
    """Run the perturbed iteration and return (final iterate, trace).

    Follows the superiorized recursion: perturb the current iterate, evaluate
    the sublevel cost and its subgradient at the perturbed point, take the
    relaxed subgradient-projection step, clamp to the box. Stops at the
    iteration budget, or earlier once the step norm falls to ``stop_eps``
    (disabled at 0). Every iterate after the first projection lies in the box.
    """
    dim = cost.dim_in
    if x0 is None:
        x = np.zeros(dim)
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (dim,):
            raise DimensionMismatch(f"x0 has shape {x.shape}, expected ({dim},)")
    box = c.box()
    records = []  # one TRACE_COLUMNS row per iteration
    iterates = [x.copy()] if record_iterates else None

    for n in range(cfg.max_iters):
        beta_n = cfg.beta.at(n) if cfg.variant != "plain" else 0.0
        if beta_n != 0.0:
            if cfg.variant == "l2":
                v = perturbation_l2(x, c)
            else:
                v = perturbation_l1(x, cfg.tau, c)
            pert_norm = beta_n * math.sqrt(float(v @ v))
            z = x + beta_n * v
        else:
            pert_norm = 0.0
            z = x

        rho_n = rho_at(cfg.rho, n)
        x_next, resid_z, theta_n = sublevel_step(cost, z, rho_n, cfg.mu, box)

        diff = x_next - x
        step_norm = math.sqrt(float(diff @ diff))
        # scalar checks: any overflow or nan upstream lands in one of these
        if not (math.isfinite(step_norm) and math.isfinite(resid_z)):
            raise NonFiniteIterate(n)

        objective = resid_z if pert_norm == 0.0 else cost.residual_sq(x)
        records.append((n, theta_n, objective, rho_n, step_norm, pert_norm))
        if record_iterates:
            iterates.append(x_next.copy())

        x = x_next
        if cfg.stop_eps > 0.0 and step_norm <= cfg.stop_eps:
            break

    trace = IterateTrace(
        **{col: np.asarray(vals) for col, vals in zip(TRACE_COLUMNS, zip(*records))},
        variant=cfg.variant,
        config_hash=cfg.config_hash(),
        summability_flag=cfg.beta.summable,
        iterates=np.asarray(iterates) if record_iterates else None,
    )
    return x, trace


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


def _distances(x_seq: np.ndarray, z_ref: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x_seq - z_ref[None, :], axis=1)


def check_quasi_fejer(trace: IterateTrace, x_seq: np.ndarray,
                      z_ref: np.ndarray, cost: QuadraticResidualCost,
                      cfg: ApsmConfig, tol: float = 1e-9) -> AuditResult:
    """Audit Type-I quasi-Fejér monotonicity toward a reference point.

    Checks ||x_{n+1} - z|| <= ||x_n - z|| + beta_n ||v_n|| + tol for every
    iteration at which the reference is feasible (its residual is within the
    radius); earlier iterations are outside the guarantee and are skipped.
    """
    start = activation_index(trace, cost.residual_sq(z_ref))
    if start is None:
        return AuditResult()
    d = _distances(x_seq, z_ref)
    count = len(trace)
    lhs = d[start + 1:count + 1]
    rhs = d[start:count] + trace.pert_norm[start:count] + tol
    return AuditResult.from_excess(lhs - rhs)


def check_attracting(trace: IterateTrace, x_seq: np.ndarray,
                     z_ref: np.ndarray, cost: QuadraticResidualCost,
                     cfg: ApsmConfig, tol: float = 1e-9) -> AuditResult:
    """Audit the kappa-attracting decrease with the perturbation slack.

    With kappa = 1 - mu/2, checks
    ||x_{n+1} - z||^2 <= ||x_n - z||^2 - kappa ||x_{n+1} - x_n||^2 + gamma_n,
    where gamma_n = beta_n * r^2 * (2 + b) is the summable slack implied by
    bounded perturbations; r and b are reconstructed from the recorded norms.
    """
    start = activation_index(trace, cost.residual_sq(z_ref))
    if start is None:
        return AuditResult()
    kappa = 1.0 - cfg.mu / 2.0
    count = len(trace)
    d = _distances(x_seq, z_ref)
    steps = trace.step_norm[start:count]
    betas = np.array([cfg.beta.at(int(k)) for k in trace.n[start:count]])
    v_norms = np.zeros_like(betas)
    pos = betas > 0
    v_norms[pos] = trace.pert_norm[start:count][pos] / betas[pos]
    r = max(
        float((d[start:count] + kappa * steps).max(initial=0.0)),
        float(v_norms.max(initial=0.0)),
    )
    b = cfg.beta.series_sum(cfg.max_iters)
    gamma = betas * r**2 * (2.0 + b)
    lhs = d[start + 1:count + 1] ** 2
    rhs = d[start:count] ** 2 - kappa * steps**2 + gamma + tol
    return AuditResult.from_excess(lhs - rhs)


def diagnose(cost: QuadraticResidualCost, cfg: ApsmConfig, c: Constellation,
             z_ref: np.ndarray,
             x0: np.ndarray | None = None) -> DiagnosticReport:
    """Run with full recording and audit both convergence inequalities."""
    _, trace = apsm_run(cost, cfg, c, x0=x0, record_iterates=True)
    tail = max(1, math.ceil(len(trace) / 10))
    return DiagnosticReport(
        quasi_fejer=check_quasi_fejer(trace, trace.iterates, z_ref, cost, cfg),
        attracting=check_attracting(trace, trace.iterates, z_ref, cost, cfg),
        theta_tail=float(trace.theta[-tail:].mean()),
        activation_index=activation_index(trace, cost.residual_sq(z_ref)),
    )
