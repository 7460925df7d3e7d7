"""Perturbed subgradient-projection engine with runtime convergence audits.

One run interleaves a superiorization perturbation (hard or soft slicing
toward the constellation lattice) with a relaxed subgradient projection onto
the current residual sublevel set, clamped to the box. The engine iterates a
stack of runs, one config per row (the perturbing rows perturb as one
block), each row bitwise the run it would be alone; a single run is a stack
of one. The recorded trace is enough to audit, after the fact, the two
inequalities that convergence theory promises: quasi-Fejér monotonicity of
Type I and the kappa-attracting step decrease, both relative to a feasible
reference point.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .cost import (
    ApsmConfig,
    QuadraticResidualCost,
    residuals,
    schedule_table,
    stack_costs,
    sublevel_step,
    sublevel_theta,
)
from .errors import ConfigError, NonFiniteIterate
from .geometry import Constellation, perturbation_l1, perturbation_l2, project_box, soft_slice

TRACE_COLUMNS = ("n", "theta", "objective", "rho", "step_norm", "pert_norm")
# iterations per chunk: a quiet chunk runs as perturbation and box clamp
# alone, and ``observe`` sees one chunk's iterates per call
CHUNK = 12
# rounding slack on the right-hand side of every audited inequality
AUDIT_TOL = 1e-9
# a certified stop's rounding margin, relative to the square of each row's
# scale a_max sum_i ||h_i|| + ||y|| (see ``_certified``)
CERTIFY_MARGIN = 2.0**-28


@dataclass
class IterateTrace:
    """Theta of each iteration of one run, with the config, cost and
    constellation it ran on, from which the other columns are derived.

    ``iterates`` holds x_0 .. x_final (one row more than there are
    iterations) and is only populated when requested; the objective and
    norm columns are derived from it, bitwise what a serial loop computes
    (np.matvec and np.vecdot make per iterate the BLAS call a loop makes).
    Each derived column is computed once per trace and shared read-only, so
    the two audits of one trace make one whole-run perturbation call.
    """

    theta: np.ndarray
    cfg: ApsmConfig
    cost: QuadraticResidualCost
    c: Constellation
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return self.theta.size

    @property
    def n(self) -> np.ndarray:
        return np.arange(len(self))

    @functools.cached_property
    def rho(self) -> np.ndarray:
        """The radius rho_n of each iteration."""
        return schedule_table(self.cfg.rho, len(self))

    def _recorded(self, column: str) -> np.ndarray:
        if self.iterates is None:
            raise ConfigError(f"the {column} column needs a run with record_iterates=True")
        return self.iterates

    @functools.cached_property
    def objective(self) -> np.ndarray:
        """The residual ||H x_n - y||^2 at each unperturbed iterate x_n."""
        xs = self._recorded("objective")[:-1]
        gram, hty, yty = self.cost.gram, self.cost.hty, self.cost.yty
        return _read_only(residuals(hty, yty, xs, np.matvec(gram, xs)))

    @functools.cached_property
    def step_norm(self) -> np.ndarray:
        """||x_{n+1} - x_n|| of each iteration."""
        d = np.diff(self._recorded("step_norm"), axis=0)
        return _read_only(np.sqrt(np.vecdot(d, d)))

    @functools.cached_property
    def pert_norm(self) -> np.ndarray:
        """beta_n ||v_n|| of each iteration; zero for the unperturbed run."""
        xs = self._recorded("pert_norm")[:-1]
        if self.cfg.variant == "plain":
            return _read_only(np.zeros(len(self)))
        v = _perturbation(self.cfg, xs, self.c)
        return _read_only(np.sqrt(np.vecdot(v, v)) * schedule_table(self.cfg.beta, len(self)))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for n, *values in zip(*(getattr(self, col) for col in TRACE_COLUMNS)):
                writer.writerow([int(n)] + [format(v, ".17g") for v in values])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _perturbation(cfg: ApsmConfig, x: np.ndarray, c: Constellation) -> np.ndarray:
    """The perturbation direction v of a perturbing config at each row of x."""
    if cfg.variant == "l2":
        return perturbation_l2(x, c)
    return perturbation_l1(x, cfg.tau, c)


def _certified(stacks: tuple[np.ndarray, np.ndarray, np.ndarray], x: np.ndarray,
               fixed: int, c: Constellation, tau: np.ndarray, later_beta: np.ndarray,
               rho_least: np.ndarray) -> bool:
    """Whether no row of the stack at x = x_n can step again, nor change its
    slicing decision, while the block betas ``later_beta`` of the
    iterations from n on are at most 1 and every later radius is at least
    ``rho_least``.

    While no theta is positive, an iteration k moves each block coordinate
    toward its level by beta_k min(tau, |x_k - level|), never past it (at
    worst one ulp). With r = P_S(x_n) - x_n and S the sum of the row's
    later betas, each later iterate of the row so stays in R, the
    coordinate hull of x_n and x_n + min(|r|, S min(tau, |r|)) sign(r),
    widened by a slack s on each side (R = {x_n} for a fixed row: the clamp
    of a box point is that point). R lies in x_n's slicing intervals, so
    the slice, and with it every later perturbation and decision, stays
    x_n's. With c the center of R and q its half-widths, every z = c +
    delta in R has exactly f(z) = f(c) + 2 (Gc - H'y)'delta + delta'G delta
    <= f(c) + 2 |Gc - H'y|'q + q'|G|q. A row whose bound, plus 2e, is at
    most ``rho_least`` thus has every later theta 0 (theta is zero exactly
    when the computed residual is at most the radius), and by induction
    never steps again.

    The slack s = (k + 1) 2^-48 a_max, k later iterations, covers the
    rounding of the moves. An iteration's computed move exceeds its exact
    one by a few roundings of quantities below 2 a_max. The computed S,
    k terms summed, falls short of the exact sum by at most k 2^-53 S,
    which costs at most k 2^-52 a_max while S min(tau, |r_i|) < |r_i| <=
    a_max (when not, the level bounds the move). Both stay below 2^-48
    a_max per iteration; the one more covers the ulp past the level and
    the rounding of c and q.

    The margin e = CERTIFY_MARGIN w^2, w = a_max sum_i sqrt(G_ii) +
    sqrt(y'y) per row, covers the rounding of the bound. The residual is
    computed as x'Gx - 2h'x + y'y, whose terms cancel: with |G_ij| <=
    ||h_i|| ||h_j|| and |h_i| <= ||h_i|| ||y|| (Cauchy-Schwarz, up to the
    rounding of G, h and y'y themselves, m rows of H deep), its error at
    any box point is at most (m + 2d + 4) 2^-53 w^2, below 2^-30 w^2 for
    m + 2d below 2^22. That error enters once at c and once at z; an
    asymmetry of G would be a rounding of H'H, of the same size. The two
    new terms are at most 2 w^2 and w^2 (|Gc - H'y|_i <= ||h_i|| w, and
    q_i <= a_max), so their roundings over d terms each, and the test's own
    arithmetic, stay below 2^-30 w^2 each for d below 2^17; 2e is eight
    times 2^-30 w^2. A nan anywhere fails the test.
    """
    gram, hty, yty = stacks
    w = c.a_max * np.sqrt(np.diagonal(gram, axis1=1, axis2=2)).sum(axis=1) + np.sqrt(yty)
    block = slice(fixed, None)
    r = c.nearest(x[block]) - x[block]
    half = np.minimum(np.abs(r), tau)
    half *= later_beta.sum(axis=0)
    np.minimum(half, np.abs(r), out=half)
    half *= 0.5
    center = x.copy()
    center[block] += np.copysign(half, r)
    half += (len(later_beta) + 1) * 2.0**-48 * c.a_max
    gc = np.matvec(gram, center)
    bound = residuals(hty, yty, center, gc)
    bound[block] += (2.0 * np.vecdot(np.abs(gc[block] - hty[block]), half)
                     + np.vecdot(half, np.matvec(np.abs(gram[block]), half)))
    bound += 2.0 * CERTIFY_MARGIN * w**2
    return bool((bound <= rho_least).all())


def _perturb_block(xb: np.ndarray, tau: np.ndarray, beta_n: np.ndarray,
                   c: Constellation, sliced: np.ndarray | None = None) -> None:
    """Move each row of the perturbing block xb, in place, to
    x + beta_n (soft_slice(x, tau) - x), tau and beta_n one column each;
    ``sliced`` is P_S(xb) when known."""
    v = soft_slice(xb, tau, c, sliced)
    v -= xb
    v *= beta_n
    xb += v


# a row that overflows or divides by zero surfaces as NonFiniteIterate, not
# as a numpy warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def apsm_run_batch(costs: list[QuadraticResidualCost], cfgs: list[ApsmConfig],
                   c: Constellation, record_iterates: bool = False,
                   observe: Callable[[np.ndarray], object] | None = None,
                   certify: bool = False) -> tuple[np.ndarray, list[IterateTrace]]:
    """Run the perturbed iteration on B problems at once, row i under
    ``cfgs[i]``; return (final iterates as (B, d), one trace per row).

    Follows the superiorized recursion on every row: perturb the current
    iterate, evaluate the sublevel cost and its subgradient at the perturbed
    point, take the relaxed subgradient-projection step, clamp to the box.
    The rows that perturb form one block, which perturbs as one soft-slicing
    call (l2 as tau = inf); all rows take one step together.
    Every row runs the ``max_iters`` iterations that all configs of a stack
    must share, and is bitwise the run it would be alone. Every row starts
    at x_0 = 0, and every iterate lies in the box. The loop records theta
    alone, in one table of which each trace holds a column.

    ``certify`` lets an unrecorded stack stop early. At each chunk end
    n < ``max_iters`` whose last iteration left every theta at 0, and
    after which no block beta is above 1, ``_certified`` may prove that no
    row steps again and that every later iterate has x_n's slicing
    decisions: it bounds each row's residual, to second order, over the
    hull of x_n and the points toward its slice that the row's remaining
    betas can still reach. The stack then returns x_n, its thetas from n
    on are 0, and ``observe`` has seen x_1 .. x_n alone. Without
    ``certify`` (the default) every stack goes the full budget.

    Each step is given the bound a_max (1 + 2 beta_max) on the perturbed
    points, beta_max the largest beta of the block: every x_n is a box
    point (x_0 = 0 too), and the soft slice lies between x_n and a level,
    so z_n = x_n + beta_n (soft_slice(x_n) - x_n) lies within beta_n 2 a_max
    of x_n. From it ``sublevel_step`` proves, in most steps, that its
    gradient-tolerance test would keep every row, and skips it.

    Iterations run in chunks of ``CHUNK``. Once the last iteration of a
    chunk leaves every row's theta at 0, the next chunk runs quiet: the
    fixed rows (those before the block) do not move, as the clamp of a box
    point is that point, and each iteration only perturbs and clamps the
    block, its perturbed points going into a (CHUNK, block rows, d) buffer;
    the chunk's thetas are found at its end. One call finds the fixed rows'
    (CHUNK, rows) thetas from their x against the chunk's radii, each
    bitwise the stacked call's on the same point, and one stacked call
    those of the block's perturbed points. The iterations before the first
    positive theta are kept; that iteration and the rest of the chunk run
    again as ordinary ones, from the same x, so with the same bits. While
    every block beta of the chunk is at most 1, the chunk slices the
    block's x once, at its start: a point moved toward its soft slice by a
    fraction of at most 1 stays between x and its level, so in x's slicing
    interval (correctly rounded operations are monotone, and at worst carry
    it one ulp past the level, still inside). A chunk with a beta above 1
    slices at every iteration. The quiet path holds one (CHUNK, block
    rows, d) float buffer, the perturbed points.

    ``observe``, when given, sees every iterate x_1 .. x_final, one chunk's
    iterates per call, as one (m, B, d) array in the caller's row order,
    at the chunk's end and before the run's finiteness check. A recorded
    run writes each chunk's iterates into its record, and an unrecorded one
    into a (CHUNK, B, d) buffer; the array is a view of these when the
    engine's sort left the rows in place, else one gather of them. A view
    of the buffer is valid only during the call.
    """
    if len(cfgs) != len(costs):
        raise ConfigError(f"{len(cfgs)} configs for {len(costs)} problems")
    if certify and record_iterates:
        raise ConfigError("a certified stop records no iterates after it")
    budgets = sorted({cfg.max_iters for cfg in cfgs})
    if len(budgets) != 1:
        raise ConfigError(f"a stack needs one max_iters, got {budgets}")
    (steps,) = budgets
    # the rows that can perturb go last, stably, as one block, perturbed in
    # place (each step returns a new x) by tau (inf for l2) and beta_n columns
    perturbs = [(cfg.variant == "l2" or cfg.tau > 0) and schedule_table(cfg.beta, steps).any()
                for cfg in cfgs]
    order = sorted(range(len(cfgs)), key=perturbs.__getitem__)
    fixed = perturbs.count(False)
    block = slice(fixed, None)
    row_cfgs = [cfgs[i] for i in order]
    stacks = gram, hty, yty = stack_costs([costs[i] for i in order])
    size, dim = hty.shape
    x = np.zeros((size, dim))
    box = c.box()
    rho = np.stack([schedule_table(cfg.rho, steps) for cfg in row_cfgs], axis=1)
    mu = np.array([cfg.mu for cfg in row_cfgs])
    tau = np.array([cfg.tau if cfg.variant == "l1" else np.inf for cfg in row_cfgs[block]]
                   ).reshape(-1, 1)
    beta = np.array([schedule_table(cfg.beta, steps) for cfg in row_cfgs[block]]
                    ).reshape(-1, steps).T[:, :, None]
    perturbing = beta.any(axis=(1, 2)).tolist()
    # a beta above 1 may carry a block row out of its slicing interval
    overshoots = (beta > 1.0).any(axis=(1, 2)).tolist()
    z_bound = box.a_max * (1.0 + 2.0 * float(beta.max(initial=0.0)))
    thetas = np.empty((steps, size))
    iterates = np.zeros((size, steps + 1, dim)) if record_iterates else None
    rows = np.argsort(order).tolist()
    in_order = order == list(range(size))
    # the iterates of a chunk of an observed, unrecorded run
    buffer = (np.empty((min(CHUNK, steps), size, dim))
              if observe is not None and not record_iterates else None)
    # a quiet chunk's perturbed block points z_n
    zs = np.empty((min(CHUNK, steps), size - fixed, dim))
    quiet = False

    for start in range(0, steps, CHUNK):
        end = min(start + CHUNK, steps)
        # where the chunk's iterates x_{start+1} .. x_end go, if anywhere
        out = (iterates[:, start + 1:end + 1].swapaxes(0, 1) if record_iterates
               else None if buffer is None else buffer[:end - start])
        resume = start
        if quiet:
            # the block's x_{n+1} is the clamp of z_n, written where z_{n+1}
            # is formed; the fixed rows do not move
            zs[0] = x[block]
            sliced = None
            if any(perturbing[start:end]) and not any(overshoots[start:end]):
                sliced = c.nearest(zs[0])
            for k, n in enumerate(range(start, end)):
                if perturbing[n]:
                    _perturb_block(zs[k], tau, beta[n], c, sliced)
                if n + 1 < end:
                    project_box(zs[k], box, out=zs[k + 1])
            m = end - start
            # the chunk's thetas go straight into the table: the ordinary
            # loop writes over those from the first positive one on
            theta = thetas[start:end]
            if fixed:
                theta[:, :fixed] = sublevel_theta(*(a[:fixed] for a in stacks), x[:fixed],
                                                  rho[start:end, :fixed])[1]
            if fixed < size:
                theta[:, block] = sublevel_theta(*(a[block] for a in stacks), zs[:m],
                                                 rho[start:end, block])[1]
            hot = np.flatnonzero(theta.any(axis=1))
            kept = int(hot[0]) if hot.size else m
            resume = start + kept
            if kept:
                project_box(zs[kept - 1], box, out=x[block])
                if out is not None:
                    out[:kept, :fixed] = x[:fixed]
                    project_box(zs[:kept], box, out=out[:kept, block])
        for n in range(resume, end):
            if perturbing[n]:
                _perturb_block(x[block], tau, beta[n], c)
            x, thetas[n] = sublevel_step(gram, hty, yty, x, rho[n], mu, box, z_bound)
            if out is not None:
                out[n - start] = x
        if observe is not None:
            observe(out if in_order else out[:, rows])
        quiet = not np.count_nonzero(thetas[end - 1])
        if (certify and quiet and end < steps and not any(overshoots[end:])
                and _certified(stacks, x, fixed, c, tau, beta[end:], rho[end:].min(axis=0))):
            thetas[end:] = 0.0
            break

    # a nan in x_{n+1} reaches theta_{n+1} through the residual, and the box
    # clips an inf: theta names the first bad iteration, x only the last
    bad = np.flatnonzero(~np.isfinite(thetas).all(axis=1))
    if bad.size:
        raise NonFiniteIterate(int(bad[0]))
    if not np.isfinite(x).all():
        raise NonFiniteIterate(steps - 1)
    return x[rows], [IterateTrace(thetas[:, j], cfgs[i], costs[i], c,
                                  iterates[j] if record_iterates else None)
                     for i, j in enumerate(rows)]


def apsm_run(cost: QuadraticResidualCost, cfg: ApsmConfig, c: Constellation,
             record_iterates: bool = False) -> tuple[np.ndarray, IterateTrace]:
    """Run the perturbed iteration on one problem and return (final iterate,
    trace): ``apsm_run_batch`` on a stack of one."""
    final, (trace,) = apsm_run_batch([cost], [cfg], c, record_iterates)
    return final[0], trace


@dataclass
class AuditResult:
    """Outcome of one inequality audit over an iterate sequence."""

    checked: int = 0
    violations: int = 0
    max_excess: float = 0.0

    @classmethod
    def from_excess(cls, excess: np.ndarray) -> "AuditResult":
        """Tally lhs - rhs of the audited inequality, one entry per step; an
        excess that is not a number counts as a violation."""
        return cls(int(excess.size), int(np.count_nonzero(~(excess <= 0))),
                   float(excess.max(initial=0.0)))

    def __add__(self, other: "AuditResult") -> "AuditResult":
        """The tally of both audits' steps together; a nan worst excess on
        either side is the worst (Python's max keeps it only when first)."""
        worst = other.max_excess
        if not math.isnan(worst):
            worst = max(self.max_excess, worst)
        return AuditResult(self.checked + other.checked, self.violations + other.violations,
                           worst)

    @property
    def passed(self) -> bool:
        # an audit that checked no step proves nothing, so it does not pass
        return self.violations == 0 and self.checked > 0


def attracting_audit(after_sq: np.ndarray, before_sq: np.ndarray, gap_sq: np.ndarray,
                     mu: float) -> AuditResult:
    """Tally the kappa-attracting inequality, kappa = 1 - mu/2, one entry per
    step: after_sq <= before_sq - kappa gap_sq + AUDIT_TOL, on the squared
    distances to the reference after and before the step and its squared gap."""
    return AuditResult.from_excess(after_sq - (before_sq - (1.0 - mu / 2.0) * gap_sq + AUDIT_TOL))


@dataclass
class DiagnosticReport:
    """Summary of the convergence audits for a single recorded run."""

    quasi_fejer: AuditResult
    attracting: AuditResult
    theta_tail: float
    activation_index: int | None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def activation_index(trace: IterateTrace, residual_ref: float) -> int | None:
    """First record index whose radius makes the reference point feasible."""
    hits = np.nonzero(trace.rho >= residual_ref)[0]
    return int(hits[0]) if hits.size else None


def _audit_window(trace: IterateTrace, x_seq: np.ndarray, z_ref: np.ndarray,
                  cost: QuadraticResidualCost) -> tuple[int, np.ndarray]:
    """The activation index and the distances ||x_n - z|| of the iterates
    x_0 .. x_N of a trace of N records; the audited window is empty
    (start = N) when the reference never becomes feasible."""
    start = activation_index(trace, cost.residual_sq(z_ref))
    return (len(trace) if start is None else start,
            np.linalg.norm(x_seq - z_ref[None, :], axis=1))


def check_quasi_fejer(trace: IterateTrace, x_seq: np.ndarray,
                      z_ref: np.ndarray, cost: QuadraticResidualCost,
                      cfg: ApsmConfig) -> AuditResult:
    """Audit Type-I quasi-Fejér monotonicity toward a reference point.

    Checks ||x_{n+1} - z|| <= ||x_n - z|| + beta_n ||v_n||, up to AUDIT_TOL,
    for every iteration at which the reference is feasible (its residual is
    within the radius); earlier iterations are outside the guarantee.
    """
    start, d = _audit_window(trace, x_seq, z_ref, cost)
    rhs = d[start:-1] + trace.pert_norm[start:] + AUDIT_TOL
    return AuditResult.from_excess(d[start + 1:] - rhs)


def check_attracting(trace: IterateTrace, x_seq: np.ndarray,
                     z_ref: np.ndarray, cost: QuadraticResidualCost,
                     cfg: ApsmConfig) -> AuditResult:
    """Audit the kappa-attracting decrease, each step charged its own
    perturbation.

    With kappa = 1 - mu/2, d_n = ||x_n - z||, p_n = beta_n ||v_n|| and
    s_n = ||x_{n+1} - x_n||, checks, up to AUDIT_TOL, over the same window
    as the quasi-Fejér audit,
    d_{n+1}^2 <= (d_n + p_n)^2 - kappa max(s_n - p_n, 0)^2.
    The perturbed point z_n = x_n + beta_n v_n lies within d_n + p_n of z
    and within p_n of x_n, so ||x_{n+1} - z_n|| >= s_n - p_n, and the step
    x_{n+1} = T(z_n) is kappa-attracting toward z. Unperturbed steps
    (p_n = 0) get no slack, whatever the beta schedule.
    """
    start, d = _audit_window(trace, x_seq, z_ref, cost)
    pert = trace.pert_norm[start:]
    gap = np.maximum(trace.step_norm[start:] - pert, 0.0)
    return attracting_audit(d[start + 1:] ** 2, (d[start:-1] + pert) ** 2, gap**2, cfg.mu)


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
