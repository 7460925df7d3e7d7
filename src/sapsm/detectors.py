"""End-to-end detectors: the iterative variants plus closed-form and
exhaustive baselines.

Linear baselines are solved by factorization (never an explicit inverse);
the box-relaxation reference is solved exactly by an active-set method on
the normal equations, and the exhaustive search refuses candidate sets past
a fixed budget.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .apsm import IterateTrace, apsm_run
from .cost import ApsmConfig, QuadraticResidualCost, standard_config
from .errors import CandidateBudget, ConfigError, SolverFailure
from .geometry import BoxSet, Constellation, project_box
from .mimo import ChannelInstance

ML_CANDIDATE_LIMIT = 10**6
_ML_CHUNK = 1 << 15
# Cap on the linear solves of one box-oracle call: a solve that cycles
# returns unconverged instead of looping.
ACTIVE_SET_SOLVES = 1_000
# KKT tolerance of the box oracle, relative to the rounding scale of each
# gradient entry.
_KKT_RTOL = 1e-12


class DetectorKind(str, Enum):
    APSM_PLAIN = "apsm_plain"
    APSM_L2 = "apsm_l2"
    APSM_L1 = "apsm_l1"
    LMMSE = "lmmse"
    CONSTRAINED_LMMSE = "constrained_lmmse"
    BOX_ORACLE = "box_oracle"
    ML_BRUTEFORCE = "ml_bruteforce"


_APSM_VARIANT = {
    DetectorKind.APSM_PLAIN: "plain",
    DetectorKind.APSM_L2: "l2",
    DetectorKind.APSM_L1: "l1",
}


def _solve_spd(A: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Cholesky solve that raises a structured error on (near-)singularity
    instead of returning an inaccurate result with a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(A, rhs, assume_a="pos")
        except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
            raise SolverFailure(f"{what} singular to machine precision: {exc}") from exc


def detect_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Regularized linear estimate solving (H'H + sigma2 I) x = H'y."""
    H, y = instance.H, instance.y
    A = H.T @ H + instance.sigma2 * np.eye(H.shape[1])
    return _solve_spd(A, H.T @ y, "regularized normal equations")


def detect_constrained_lmmse(instance: ChannelInstance) -> np.ndarray:
    """Per-column bias-corrected linear estimate.

    Scales each coordinate of the regularized estimate by
    alpha_k = 1 / (h_k' (HH' + sigma2 I)^-1 h_k), with h_k the k-th column.
    By the push-through identity the denominator is the k-th diagonal entry
    of (H'H + sigma2 I)^-1 H'H, so one solve in the 2K-dimensional input
    space gives both the estimate and every alpha_k. With sigma2 = 0 and H
    of full column rank, every alpha_k is 1: zero forcing.
    """
    H = instance.H
    gram = H.T @ H
    A = gram + instance.sigma2 * np.eye(H.shape[1])
    sol = _solve_spd(A, np.column_stack([H.T @ instance.y, gram]),
                     "regularized normal equations")
    return sol[:, 0] / np.diagonal(sol[:, 1:])


class BoxOracleResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int


def first_order_residual(cost: QuadraticResidualCost, x: np.ndarray,
                         box: BoxSet) -> float:
    """Fixed-point residual ||x - P_B(x - grad/L)|| of the projected step,
    with L = 2 * lambda_max(H'H) the gradient's Lipschitz constant."""
    lipschitz = 2.0 * float(np.linalg.eigvalsh(cost.gram)[-1])
    return float(np.linalg.norm(x - project_box(x - cost.gradient(x) / lipschitz, box)))


def _kkt_excess(cost: QuadraticResidualCost, abs_gram: np.ndarray,
                x: np.ndarray, free: np.ndarray) -> np.ndarray:
    """How far each coordinate of x breaks the box KKT conditions.

    A free coordinate's gradient must vanish; a bound coordinate's must
    point out of the box (sign(x_i) * grad_i <= 0). Each entry is the
    breach minus a tolerance of _KKT_RTOL times the entry's rounding scale
    2(|G||x| + |h|), so x passes where every entry is <= 0.
    """
    g = cost.gradient(x)
    tol = 2.0 * _KKT_RTOL * (abs_gram @ np.abs(x) + np.abs(cost.hty))
    return np.where(free, np.abs(g), np.sign(x) * g) - tol


def _solve_block(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """LU solve that raises a structured error on an exactly singular block;
    an inaccurate solve of a near-singular one fails the KKT check instead.
    (``_solve_spd``'s condition estimate would triple the cost of these
    small solves.)"""
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"box-oracle normal equations singular: {exc}") from exc


def detect_box_oracle(instance: ChannelInstance, box: BoxSet) -> BoxOracleResult:
    """Box-relaxation reference: the exact minimizer of ||Hx - y||^2 over
    the box, by a primal active-set solve on the normal equations
    (bounded-variable least squares; Stark & Parker, Comput. Stat. 1995).

    Starts from the unconstrained solution of H'H x = H'y with every
    coordinate outside the box fixed at its nearest bound. Each step solves
    the free block with the bound coordinates held. A solution that leaves
    the box is followed only up to the first bound it meets, which fixes the
    coordinates there; a solution inside the box is kept, and the bound
    coordinate whose gradient points most strongly into the box is freed.
    ``converged`` means the returned x passes the KKT check of
    ``_kkt_excess``; ``iterations`` counts the linear solves, at most
    ACTIVE_SET_SOLVES.
    """
    cost = QuadraticResidualCost(instance.H, instance.y)
    G, h, a = cost.gram, cost.hty, box.a_max
    if not np.trace(G) > 0:
        raise SolverFailure("channel matrix has no energy")
    abs_gram = np.abs(G)
    x = _solve_block(G, h)
    free = np.abs(x) <= a
    x = np.clip(x, -a, a)
    settled = bool(free.all())
    for solves in range(1, ACTIVE_SET_SOLVES + 1):
        if settled:
            excess = _kkt_excess(cost, abs_gram, x, free)
            if np.all(excess <= 0):
                return BoxOracleResult(x, True, solves)
            excess[free] = -np.inf
            j = int(np.argmax(excess))
            if not excess[j] > 0:
                # only free coordinates breach: the block solve was inaccurate
                break
            free[j] = True
        if solves == ACTIVE_SET_SOLVES:
            break
        fi, bi = np.flatnonzero(free), np.flatnonzero(~free)
        zf = _solve_block(G[fi[:, None], fi], h[fi] - G[fi[:, None], bi] @ x[bi])
        out = np.abs(zf) > a
        settled = not out.any()
        if settled:
            x[fi] = zf
            continue
        xf = x[fi]
        dist = np.full(zf.shape, np.inf)
        dist[out] = (np.copysign(a, zf[out]) - xf[out]) / (zf[out] - xf[out])
        step = dist.min()
        xf = xf + step * (zf - xf)
        hit = (dist <= step) | (np.abs(xf) >= a)
        xf[hit] = np.copysign(a, xf[hit])
        x[fi] = xf
        free[fi[hit]] = False
    return BoxOracleResult(x, False, solves)


def detect_ml_bruteforce(instance: ChannelInstance, c: Constellation) -> np.ndarray:
    """Exact exhaustive minimizer of ||Hx - y||^2 over the lattice.

    Candidates are enumerated lexicographically (first coordinate most
    significant); exact objective ties keep the earliest candidate.
    """
    H, y = instance.H, instance.y
    dim = H.shape[1]
    total = c.size**dim
    if total > ML_CANDIDATE_LIMIT:
        raise CandidateBudget(total, ML_CANDIDATE_LIMIT)
    shape = (c.size,) * dim
    best_obj = math.inf
    best_idx = -1
    for start in range(0, total, _ML_CHUNK):
        idx = np.arange(start, min(start + _ML_CHUNK, total))
        digits = np.stack(np.unravel_index(idx, shape), axis=1)
        X = c.levels[digits]
        R = X @ H.T - y
        obj = np.einsum("ij,ij->i", R, R)
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_idx = int(idx[j])
    digits = np.unravel_index(best_idx, shape)
    return c.levels[np.asarray(digits)]


def detect(kind: DetectorKind, instance: ChannelInstance, c: Constellation,
           cfg: ApsmConfig | None = None,
           record_iterates: bool = False) -> tuple[np.ndarray, IterateTrace | None]:
    """Dispatch a detector on one channel realization.

    Iterative kinds return their trace; the baselines return ``None``. A
    ``cfg`` supplied for an iterative kind must be of that kind's variant.
    """
    kind = DetectorKind(kind)
    if kind in _APSM_VARIANT:
        variant = _APSM_VARIANT[kind]
        if cfg is None:
            cfg = standard_config(variant)
        elif cfg.variant != variant:
            raise ConfigError(f"{kind.value} needs a {variant!r} config, "
                              f"got {cfg.variant!r}")
        cost = QuadraticResidualCost(instance.H, instance.y)
        x, trace = apsm_run(cost, cfg, c, record_iterates=record_iterates)
        return x, trace
    if kind is DetectorKind.LMMSE:
        return detect_lmmse(instance), None
    if kind is DetectorKind.CONSTRAINED_LMMSE:
        return detect_constrained_lmmse(instance), None
    if kind is DetectorKind.BOX_ORACLE:
        return detect_box_oracle(instance, c.box()).x, None
    if kind is DetectorKind.ML_BRUTEFORCE:
        return detect_ml_bruteforce(instance, c), None
    raise ValueError(f"unhandled detector kind {kind!r}")
