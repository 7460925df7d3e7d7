"""Reference functions that only the tests call: the inverse of the real
lifting, the first-order optimality residual of a box-constrained
least-squares point, symbol errors counted by slicing both sides, CSV
tables rendered through ``csv.writer``, the attracting audit under a
whole-window perturbation slack, both LMMSE baselines of one realization
solved on its own, the hard-slicing perturbation as the plain
difference P_S(x) - x, and the peak memory a call allocates."""

import csv
import io
import tracemalloc

import numpy as np

from sapsm.apsm import AUDIT_TOL, IterateTrace, _audit_window
from sapsm.cost import ApsmConfig, BetaSchedule, QuadraticResidualCost, schedule_table
from sapsm.errors import DimensionMismatch
from sapsm.geometry import BoxSet, Constellation, project_box
from sapsm.sim import CSV_HEADER, SerTable


def complexify(H: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sapsm.mimo.realify` (top blocks only)."""
    n2, k2 = H.shape
    if n2 % 2 or k2 % 2:
        raise DimensionMismatch("realified matrix must have even dimensions")
    n, k = n2 // 2, k2 // 2
    return H[:n, :k] + 1j * H[n:, :k]


def complexify_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.size % 2:
        raise DimensionMismatch("realified vector must have even length")
    k = v.size // 2
    return v[:k] + 1j * v[k:]


def first_order_residual(cost: QuadraticResidualCost, x: np.ndarray,
                         box: BoxSet) -> float:
    """Fixed-point residual ||x - P_B(x - grad/L)|| of the projected step,
    with L = 2 * lambda_max(H'H) the gradient's Lipschitz constant."""
    lipschitz = 2.0 * float(np.linalg.eigvalsh(cost.gram)[-1])
    return float(np.linalg.norm(x - project_box(x - cost.gradient(x) / lipschitz, box)))


def hard_slicing_perturbation(x: np.ndarray, c: Constellation) -> np.ndarray:
    """P_S(x) - x as one subtraction, the reference for
    :func:`sapsm.geometry.perturbation_l2` (which maps x = +-inf to nan,
    where this gives -+inf)."""
    return c.nearest(x) - x


def symbol_errors_by_slicing(x_hat: np.ndarray, s: np.ndarray,
                             c: Constellation) -> int | np.ndarray:
    """Symbol errors as the index comparison of the sliced estimate and the
    sliced reference (equal to :func:`sapsm.mimo.symbol_errors` on finite
    estimates; a non-finite coordinate slices to an end level here)."""
    x_hat = np.asarray(x_hat, dtype=float)
    k = np.shape(s)[-1] // 2
    wrong = c.nearest_indices(x_hat) != c.nearest_indices(np.asarray(s, dtype=float))
    errors = np.count_nonzero(wrong[..., :k] | wrong[..., k:], axis=-1)
    return errors if x_hat.ndim == 2 else int(errors)


def table_text_csv_writer(table: SerTable) -> str:
    """A table's CSV text as ``csv.writer`` renders it, with ``.17g`` floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in table.rows:
        writer.writerow([r.detector, r.x_kind, format(r.x_value, ".17g"),
                         r.errors, r.symbols, format(r.ser, ".17g")])
    return buf.getvalue()


def beta_series_sum(beta: BetaSchedule, n_terms: int) -> float:
    """Sum of the full beta series when summable, else of the finite run."""
    if beta.kind == "geometric":
        return 1.0 / (1.0 - beta.value)
    if beta.kind == "constant":
        return beta.value * n_terms
    return 0.0


def attracting_whole_window(trace: IterateTrace, x_seq: np.ndarray, z_ref: np.ndarray,
                            cost: QuadraticResidualCost,
                            cfg: ApsmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-step excess lhs - rhs of the attracting audit that charges every
    step the slack gamma_n = beta_n r^2 (2 + b), and gamma_n itself, over
    the audited window (both empty when the reference is never feasible).
    Here r bounds d_n + kappa s_n and ||v_n|| over the whole window and b
    is the sum of the whole beta series."""
    start, d = _audit_window(trace, x_seq, z_ref, cost)
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
    gamma = betas * r**2 * (2.0 + beta_series_sum(cfg.beta, cfg.max_iters))
    lhs = d[start + 1:] ** 2
    rhs = d[start:-1] ** 2 - kappa * steps**2 + gamma + AUDIT_TOL
    return lhs - rhs, gamma


def lmmse_pair_alone(H: np.ndarray, y: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """(lmmse, constrained_lmmse) of one realization, each from its own 2-D
    normal equations and solve, without the singularity certificate."""
    gram = H.T @ H
    hty = H.T @ y
    A = gram.copy()
    A.flat[::A.shape[0] + 1] += sigma2
    sol = np.linalg.solve(A, np.column_stack([hty, gram]))
    return np.linalg.solve(A, hty), sol[:, 0] / np.diagonal(sol[:, 1:])


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated during the call
    above what was allocated when it began). numpy reports its array
    buffers to tracemalloc, so the peak counts them."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
