"""Reference functions that only the tests call: the inverse of the real
lifting, the first-order optimality residual of a box-constrained
least-squares point, symbol errors counted by slicing both sides, and CSV
tables rendered through ``csv.writer``."""

import csv
import io

import numpy as np

from sapsm.cost import QuadraticResidualCost
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
