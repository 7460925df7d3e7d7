"""In-memory spans recorded around the calls into each ``sapsm`` module.

Nothing under ``src/`` is changed: the tracer replaces a function with a
timing wrapper at the module attribute where its caller looks it up, and
restores the original when the traced block ends. ``apsm`` binds
``perturbation_l1``/``perturbation_l2`` by name, so those are patched on
``sapsm.apsm``, not on ``sapsm.geometry``; the same holds for every other
``from .x import f`` in the package.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
from time import perf_counter_ns

# A span is [name, start_ns, end_ns, parent_index, trial_id, attrs].
NAME, START, END, PARENT, TRIAL, ATTRS = range(6)


class Tracer:
    """Collects spans in a flat list; a span's parent is the span open when
    it started, and every span carries the id of the realization it serves."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trial = -1

    def wrap(self, fn, name, attrs=None, new_trial=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_trial:
                tracer.trial += 1
            span = [name, 0, 0, tracer._open[-1] if tracer._open else -1,
                    tracer.trial, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                tracer._open.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, out)
            return out

        return traced

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_ns", "end_ns", "parent",
                             "trial", "attrs"))
            for i, s in enumerate(self.spans):
                writer.writerow((i, s[NAME], s[START], s[END], s[PARENT],
                                 s[TRIAL], "" if s[ATTRS] is None else s[ATTRS]))


def _apsm_attrs(args, kwargs, out):
    cost, cfg = args[0], args[1]
    trace = out[1]
    return {"variant": cfg.variant,
            "record": bool(kwargs.get("record_iterates", False)),
            "iters": len(trace),
            "max_iters": cfg.max_iters,
            "dim": cost.dim_in,
            "feasible": bool(trace.theta[-1] == 0.0)}


def _detect_attrs(args, kwargs, out):
    return {"kind": getattr(args[0], "value", args[0])}


def _box_attrs(args, kwargs, out):
    return {"iters": out.iterations, "converged": bool(out.converged)}


def _audit_attrs(args, kwargs, out):
    return {"checked": out.checked, "violations": out.violations}


def _sweep_attrs(args, kwargs, out):
    cfg = args[0]
    return {"trials": cfg.trials * len(cfg.snr_db)}


# (owner as "module" or "module:Class", attribute, span name, attrs function,
#  whether the call starts a new realization)
PATCH_POINTS = (
    ("sapsm.sim", "run_ser_vs_snr", "sim.run_ser_vs_snr", _sweep_attrs, False),
    ("sapsm.sim", "run_ser_vs_iter", "sim.run_ser_vs_iter", _sweep_attrs, False),
    ("sapsm.sim", "table_text", "sim.table_text", None, False),
    ("sapsm.sim", "make_instance", "mimo.make_instance", None, True),
    ("sapsm.mimo", "make_instance", "mimo.make_instance", None, True),
    ("sapsm.validation", "make_instance", "mimo.make_instance", None, True),
    ("sapsm.sim", "detect", "detectors.detect", _detect_attrs, False),
    ("sapsm.detectors", "detect", "detectors.detect", _detect_attrs, False),
    ("sapsm.detectors", "detect_box_oracle", "detectors.box_oracle_solve",
     _box_attrs, False),
    ("sapsm.detectors", "apsm_run", "apsm.apsm_run", _apsm_attrs, False),
    ("sapsm.validation", "apsm_run", "apsm.apsm_run", _apsm_attrs, False),
    ("sapsm.apsm", "check_quasi_fejer", "apsm.check_quasi_fejer", _audit_attrs, False),
    ("sapsm.apsm", "check_attracting", "apsm.check_attracting", _audit_attrs, False),
    ("sapsm.validation", "check_quasi_fejer", "apsm.check_quasi_fejer",
     _audit_attrs, False),
    ("sapsm.validation", "check_attracting", "apsm.check_attracting",
     _audit_attrs, False),
    ("sapsm.apsm", "perturbation_l1", "geometry.perturbation_l1", None, False),
    ("sapsm.apsm", "perturbation_l2", "geometry.perturbation_l2", None, False),
    ("sapsm.validation", "prox_l1_levels", "geometry.prox_l1_levels", None, False),
    ("sapsm.validation", "apsm_map", "cost.apsm_map", None, False),
    ("sapsm.cost:QuadraticResidualCost", "__init__", "cost.gram_build", None, False),
    ("sapsm.validation", "run_all_suites", "validation.run_all_suites", None, False),
    ("sapsm.validation", "prox_grid_suite", "validation.prox_grid_suite", None, False),
    ("sapsm.validation", "attracting_step_suite", "validation.attracting_step_suite",
     None, False),
    ("sapsm.validation", "quasi_fejer_suite", "validation.quasi_fejer_suite",
     None, False),
    ("sapsm.validation", "attracting_run_suite", "validation.attracting_run_suite",
     None, False),
)


def patch_owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples and restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced(tracer: Tracer):
    """Context in which every patch point records spans into ``tracer``."""
    replacements = []
    for spec, attr, name, attrs, new_trial in PATCH_POINTS:
        obj = patch_owner(spec)
        replacements.append(
            (obj, attr, tracer.wrap(getattr(obj, attr), name, attrs, new_trial)))
    return patched(replacements)
