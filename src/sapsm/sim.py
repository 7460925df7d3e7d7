"""Monte-Carlo experiment harness with deterministic parallel execution.

Every trial draws its own channel/noise realization from a counter-based
seed mix, and all detectors within a trial share that realization (paired
comparison). Trials run in consecutive batches, and all iterative detectors
of a batch iterate as one engine stack; a row's result does not depend on
the stack it sits in. Aggregation is a plain integer sum, so results are
identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .apsm import apsm_run_batch
from .cost import ApsmConfig, QuadraticResidualCost, standard_config
from .detectors import _APSM_VARIANT, DetectorKind, detect
from .errors import ConfigError
from .geometry import Constellation, constellation
from .mimo import ChannelModel, make_instance, symbol_errors, trial_seed

CSV_HEADER = ("detector", "x_kind", "x_value", "errors", "symbols", "ser")
# most trials per engine stack: enough rows to amortize the per-iteration
# dispatch; a sweep with fewer tasks per worker uses smaller stacks, so that
# every worker gets one
BATCH_TRIALS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    k: int
    n: int
    modulation: str = "16qam"
    channel: ChannelModel = field(default_factory=ChannelModel)
    detectors: tuple[DetectorKind, ...] = ()
    snr_db: tuple[float, ...] = (9.0,)
    trials: int = 100
    max_iters: int = 300
    master_seed: int = 0
    apsm_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            kinds = tuple(DetectorKind(d) for d in self.detectors)
            overrides = {DetectorKind(k): v for k, v in self.apsm_overrides.items()}
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for kind, acfg in overrides.items():
            if _APSM_VARIANT.get(kind) != acfg.variant:
                raise ConfigError(f"{kind.value} cannot run a {acfg.variant!r} config")
        object.__setattr__(self, "detectors", kinds)
        object.__setattr__(self, "apsm_overrides", overrides)
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.snr_db:
            raise ConfigError("snr grid must be nonempty")
        if not self.detectors:
            raise ConfigError("detector list must be nonempty")
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError("duplicate detectors in list")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= K <= N, got K={self.k}, N={self.n}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


def resolve_apsm_config(cfg: ExperimentConfig,
                        kind: DetectorKind) -> ApsmConfig | None:
    """Per-detector run parameters: override if given, defaults otherwise,
    and None for the non-iterative baselines.

    The iteration budget always follows the experiment so per-iteration
    curves stay aligned across detectors.
    """
    if kind not in _APSM_VARIANT:
        return None
    base = cfg.apsm_overrides.get(kind) or standard_config(_APSM_VARIANT[kind])
    return replace(base, max_iters=cfg.max_iters)


@dataclass(frozen=True)
class SerRow:
    detector: str
    x_kind: str
    x_value: float
    errors: int
    symbols: int

    @property
    def ser(self) -> float:
        return self.errors / self.symbols

    def to_dict(self) -> dict:
        return asdict(self) | {"ser": self.ser}


@dataclass
class SerTable:
    rows: list[SerRow]

    def __post_init__(self):
        # row order is part of the output: detector, then x-value
        self.rows = self.sorted_rows()

    def sorted_rows(self) -> list[SerRow]:
        return sorted(self.rows, key=lambda r: (r.detector, r.x_value))


def _batch_errors(cfg: ExperimentConfig, c: Constellation, per_iteration: bool,
                  tasks: list[tuple[int, int]]) -> dict:
    """Error totals keyed by (detector, SNR index) over a batch of paired
    realizations.

    Each task is (SNR index, seed) and draws one realization. The baselines
    run per realization, in task order; the iterative detectors run the
    whole batch as one engine stack, rows ordered detector by realization,
    and a row does not depend on the stack it sits in. Per-iteration counts
    are arrays of length ``max_iters``; non-iterative baselines repeat their
    single count.
    """
    insts = [make_instance(cfg.channel, c, cfg.k, cfg.n, cfg.snr_db[si], seed)
             for si, seed in tasks]
    sent = np.stack([inst.s for inst in insts])
    errors = {}
    iterative = []
    for kind in cfg.detectors:
        acfg = resolve_apsm_config(cfg, kind)
        if acfg is not None:
            iterative.append((kind, acfg))
            continue
        x_hat = np.stack([detect(kind, inst, c)[0] for inst in insts])
        errors[kind] = symbol_errors(x_hat, sent, c)
        if per_iteration:
            errors[kind] = np.repeat(errors[kind][:, None], cfg.max_iters, axis=1)
    if iterative:
        costs = [QuadraticResidualCost(inst.H, inst.y) for _ in iterative for inst in insts]
        cfgs = [acfg for _, acfg in iterative for _ in insts]
        x_hat, traces = apsm_run_batch(costs, cfgs, c, record_iterates=per_iteration)
        for j, (kind, _) in enumerate(iterative):
            rows = slice(j * len(insts), (j + 1) * len(insts))
            if per_iteration:
                errors[kind] = [symbol_errors(trace.iterates[1:], s, c)
                                for trace, s in zip(traces[rows], sent)]
            else:
                errors[kind] = symbol_errors(x_hat[rows], sent, c)
    totals = {}
    for kind, errs in errors.items():
        for (si, _), e in zip(tasks, errs):
            totals[(kind, si)] = totals.get((kind, si), 0) + e
    return totals


_worker_limiter = None


def _init_worker():
    # small-matrix workloads: BLAS thread pools only add contention. The import
    # is lazy so serial runs skip it; where it is missing, BLAS keeps its default.
    global _worker_limiter
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return
    _worker_limiter = threadpool_limits(limits=1)


def _map_batches(fn, batches: list, workers: int):
    if workers <= 1 or len(batches) <= 1:
        return map(fn, batches)

    def parallel():
        chunk = max(1, len(batches) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker) as executor:
            yield from executor.map(fn, batches, chunksize=chunk)

    return parallel()


def _sweep(cfg: ExperimentConfig, per_iteration: bool, tasks: list,
           workers: int) -> dict:
    """Error totals keyed by (detector, SNR index), summed over the tasks."""
    fn = partial(_batch_errors, cfg, constellation(cfg.modulation), per_iteration)
    size = min(BATCH_TRIALS, math.ceil(len(tasks) / max(workers, 1)))
    batches = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    totals = {}
    for result in _map_batches(fn, batches, workers):
        for key, errs in result.items():
            totals[key] = totals.get(key, 0) + errs
    return totals


def run_ser_vs_iter(cfg: ExperimentConfig, workers: int = 1) -> SerTable:
    """Symbol error ratio per iteration, averaged over paired trials.

    Non-iterative baselines appear as flat lines. Requires a single SNR point.
    """
    if len(cfg.snr_db) != 1:
        raise ConfigError("iteration sweeps need exactly one SNR point")
    tasks = [(0, trial_seed(cfg.master_seed, t)) for t in range(cfg.trials)]
    totals = _sweep(cfg, True, tasks, workers)
    symbols = cfg.k * cfg.trials
    rows = []
    for kind in cfg.detectors:
        name = kind.value
        rows += [SerRow(name, "iter", float(it), errors, symbols)
                 for it, errors in enumerate(totals[(kind, 0)].tolist(), 1)]
    return SerTable(rows)


def run_ser_vs_snr(cfg: ExperimentConfig, workers: int = 1) -> SerTable:
    """Symbol error ratio of the final estimate across the SNR grid."""
    tasks = [(si, trial_seed(cfg.master_seed, si, t))
             for si in range(len(cfg.snr_db)) for t in range(cfg.trials)]
    totals = _sweep(cfg, False, tasks, workers)
    symbols = cfg.k * cfg.trials
    return SerTable([
        SerRow(kind.value, "snr_db", cfg.snr_db[si], int(totals[(kind, si)]), symbols)
        for kind in cfg.detectors
        for si in range(len(cfg.snr_db))
    ])


def table_text(table: SerTable, fmt: str = "csv") -> str:
    """Render a table with a stable row order and byte-stable formatting."""
    rows = table.sorted_rows()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.detector, r.x_kind,
                format(r.x_value, ".17g"),
                r.errors, r.symbols,
                format(r.ser, ".17g"),
            ])
        return buf.getvalue()
    if fmt == "json":
        body = json.dumps({"rows": [r.to_dict() for r in rows]}, sort_keys=True,
                          separators=(",", ":"))
        return body + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(table: SerTable, path, fmt: str = "csv") -> None:
    text = table_text(table, fmt)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc
