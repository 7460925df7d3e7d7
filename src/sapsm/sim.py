"""Monte-Carlo experiment harness with deterministic parallel execution.

Every trial draws its own channel/noise realization from a counter-based
seed mix, and all detectors within a trial share that realization (paired
comparison). Trials run in consecutive batches, and all iterative detectors
of a batch iterate as one engine stack; a row's result does not depend on
the stack it sits in, and every stack stops once each row's slicing
decision is certified final, which changes no count. A per-iteration sweep
records no iterates: it counts each chunk of them that the stack hands
over. Aggregation is a plain integer sum, so results are identical for any
worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .apsm import apsm_run_batch
from .cost import ApsmConfig, QuadraticResidualCost
from .detectors import (
    _APSM_VARIANT,
    _LMMSE_KINDS,
    DetectorKind,
    detect,
    detect_lmmse_batch,
    run_config,
)
from .errors import ConfigError
from .geometry import Constellation, constellation
from .mimo import (
    ChannelModel,
    interval_errors,
    make_instance,
    slicing_interval,
    snr_to_sigma2,
    trial_seed,
)

CSV_HEADER = ("detector", "x_kind", "x_value", "errors", "symbols", "ser")
# most trials per engine stack: enough rows to amortize the per-iteration
# dispatch; a sweep with fewer tasks per worker uses smaller stacks, so that
# every worker gets one
BATCH_TRIALS = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo experiment. Once built, ``run_configs`` holds one
    full run config per iterative detector of ``detectors``, in list order:
    ``run_config`` of its entry in ``apsm_overrides``, with the experiment's
    ``max_iters`` so per-iteration curves stay aligned. An override for any
    other detector, or of another variant, is a ConfigError.
    """

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
    run_configs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            kinds = tuple(DetectorKind(d) for d in self.detectors)
            overrides = {DetectorKind(k): v for k, v in self.apsm_overrides.items()}
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
        for snr in self.snr_db:
            snr_to_sigma2(snr, self.n, self.k)
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        resolved = {kind: replace(run_config(kind, overrides.get(kind)), max_iters=self.max_iters)
                    for kind in kinds if kind in _APSM_VARIANT}
        if not overrides.keys() <= resolved.keys():
            raise ConfigError("overrides apply only to the iterative detectors of the list")
        object.__setattr__(self, "run_configs", resolved)


def resolve_apsm_config(cfg: ExperimentConfig,
                        kind: DetectorKind) -> ApsmConfig | None:
    """The run parameters ``cfg`` resolved for an iterative detector of its
    list, and None for any other detector."""
    return cfg.run_configs.get(kind)


class SerRow(NamedTuple):
    detector: str
    x_kind: str
    x_value: float
    errors: int
    symbols: int

    @property
    def ser(self) -> float:
        return self.errors / self.symbols

    def to_dict(self) -> dict:
        return self._asdict() | {"ser": self.ser}


@dataclass
class SerTable:
    rows: list[SerRow]

    def __post_init__(self):
        # row order is part of the output: detector, then x-value
        self.rows = sorted(self.rows, key=itemgetter(0, 2))


def _batch_errors(cfg: ExperimentConfig, c: Constellation, per_iteration: bool,
                  tasks: list[tuple[int, int]]) -> dict:
    """Error totals keyed by (detector, SNR index) over a batch of paired
    realizations.

    Each task is (SNR index, seed) and draws one realization. The LMMSE
    baselines solve the whole batch as one stack, and the other baselines
    run per realization, in task order; the iterative detectors run the
    whole batch as one engine stack, rows ordered detector by realization.
    A row does not depend on the stack it sits in. Every detector's
    estimates are counted against the slicing intervals of the batch's
    references, found once; the engine's rows are counted as (..., iterative
    detectors, realizations, d). Per-iteration counts of an iterative
    detector are arrays of length ``max_iters``, counted chunk by chunk as
    the unrecorded stack hands its iterates over, the counts at a certified
    stop standing for every later iteration; a baseline keeps its single
    count.
    """
    insts = [make_instance(cfg.channel, c, cfg.k, cfg.n, cfg.snr_db[si], seed)
             for si, seed in tasks]
    bounds = slicing_interval(np.stack([inst.s for inst in insts]), c)
    errors = {}
    iterative = cfg.run_configs
    linear = tuple(kind for kind in cfg.detectors if kind in _LMMSE_KINDS)
    if linear:
        x_hat = detect_lmmse_batch(np.stack([inst.H for inst in insts]),
                                   np.stack([inst.y for inst in insts]),
                                   np.array([inst.sigma2 for inst in insts]), linear)
        errors = {kind: interval_errors(x, *bounds) for kind, x in x_hat.items()}
    for kind in cfg.detectors:
        if kind in iterative or kind in linear:
            continue
        x_hat = np.stack([detect(kind, inst, c)[0] for inst in insts])
        errors[kind] = interval_errors(x_hat, *bounds)
    if iterative:
        costs = [QuadraticResidualCost(inst.H, inst.y) for _ in iterative for inst in insts]
        cfgs = [acfg for acfg in iterative.values() for _ in insts]
        shape = (len(iterative), len(insts), -1)
        if per_iteration:
            chunks = []
            apsm_run_batch(costs, cfgs, c, certify=True, observe=lambda xs: chunks.append(
                interval_errors(xs.reshape(len(xs), *shape), *bounds)))
            # a stack stopped early keeps its last counts to the end
            last = chunks[-1][-1]
            chunks.append(np.broadcast_to(last, (cfg.max_iters - sum(map(len, chunks)),
                                                 *last.shape)))
            # each detector's count per realization and iteration
            counts = np.moveaxis(np.concatenate(chunks), 0, -1)
        else:
            x_hat, _ = apsm_run_batch(costs, cfgs, c, certify=True)
            counts = interval_errors(x_hat.reshape(shape), *bounds)
        errors.update(zip(iterative, counts))
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
        # loaded here, so a serial sweep never imports the process pool
        from concurrent.futures import ProcessPoolExecutor

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
    its = [float(it) for it in range(1, cfg.max_iters + 1)]
    rows = []
    for kind in cfg.detectors:
        counts = np.broadcast_to(totals[(kind, 0)], cfg.max_iters).tolist()
        name = kind.value
        rows += [SerRow(name, "iter", it, errors, symbols)
                 for it, errors in zip(its, counts)]
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
    """Render a table in its row order with byte-stable formatting."""
    if fmt == "csv":
        # fields go unquoted, so a name that would need quoting is refused
        names = {r.detector for r in table.rows} | {r.x_kind for r in table.rows}
        if any(c in n for n in names for c in ',"\n\r'):
            raise ConfigError("CSV names may not hold a comma, quote or line break")
        # each distinct x-value and ratio is formatted once per call
        x_text, ser_text = {}, {}
        lines = [",".join(CSV_HEADER)]
        for detector, x_kind, x, errors, symbols in table.rows:
            xs = x_text.get(x)
            if xs is None or not x:
                # 0.0 and -0.0 share a key but print apart: a zero skips the memo
                xs = x_text[x] = format(x, ".17g")
            ser = ser_text.get((errors, symbols))
            if ser is None:
                ser = ser_text[errors, symbols] = format(errors / symbols, ".17g")
            lines.append(f"{detector},{x_kind},{xs},{errors},{symbols},{ser}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"rows": [r.to_dict() for r in table.rows]}, sort_keys=True,
                          separators=(",", ":")) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def emit(table: SerTable, path, fmt: str = "csv") -> None:
    text = table_text(table, fmt)
    with open(path, "w", newline="") as fh:
        fh.write(text)
