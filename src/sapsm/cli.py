"""Command-line front end.

Subcommands: ``ser-iter`` and ``ser-snr`` run Monte-Carlo sweeps, ``detect``
runs every requested detector on one seeded realization, ``diagnose`` audits
the convergence inequalities of one run per requested iterative detector,
and ``validate`` executes the randomized invariant suites. Each subcommand
takes only the flags (and config-file keys) it reads. Option precedence is
flag > config file > built-in default; the built-in defaults mirror the
reference experiment setup (K=16, N=64, 16-QAM, 9 dB) at a reduced trial
count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import partial

from .apsm import diagnose
from .cost import BetaSchedule, QuadraticResidualCost, RhoSchedule
from .detectors import _APSM_VARIANT, DetectorKind, detect, run_config
from .errors import ConfigError
from .geometry import constellation
from .mimo import ChannelModel, make_instance, symbol_errors
from .sim import (
    ExperimentConfig,
    emit,
    run_ser_vs_iter,
    run_ser_vs_snr,
    table_text,
)
from .validation import run_all_suites

# key -> (type, built-in default, extra add_argument keywords). The flag is
# --key with "-" for "_"; config-file values are checked against the type.
FLAGS = {
    "k": (int, 16, {}),
    "n": (int, 64, {}),
    "mod": (str, "16qam", {"choices": ["qpsk", "16qam", "64qam"]}),
    "channel": (str, "iid", {"choices": ["iid", "kronecker"]}),
    "rho_tx": (float, 0.0, {}),
    "rho_rx": (float, 0.0, {}),
    "snr": (float, [9.0], {"action": "append", "help": "SNR in dB (repeatable)"}),
    "trials": (int, 100, {}),
    "iters": (int, 300, {}),
    "detectors": (str, "apsm_plain,apsm_l2,apsm_l1,constrained_lmmse,box_oracle",
                  {"help": "comma-separated detector list"}),
    "rho0": (float, None, {}),
    "growth": (float, None, {}),
    "mu": (float, None, {}),
    "beta": (float, None, {"help": "constant perturbation scaling"}),
    "beta_geom": (float, None, {"help": "geometric perturbation scaling base"}),
    "tau": (float, None, {}),
    "seed": (int, 0, {}),
    "workers": (int, None, {}),
    "out": (str, None, {}),
    "format": (str, "csv", {"choices": ["csv", "json"]}),
    "dump_trace": (str, None,
                   {"help": "write the per-iteration trace CSV of one detector"}),
}
DEFAULTS = {key: default for key, (_, default, _) in FLAGS.items()}
_SWEEP_KEYS = tuple(k for k in FLAGS if k != "dump_trace")
_DETECT_KEYS = tuple(k for k in FLAGS if k not in ("trials", "workers", "out", "format"))
# subcommand -> the keys it reads; any other flag or config-file key is an error
COMMAND_KEYS = {
    "ser-iter": _SWEEP_KEYS,
    "ser-snr": _SWEEP_KEYS,
    "detect": _DETECT_KEYS,
    "diagnose": tuple(k for k in _DETECT_KEYS if k != "dump_trace"),
    "validate": ("seed",),
}
# keys whose file value may also be a list of values of the flag's type
_LIST_KEYS = ("snr", "detectors")
# JSON types accepted for each flag type (bool is excluded separately)
_FILE_TYPES = {int: (int,), float: (int, float), str: (str,)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_flags(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    p.add_argument("--config", type=str, default=None,
                   help="JSON config file (flags override file values)")
    for key in keys:
        typ, _, extra = FLAGS[key]
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, **extra)


def _file_value(key: str, val):
    """A config-file value, checked against and converted to its flag's type."""
    typ = FLAGS[key][0]
    if val is None and DEFAULTS[key] is None:
        return None
    listed = isinstance(val, list) and key in _LIST_KEYS
    items = val if listed else [val]
    if not all(isinstance(v, _FILE_TYPES[typ]) and not isinstance(v, bool)
               for v in items):
        raise ConfigError(f"config key {key!r} needs a {typ.__name__} value, "
                          f"got {val!r}")
    choices = FLAGS[key][2].get("choices")
    if choices is not None and val not in choices:
        raise ConfigError(f"config key {key!r} must be one of {choices}, "
                          f"got {val!r}")
    return [typ(v) for v in items] if listed else typ(val)


def _resolve(args: argparse.Namespace) -> dict:
    keys = COMMAND_KEYS[args.command]
    merged = dict(DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}")
        if not isinstance(file_vals, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_vals) - set(keys)
        if unknown:
            raise ConfigError(f"config keys not read by {args.command}: "
                              f"{sorted(unknown)}")
        merged.update({key: _file_value(key, val) for key, val in file_vals.items()})
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    if isinstance(merged["snr"], float):
        merged["snr"] = [merged["snr"]]
    # every subcommand reads the seed; numpy refuses a negative one mid-run
    if merged["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {merged['seed']}")
    return merged


def _apsm_overrides(vals: dict, names: list[str]) -> dict:
    """Standard run parameters of each iterative detector among ``names``,
    with each schedule flag applied to the variants that read it (the
    experiment sets the budget, and rejects any name it does not know)."""
    if vals["beta"] is not None and vals["beta_geom"] is not None:
        raise ConfigError("--beta and --beta-geom are mutually exclusive")
    overrides = {}
    for name in filter(_APSM_VARIANT.__contains__, names):
        base = run_config(DetectorKind(name))
        variant = base.variant
        rho = RhoSchedule(
            vals["rho0"] if vals["rho0"] is not None else base.rho.rho0,
            vals["growth"] if vals["growth"] is not None else base.rho.growth,
        )
        beta = base.beta
        if variant != "plain" and vals["beta"] is not None:
            beta = BetaSchedule.constant(vals["beta"])
        elif variant != "plain" and vals["beta_geom"] is not None:
            beta = BetaSchedule.geometric(vals["beta_geom"])
        tau = vals["tau"] if vals["tau"] is not None and variant == "l1" else base.tau
        overrides[name] = replace(base, rho=rho, beta=beta, tau=tau,
                                  mu=vals["mu"] if vals["mu"] is not None else base.mu)
    return overrides


def _experiment_config(vals: dict) -> ExperimentConfig:
    names = vals["detectors"]
    if isinstance(names, str):
        names = [s.strip() for s in names.split(",") if s.strip()]
    return ExperimentConfig(
        k=vals["k"],
        n=vals["n"],
        modulation=vals["mod"],
        channel=ChannelModel(vals["channel"], vals["rho_tx"], vals["rho_rx"]),
        detectors=tuple(names),
        snr_db=tuple(vals["snr"]),
        trials=vals["trials"],
        max_iters=vals["iters"],
        master_seed=vals["seed"],
        apsm_overrides=_apsm_overrides(vals, names),
    )


def _workers(vals: dict) -> int:
    w = vals["workers"]
    if w is None:
        w = os.cpu_count() or 1
    if w < 1:
        raise ConfigError("workers must be at least 1")
    return w


def _write_table(table, vals: dict) -> None:
    if vals["out"]:
        emit(table, vals["out"], vals["format"])
    else:
        sys.stdout.write(table_text(table, vals["format"]))


def _cmd_sweep(run, args) -> int:
    vals = _resolve(args)
    _write_table(run(_experiment_config(vals), workers=_workers(vals)), vals)
    return 0


def _single_instance(vals: dict):
    if len(vals["snr"]) != 1:
        raise ConfigError("single-shot commands need exactly one --snr")
    cfg = _experiment_config(vals)
    c = constellation(cfg.modulation)
    inst = make_instance(cfg.channel, c, cfg.k, cfg.n, cfg.snr_db[0],
                         cfg.master_seed)
    return cfg, c, inst


def _cmd_detect(args) -> int:
    vals = _resolve(args)
    cfg, c, inst = _single_instance(vals)
    if vals["dump_trace"] and len(cfg.run_configs) != 1:
        raise ConfigError("--dump-trace needs exactly one iterative detector")
    cost = QuadraticResidualCost(inst.H, inst.y)
    for kind in cfg.detectors:
        # the trace derives its objective and norm columns from the iterates
        x_hat, trace = detect(kind, inst, c, cfg.run_configs.get(kind),
                              record_iterates=bool(vals["dump_trace"]))
        if vals["dump_trace"] and trace is not None:
            trace.to_csv(vals["dump_trace"])
        print(f"detector={kind.value} residual={cost.residual_sq(x_hat):.6e} "
              f"symbol_errors={symbol_errors(x_hat, inst.s, c)}")
    return 0


def _cmd_diagnose(args) -> int:
    vals = _resolve(args)
    cfg, c, inst = _single_instance(vals)
    if not cfg.run_configs:
        raise ConfigError("diagnose needs at least one iterative detector")
    cost = QuadraticResidualCost(inst.H, inst.y)
    ok = True
    for kind, acfg in cfg.run_configs.items():
        report = diagnose(cost, acfg, c, inst.s)
        print(f"detector={kind.value} summable_beta={acfg.beta.summable}")
        print(report.to_json())
        ok &= report.quasi_fejer.passed and report.attracting.passed
    return 0 if ok else 1


def _cmd_validate(args) -> int:
    vals = _resolve(args)
    results = run_all_suites(seed=vals["seed"])
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sapsm",
                     description="Superiorized subgradient-projection MIMO "
                                 "detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, desc in (
        ("ser-iter", partial(_cmd_sweep, run_ser_vs_iter),
         "symbol error ratio per iteration"),
        ("ser-snr", partial(_cmd_sweep, run_ser_vs_snr),
         "symbol error ratio across an SNR grid"),
        ("detect", _cmd_detect, "run detectors on one seeded realization"),
        ("diagnose", _cmd_diagnose,
         "audit convergence inequalities of each iterative detector's run"),
        ("validate", _cmd_validate, "run the randomized invariant suites"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_flags(p, COMMAND_KEYS[name])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line structured reporting
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
