import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import sapsm.sim
from sapsm.cost import BetaSchedule, standard_config
from sapsm.detectors import DetectorKind as D
from sapsm.detectors import detect
from sapsm.errors import ConfigError
from sapsm.geometry import constellation
from sapsm.mimo import ChannelModel, make_instance, symbol_errors, trial_seed
from sapsm.sim import (
    BATCH_TRIALS,
    ExperimentConfig,
    SerRow,
    SerTable,
    emit,
    run_ser_vs_iter,
    run_ser_vs_snr,
    table_text,
)
from sapsm.validation import run_all_suites

ALL_SIX = (D.APSM_PLAIN, D.APSM_L2, D.APSM_L1, D.LMMSE, D.CONSTRAINED_LMMSE,
           D.BOX_ORACLE)


def iter_cfg(**kw):
    base = dict(k=2, n=4, modulation="qpsk", channel=ChannelModel("iid"),
                detectors=(D.APSM_PLAIN, D.LMMSE), snr_db=(8.0,), trials=4,
                max_iters=60, master_seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


class TestValidation:
    def test_rejects_bad_configs(self):
        with pytest.raises(ConfigError):
            iter_cfg(detectors=())
        with pytest.raises(ConfigError):
            iter_cfg(snr_db=())
        with pytest.raises(ConfigError):
            iter_cfg(k=6, n=4)
        with pytest.raises(ConfigError):
            iter_cfg(trials=0)
        with pytest.raises(ConfigError):
            iter_cfg(detectors=("apsm_plain", "apsm_plain"))
        with pytest.raises(ConfigError):
            iter_cfg(detectors=("turbo",))

    def test_rejects_overrides_a_detector_cannot_take(self):
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={D.LMMSE: standard_config("plain")})
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={D.APSM_PLAIN: standard_config("l2")})
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={"turbo": standard_config("plain")})
        cfg = iter_cfg(apsm_overrides={"apsm_l1": standard_config("l1")})
        assert list(cfg.apsm_overrides) == [D.APSM_L1]

    def test_iter_sweep_needs_single_snr(self):
        with pytest.raises(ConfigError):
            run_ser_vs_iter(iter_cfg(snr_db=(0.0, 8.0)))


class TestSerVsIter:
    def test_noiseless_identity_like_recovery(self):
        cfg = iter_cfg(k=2, n=2, snr_db=(np.inf,), trials=1,
                       detectors=(D.APSM_PLAIN,), max_iters=60)
        table = run_ser_vs_iter(cfg)
        last = [r for r in table.rows if r.x_value == 60.0]
        assert last[0].errors == 0

    def test_flat_baseline_rows(self):
        cfg = iter_cfg(detectors=(D.LMMSE,), trials=3, max_iters=25)
        table = run_ser_vs_iter(cfg)
        errs = [r.errors for r in table.sorted_rows()]
        assert len(set(errs)) == 1  # replicated per iteration

    def test_plain_equals_l2_with_zero_beta_rows(self):
        cfg = iter_cfg(
            detectors=(D.APSM_PLAIN, D.APSM_L2), trials=5, max_iters=80,
            apsm_overrides={
                D.APSM_L2: replace(standard_config("l2"), beta=BetaSchedule.none()),
            },
        )
        table = run_ser_vs_iter(cfg)
        plain = [r.errors for r in table.sorted_rows() if r.detector == "apsm_plain"]
        l2 = [r.errors for r in table.sorted_rows() if r.detector == "apsm_l2"]
        assert plain == l2

    def test_doubling_trials_keeps_prefix(self, monkeypatch):
        # trial t draws the same realization whatever the trial count
        seeds = []

        def recording(*args):
            seeds.append(args[-1])
            return make_instance(*args)

        monkeypatch.setattr(sapsm.sim, "make_instance", recording)
        run_ser_vs_iter(iter_cfg(trials=4))
        small = list(seeds)
        seeds.clear()
        run_ser_vs_iter(iter_cfg(trials=8))
        assert seeds[:4] == small
        assert len(set(seeds)) == 8

    def test_row_shape_and_bounds(self):
        cfg = iter_cfg(trials=3, max_iters=20)
        table = run_ser_vs_iter(cfg)
        assert len(table.rows) == len(cfg.detectors) * cfg.max_iters
        for r in table.rows:
            assert 0 <= r.errors <= r.symbols == cfg.k * cfg.trials
            assert 0.0 <= r.ser <= 1.0


class TestSerVsSnr:
    def test_lmmse_monotone_in_snr(self):
        cfg = ExperimentConfig(k=4, n=8, modulation="qpsk",
                               channel=ChannelModel("iid"),
                               detectors=(D.LMMSE,), snr_db=(0.0, 4.0, 8.0, 12.0),
                               trials=2000, max_iters=5, master_seed=5)
        rows = run_ser_vs_snr(cfg).sorted_rows()
        sers = [r.ser for r in rows]
        ses = [np.sqrt(max(r.ser * (1 - r.ser), 1e-12) / r.symbols) for r in rows]
        for i in range(len(sers) - 1):
            assert sers[i + 1] <= sers[i] + ses[i]

    def test_workers_do_not_change_bytes(self):
        cfg = iter_cfg(trials=6, max_iters=30, detectors=(D.APSM_L1, D.LMMSE))
        t1 = run_ser_vs_snr(cfg, workers=1)
        t2 = run_ser_vs_snr(cfg, workers=3)
        assert table_text(t1) == table_text(t2)

    def test_paired_seeding_by_snr_and_trial(self):
        cfg = iter_cfg(trials=2, snr_db=(3.0, 9.0), max_iters=10)
        a = run_ser_vs_snr(cfg)
        b = run_ser_vs_snr(replace(cfg, snr_db=(3.0,)))
        rows_a = {(r.detector, r.x_value): r.errors for r in a.rows}
        rows_b = {(r.detector, r.x_value): r.errors for r in b.rows}
        for key, errors in rows_b.items():
            assert rows_a[key] == errors


class TestEmit:
    def one_row_table(self):
        return SerTable([SerRow("lmmse", "snr_db", 9.0, 3, 40)])

    def test_single_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        emit(self.one_row_table(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "detector,x_kind,x_value,errors,symbols,ser"
        assert lines[1] == "lmmse,snr_db,9,3,40,0.074999999999999997"
        assert len(lines) == 2

    def test_reemit_is_byte_identical(self, tmp_path):
        table = self.one_row_table()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(table, p1)
        emit(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        cfg = iter_cfg(trials=2, max_iters=10)
        table = run_ser_vs_iter(cfg)
        path = tmp_path / "t.json"
        emit(table, path, fmt="json")
        rows = json.loads(path.read_text())["rows"]
        back = [SerRow(r["detector"], r["x_kind"], r["x_value"], r["errors"],
                       r["symbols"]) for r in rows]
        assert back == table.sorted_rows()
        assert [r["ser"] for r in rows] == [r.ser for r in back]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit(self.one_row_table(), tmp_path / "t.xml", fmt="xml")

    def test_io_error_carries_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError, match="missing_dir"):
            emit(self.one_row_table(), target)

    def test_row_order_stable(self):
        table = SerTable([
            SerRow("b", "iter", 2.0, 0, 10),
            SerRow("a", "iter", 1.0, 0, 10),
            SerRow("b", "iter", 1.0, 0, 10),
        ])
        ordered = [(r.detector, r.x_value) for r in table.sorted_rows()]
        assert ordered == [("a", 1.0), ("b", 1.0), ("b", 2.0)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenOutputs:
    """Pinned digests of outputs from the serial per-trial engine, before
    trials were batched. A change that alters any byte of these outputs is
    a change of the program, not only of its speed. The digests are those
    of numpy 2.4 with its bundled OpenBLAS on x86-64."""

    def test_reference_snr_sweep(self):
        cfg = ExperimentConfig(k=16, n=64, detectors=ALL_SIX, snr_db=(5.0, 9.0, 13.0),
                               trials=10, master_seed=1)
        assert sha256(table_text(run_ser_vs_snr(cfg))) == (
            "85c498bf13d42d02265f909c4a38e016de14ca0e2d1979aaf3ff87a1515b2763")

    def test_correlated_snr_sweep(self):
        cfg = ExperimentConfig(k=16, n=64, channel=ChannelModel("kronecker", 0.8, 0.8),
                               detectors=ALL_SIX, snr_db=(18.0,), trials=4,
                               master_seed=2)
        assert sha256(table_text(run_ser_vs_snr(cfg))) == (
            "bdb7661c519b4c958892fb2d2066429c7228e8ff05f6623cef9faf222d9863e8")

    def test_reference_iteration_sweep(self):
        cfg = ExperimentConfig(k=16, n=64, detectors=(D.APSM_PLAIN, D.APSM_L2, D.APSM_L1,
                                                      D.LMMSE),
                               snr_db=(9.0,), trials=10, master_seed=3)
        assert sha256(table_text(run_ser_vs_iter(cfg))) == (
            "3f9fcdc21a629d67e5a2bb06cce0d7b8dac316f70e1485cdd1a20554e9e43663")

    def test_validation_suites(self):
        lines = "\n".join(r.line() for r in run_all_suites(
            seed=1, prox_cases=200, attracting_draws=200, qf_trials=4))
        assert sha256(lines) == (
            "80400dfc2294c7bda0052bf187bcb3874cd5b8ba1d109d3dfd1024eac7e4beb3")


class TestBatchBoundaries:
    """Sweeps over more trials than one engine stack holds."""

    def cfg(self, **kw):
        base = dict(k=2, n=4, modulation="qpsk", channel=ChannelModel("iid"),
                    detectors=(D.APSM_PLAIN, D.APSM_L2, D.APSM_L1, D.LMMSE),
                    snr_db=(4.0, 10.0), trials=BATCH_TRIALS + 7, max_iters=120,
                    master_seed=19)
        base.update(kw)
        return ExperimentConfig(**base)

    @pytest.mark.parametrize("run", [run_ser_vs_snr, run_ser_vs_iter])
    def test_worker_counts_give_the_same_bytes(self, run):
        cfg = self.cfg() if run is run_ser_vs_snr else self.cfg(snr_db=(4.0,))
        texts = {w: table_text(run(cfg, workers=w)) for w in (1, 2, 3)}
        assert texts[1] == texts[2] == texts[3]

    @pytest.mark.parametrize("workers, sizes", [
        (1, [64, 36]), (2, [50, 50]), (3, [34, 34, 32]), (8, [13] * 7 + [9]),
        (200, [1] * 100)])
    def test_every_worker_gets_a_batch(self, monkeypatch, workers, sizes):
        seen = []

        def serial(fn, batches, workers):
            seen.extend(len(batch) for batch in batches)
            return map(fn, batches)

        monkeypatch.setattr(sapsm.sim, "_map_batches", serial)
        cfg = self.cfg(snr_db=(4.0,), trials=100, max_iters=3, detectors=(D.APSM_PLAIN,))
        text = table_text(run_ser_vs_snr(cfg, workers=workers))
        assert seen == sizes
        assert text == table_text(run_ser_vs_snr(cfg))

    @pytest.mark.parametrize("run", [run_ser_vs_snr, run_ser_vs_iter])
    def test_batched_sweep_equals_per_realization_detection(self, run):
        # in ser-iter, the last iteration's counts are those of the final
        # estimates
        cfg = self.cfg() if run is run_ser_vs_snr else self.cfg(snr_db=(4.0,))
        c = constellation(cfg.modulation)
        errors = {}
        for si, snr in enumerate(cfg.snr_db):
            for t in range(cfg.trials):
                seed = (trial_seed(cfg.master_seed, si, t) if run is run_ser_vs_snr
                        else trial_seed(cfg.master_seed, t))
                inst = make_instance(cfg.channel, c, cfg.k, cfg.n, snr, seed)
                for kind in cfg.detectors:
                    x, _ = detect(kind, inst, c, sapsm.sim.resolve_apsm_config(cfg, kind))
                    key = (kind.value, snr if run is run_ser_vs_snr else cfg.max_iters)
                    errors[key] = errors.get(key, 0) + symbol_errors(x, inst.s, c)
        rows = {(r.detector, r.x_value): r.errors for r in run(cfg).rows}
        assert {key: rows[key] for key in errors} == errors
