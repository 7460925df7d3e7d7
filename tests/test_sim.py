import json
from dataclasses import replace

import numpy as np
import pytest

import sapsm.sim
from sapsm.cost import BetaSchedule, standard_config
from sapsm.detectors import DetectorKind as D
from sapsm.errors import ConfigError
from sapsm.mimo import ChannelModel, make_instance
from sapsm.sim import (
    ExperimentConfig,
    SerRow,
    SerTable,
    emit,
    run_ser_vs_iter,
    run_ser_vs_snr,
    table_text,
)


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
