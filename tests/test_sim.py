import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sapsm.sim
from sapsm.apsm import CHUNK, apsm_run_batch
from sapsm.cost import BetaSchedule, QuadraticResidualCost, standard_config
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

from helpers import table_text_csv_writer, traced_peak

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
        # +inf dB, and any SNR past the float range, is the noiseless point;
        # nan, -inf dB and SNRs far below 0 dB give no finite noise variance
        for snr in ((np.nan,), (-np.inf,), (8.0, np.nan), (-3300.0,), (8.0, -3100.0)):
            with pytest.raises(ConfigError, match="snr"):
                iter_cfg(snr_db=snr)
        assert iter_cfg(snr_db=(np.inf,)).snr_db == (np.inf,)
        assert iter_cfg(snr_db=(3100.0,)).snr_db == (3100.0,)

    def test_rejects_overrides_a_detector_cannot_take(self):
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={D.LMMSE: standard_config("plain")})
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={D.APSM_PLAIN: standard_config("l2")})
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={"turbo": standard_config("plain")})
        cfg = iter_cfg(detectors=(D.APSM_L1,),
                       apsm_overrides={"apsm_l1": standard_config("l1")})
        assert cfg.apsm_overrides == {D.APSM_L1: standard_config("l1")}
        assert cfg.run_configs == {D.APSM_L1: standard_config("l1", max_iters=60)}

    def test_rejects_an_override_for_an_unlisted_iterative_detector(self):
        with pytest.raises(ConfigError):
            iter_cfg(apsm_overrides={D.APSM_L2: standard_config("l2")})

    def test_resolves_each_listed_iterative_detector_in_list_order(self):
        l2 = replace(standard_config("l2"), mu=1.2)
        cfg = iter_cfg(detectors=(D.APSM_L1, D.LMMSE, D.APSM_PLAIN, D.APSM_L2),
                       apsm_overrides={D.APSM_L2: l2})
        assert list(cfg.run_configs.items()) == [
            (D.APSM_L1, standard_config("l1", max_iters=60)),
            (D.APSM_PLAIN, standard_config("plain", max_iters=60)),
            (D.APSM_L2, replace(l2, max_iters=60))]
        assert sapsm.sim.resolve_apsm_config(cfg, D.APSM_L2) == replace(l2, max_iters=60)
        assert sapsm.sim.resolve_apsm_config(cfg, D.LMMSE) is None

    def test_resolved_map_follows_a_replaced_budget(self):
        l2 = replace(standard_config("l2"), mu=1.2)
        cfg = iter_cfg(detectors=(D.APSM_PLAIN, D.APSM_L2),
                       apsm_overrides={D.APSM_L2: l2})
        longer = replace(cfg, max_iters=90)
        assert longer.run_configs == {
            D.APSM_PLAIN: standard_config("plain", max_iters=90),
            D.APSM_L2: replace(l2, max_iters=90)}
        assert longer.apsm_overrides == {D.APSM_L2: l2}
        assert replace(longer, max_iters=60) == cfg

    def test_replace_can_drop_an_iterative_detector(self):
        # the caller's overrides survive resolution, so a replaced list
        # resolves afresh instead of meeting the old list's run configs
        cfg = ExperimentConfig(k=2, n=4, detectors=(D.APSM_PLAIN, D.LMMSE))
        fewer = replace(cfg, detectors=(D.LMMSE,))
        assert fewer.apsm_overrides == {} and fewer.run_configs == {}
        assert replace(fewer, detectors=(D.APSM_PLAIN, D.LMMSE)).run_configs == cfg.run_configs

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
        errs = [r.errors for r in table.rows]
        assert len(set(errs)) == 1  # replicated per iteration

    def test_plain_equals_l2_with_zero_beta_rows(self):
        cfg = iter_cfg(
            detectors=(D.APSM_PLAIN, D.APSM_L2), trials=5, max_iters=80,
            apsm_overrides={
                D.APSM_L2: replace(standard_config("l2"), beta=BetaSchedule.none()),
            },
        )
        table = run_ser_vs_iter(cfg)
        plain = [r.errors for r in table.rows if r.detector == "apsm_plain"]
        l2 = [r.errors for r in table.rows if r.detector == "apsm_l2"]
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

    # budgets around the engine's chunk, and stacks the engine keeps in
    # order (the perturbing rows already last) or sorts
    @pytest.mark.parametrize("max_iters", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("detectors", [
        (D.APSM_PLAIN, D.APSM_L2, D.APSM_L1),
        (D.APSM_L1, D.LMMSE, D.APSM_PLAIN, D.APSM_L2)])
    def test_per_iteration_counts_equal_one_count_per_iterate(self, max_iters, detectors):
        cfg = iter_cfg(detectors=detectors, trials=5, max_iters=max_iters)
        c = constellation(cfg.modulation)
        tasks = [(0, trial_seed(cfg.master_seed, t)) for t in range(cfg.trials)]
        totals = sapsm.sim._batch_errors(cfg, c, True, tasks)
        insts = [make_instance(cfg.channel, c, cfg.k, cfg.n, cfg.snr_db[0], seed)
                 for _, seed in tasks]
        iterative = list(cfg.run_configs.items())
        _, traces = apsm_run_batch(
            [QuadraticResidualCost(inst.H, inst.y) for _ in iterative for inst in insts],
            [acfg for _, acfg in iterative for _ in insts], c, record_iterates=True)
        for j, (kind, _) in enumerate(iterative):
            expected = np.zeros(cfg.max_iters, dtype=int)
            for trace, inst in zip(traces[j * len(insts):], insts):
                expected += [symbol_errors(x, inst.s, c) for x in trace.iterates[1:]]
            np.testing.assert_array_equal(totals[(kind, 0)], expected)
        assert totals[(D.APSM_L1, 0)].max() > 0

    @pytest.mark.parametrize("per_iteration", [False, True])
    @pytest.mark.parametrize("channel", [ChannelModel("iid"), ChannelModel("kronecker", 0.8, 0.8)])
    def test_a_certified_stop_counts_as_the_full_run(self, monkeypatch, per_iteration, channel):
        # the sweep's stacks stop early, and every count, per iteration
        # too, is that of the full run's iterates
        cfg = iter_cfg(k=4, n=8, channel=channel, detectors=(D.APSM_L1, D.APSM_PLAIN, D.APSM_L2),
                       trials=6, max_iters=300)
        c = constellation(cfg.modulation)
        tasks = [(0, trial_seed(cfg.master_seed, t)) for t in range(cfg.trials)]
        run, seen = sapsm.sim.apsm_run_batch, []

        def spied(*args, **kw):
            seen.append(kw.get("certify"))
            return run(*args, **kw)

        monkeypatch.setattr(sapsm.sim, "apsm_run_batch", spied)
        totals = sapsm.sim._batch_errors(cfg, c, per_iteration, tasks)
        assert seen == [True]
        insts = [make_instance(cfg.channel, c, cfg.k, cfg.n, cfg.snr_db[0], seed)
                 for _, seed in tasks]
        iterative = list(cfg.run_configs.items())
        costs = [QuadraticResidualCost(inst.H, inst.y) for _ in iterative for inst in insts]
        cfgs = [acfg for _, acfg in iterative for _ in insts]
        stopped = []
        run(costs, cfgs, c, certify=True, observe=lambda xs: stopped.append(len(xs)))
        assert sum(stopped) < cfg.max_iters
        _, traces = run(costs, cfgs, c, record_iterates=True)
        for j, (kind, _) in enumerate(iterative):
            expected = np.zeros(cfg.max_iters, dtype=int)
            for trace, inst in zip(traces[j * len(insts):], insts):
                expected += [symbol_errors(x, inst.s, c) for x in trace.iterates[1:]]
            np.testing.assert_array_equal(totals[(kind, 0)],
                                          expected if per_iteration else expected[-1])

    def test_per_iteration_counting_holds_no_recorded_stack(self):
        # one batch of the CLI's size: three iterative detectors, 64 trials
        # at 16x64, whose recorded iterates alone would take this many bytes
        cfg = ExperimentConfig(k=16, n=64, detectors=(D.APSM_PLAIN, D.APSM_L2, D.APSM_L1),
                               trials=BATCH_TRIALS, master_seed=7)
        recorded = 3 * BATCH_TRIALS * (cfg.max_iters + 1) * 2 * cfg.k * 8
        tasks = [(0, trial_seed(cfg.master_seed, t)) for t in range(cfg.trials)]
        c = constellation(cfg.modulation)
        totals, peak = traced_peak(lambda: sapsm.sim._batch_errors(cfg, c, True, tasks))
        assert peak < recorded
        assert totals[(D.APSM_L1, 0)].shape == (cfg.max_iters,)

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
        rows = run_ser_vs_snr(cfg).rows
        sers = [r.ser for r in rows]
        ses = [np.sqrt(max(r.ser * (1 - r.ser), 1e-12) / r.symbols) for r in rows]
        for i in range(len(sers) - 1):
            assert sers[i + 1] <= sers[i] + ses[i]

    def test_workers_do_not_change_bytes(self):
        cfg = iter_cfg(trials=6, max_iters=30, detectors=(D.APSM_L1, D.LMMSE))
        t1 = run_ser_vs_snr(cfg, workers=1)
        t2 = run_ser_vs_snr(cfg, workers=3)
        assert table_text(t1) == table_text(t2)

    @pytest.mark.parametrize("run", [run_ser_vs_snr, run_ser_vs_iter])
    @pytest.mark.parametrize("listed, widths", [
        ((D.LMMSE,), [1]), ((D.CONSTRAINED_LMMSE,), [5]),
        ((D.CONSTRAINED_LMMSE, D.LMMSE), [1, 5])])
    def test_each_batch_solves_the_listed_baselines_once(self, monkeypatch, run,
                                                        listed, widths):
        # one stacked solve per listed baseline and batch; the constrained
        # solve has 1 + 2K right-hand sides, so a sweep listing lmmse alone
        # never makes it
        solves = []
        solve = np.linalg.solve

        def recording(A, rhs):
            solves.append((A.shape[0], rhs.shape[-1]))
            return solve(A, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        run(iter_cfg(detectors=(D.APSM_PLAIN,) + listed, trials=BATCH_TRIALS + 6,
                     max_iters=5))
        assert solves == [(size, w) for size in (BATCH_TRIALS, 6) for w in widths]

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
        assert back == table.rows
        assert [r["ser"] for r in rows] == [r.ser for r in back]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit(self.one_row_table(), tmp_path / "t.xml", fmt="xml")

    def test_io_error_carries_path(self, tmp_path):
        target = tmp_path / "missing_dir" / "t.csv"
        with pytest.raises(OSError, match="missing_dir"):
            emit(self.one_row_table(), target)

    @pytest.mark.parametrize("build", [
        lambda: SerTable([SerRow("lmmse", "snr_db", 9.0, 3, 40)]),
        lambda: run_ser_vs_iter(iter_cfg(
            detectors=(D.APSM_PLAIN, D.APSM_L2, D.APSM_L1, D.LMMSE),
            trials=3, max_iters=300)),
        lambda: run_ser_vs_snr(iter_cfg(snr_db=(np.inf, 8.0), trials=2, max_iters=10)),
        # 0.0 and -0.0 are equal floats; the second row must still print -0
        lambda: run_ser_vs_snr(iter_cfg(snr_db=(0.0, -0.0), trials=2, max_iters=10,
                                        detectors=(D.LMMSE,))),
    ], ids=["one_row", "iteration_1200_rows", "infinite_snr", "signed_zero_snr"])
    def test_csv_matches_csv_writer(self, build):
        table = build()
        assert table_text(table) == table_text_csv_writer(table)

    @pytest.mark.parametrize("row", [SerRow("a,b", "iter", 1.0, 0, 10),
                                     SerRow("lmmse", 'it"er', 1.0, 0, 10),
                                     SerRow("lm\nmse", "iter", 1.0, 0, 10)])
    def test_csv_refuses_a_name_that_needs_quoting(self, row):
        with pytest.raises(ConfigError, match="comma"):
            table_text(SerTable([row]))
        assert json.loads(table_text(SerTable([row]), fmt="json"))["rows"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    @example(data=None)
    def test_memoized_csv_and_json_round_trip(self, data):
        # the CSV text formats each distinct x-value and (errors, symbols)
        # pair once: drawn from small pools, rows repeat both, and a pool
        # may hold 0.0 next to -0.0, and +-inf
        if data is None:
            rows = [SerRow("a", "iter", x, 3, 8) for x in (0.0, -0.0, 0.0, np.inf, -np.inf)]
        else:
            xs = data.draw(st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0])
                                    | st.floats(allow_nan=False), min_size=1, max_size=6))
            pairs = data.draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 40)),
                                       min_size=1, max_size=4))
            rows = data.draw(st.lists(st.builds(
                lambda name, kind, x, pair: SerRow(name, kind, x, *pair),
                st.sampled_from(["a", "b"]), st.sampled_from(["iter", "snr_db"]),
                st.sampled_from(xs), st.sampled_from(pairs)), max_size=30))
        table = SerTable(rows)
        assert table_text(table) == table_text_csv_writer(table)
        back = [SerRow(r["detector"], r["x_kind"], r["x_value"], r["errors"], r["symbols"])
                for r in json.loads(table_text(table, fmt="json"))["rows"]]
        # repr tells -0.0 from 0.0, which compare equal
        assert repr(back) == repr(table.rows)

    def test_row_is_a_named_tuple(self):
        row = SerRow("lmmse", "snr_db", 9.0, 3, 40)
        assert row == ("lmmse", "snr_db", 9.0, 3, 40)
        assert row._replace(errors=4).ser == 0.1
        assert row.to_dict() == {"detector": "lmmse", "x_kind": "snr_db", "x_value": 9.0,
                                 "errors": 3, "symbols": 40, "ser": 0.075}

    def test_row_order_stable(self):
        table = SerTable([
            SerRow("b", "iter", 2.0, 0, 10),
            SerRow("a", "iter", 1.0, 0, 10),
            SerRow("b", "iter", 1.0, 0, 10),
        ])
        ordered = [(r.detector, r.x_value) for r in table.rows]
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

    @pytest.mark.parametrize("run, detectors", [
        pytest.param(run_ser_vs_snr, None, id="run_ser_vs_snr"),
        pytest.param(run_ser_vs_iter, None, id="run_ser_vs_iter"),
        # baselines between the iterative detectors, whose rows the engine
        # sorts; the second of the three batches spans both SNR points
        pytest.param(run_ser_vs_snr,
                     (D.APSM_L1, D.LMMSE, D.APSM_PLAIN, D.BOX_ORACLE, D.APSM_L2),
                     id="run_ser_vs_snr-sorted")])
    def test_batched_sweep_equals_per_realization_detection(self, run, detectors):
        # in ser-iter, the last iteration's counts are those of the final
        # estimates
        kw = {"detectors": detectors} if detectors else {}
        cfg = self.cfg(**kw) if run is run_ser_vs_snr else self.cfg(snr_db=(4.0,), **kw)
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
