import json

import pytest

import sapsm.sim
from sapsm.cli import main


def run(argv):
    return main(argv)


class TestSerSnr:
    def test_happy_path_writes_file(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run(["ser-snr", "--k", "16", "--n", "64", "--mod", "16qam",
                    "--channel", "iid", "--snr", "9", "--trials", "100",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "detector,x_kind,x_value,errors,symbols,ser"
        # default detector list: one row per detector at the single SNR point
        assert len(lines) == 6
        assert all(",snr_db,9," in line for line in lines[1:])

    def test_k_exceeding_n_is_config_error(self, capsys):
        assert run(["ser-snr", "--k", "16", "--n", "8", "--trials", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert run(["ser-snr", "--bogus", "1"]) == 2

    def test_unknown_detector_rejected(self, capsys):
        assert run(["ser-snr", "--k", "2", "--n", "4", "--trials", "2",
                    "--detectors", "sphere"]) == 2

    def test_stdout_when_no_out(self, capsys):
        code = run(["ser-snr", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "8", "--trials", "3", "--iters", "20",
                    "--detectors", "lmmse"])
        assert code == 0
        assert capsys.readouterr().out.startswith("detector,x_kind,x_value")

    def test_json_format(self, tmp_path):
        out = tmp_path / "t.json"
        code = run(["ser-snr", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "8", "--trials", "3", "--iters", "20",
                    "--detectors", "lmmse", "--format", "json",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["detector"] == "lmmse"

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "o.csv"
        code = run(["ser-snr", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "8", "--trials", "2", "--iters", "10",
                    "--detectors", "lmmse", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")


class TestSerIter:
    def test_runs_and_has_one_row_per_iteration(self, tmp_path):
        out = tmp_path / "iter.csv"
        code = run(["ser-iter", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "8", "--trials", "3", "--iters", "15",
                    "--detectors", "apsm_plain,lmmse", "--out", str(out),
                    "--workers", "1"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 15

    def test_multiple_snr_points_rejected(self):
        assert run(["ser-iter", "--k", "2", "--n", "4", "--snr", "3",
                    "--snr", "9", "--trials", "2"]) == 2


class TestConfigFile:
    def test_flag_overrides_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "k": 2, "n": 4, "mod": "qpsk", "snr": [8.0], "trials": 3,
            "iters": 10, "detectors": "lmmse",
        }))
        out = tmp_path / "o.csv"
        code = run(["ser-snr", "--config", str(cfg), "--trials", "5",
                    "--out", str(out)])
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        # file sets K=2; flag raises trials to 5 -> symbols = 2*5
        assert row[0] == "lmmse"
        assert row[4] == "10"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modulation": "qpsk"}))
        assert run(["ser-snr", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("bad", [{"snr": "13"}, {"k": 2.0}, {"trials": "5"}])
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "n": 4, "mod": "qpsk", "trials": 2,
                                   "iters": 10, "detectors": "lmmse"} | bad))
        assert run(["ser-snr", "--config", str(cfg)]) == 2
        key = next(iter(bad))
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [{"format": "xml"}, {"mod": "8psk"},
                                     {"channel": "rayleigh"}])
    def test_config_value_outside_choices_rejected(self, tmp_path, capsys,
                                                   monkeypatch, bad):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(sapsm.sim, "make_instance", no_trials)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "n": 4, "mod": "qpsk", "trials": 2,
                                   "iters": 10, "detectors": "lmmse"} | bad))
        assert run(["ser-snr", "--config", str(cfg), "--workers", "1"]) == 2
        key = next(iter(bad))
        assert f"config key {key!r} must be one of" in capsys.readouterr().err

    def test_scalar_snr_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "n": 4, "mod": "qpsk", "snr": 13,
                                   "trials": 2, "iters": 10, "detectors": "lmmse"}))
        out = tmp_path / "o.csv"
        assert run(["ser-snr", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["13"]

    def test_missing_config_file(self, tmp_path):
        assert run(["ser-snr", "--config", str(tmp_path / "nope.json")]) == 2


class TestDetect:
    def test_prints_per_detector_lines(self, capsys):
        code = run(["detect", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "10", "--seed", "3",
                    "--detectors", "apsm_l1,lmmse,ml_bruteforce"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all("residual=" in line and "symbol_errors=" in line for line in out)

    def test_dump_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(["detect", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "10", "--seed", "3", "--detectors", "apsm_l2",
                    "--dump-trace", str(trace)])
        assert code == 0
        header = trace.read_text().splitlines()[0]
        assert header == "n,theta,objective,rho,step_norm,pert_norm"

    def test_dump_trace_needs_single_iterative_detector(self):
        assert run(["detect", "--k", "2", "--n", "4", "--snr", "10",
                    "--detectors", "apsm_l2,apsm_l1",
                    "--dump-trace", "x.csv"]) == 2


class TestDiagnoseAndValidate:
    def test_diagnose_reports_clean_audits(self, capsys):
        code = run(["diagnose", "--k", "2", "--n", "4", "--mod", "qpsk",
                    "--snr", "8", "--seed", "5", "--iters", "260",
                    "--detectors", "apsm_l1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "summable_beta=False" in out
        assert '"violations": 0' in out

    @pytest.mark.parametrize("flags", [["--beta", "0.9999"],
                                       ["--beta-geom", "0.5"], ["--tau", "0.1"]])
    def test_plain_ignores_perturbation_flags(self, capsys, flags):
        argv = ["diagnose", "--k", "4", "--n", "8", "--mod", "qpsk", "--snr", "8",
                "--iters", "260", "--detectors", "apsm_plain"]
        assert run(argv) == 0
        bare = capsys.readouterr().out
        assert run(argv + flags) == 0
        out = capsys.readouterr().out
        assert out == bare
        assert "summable_beta=True" in out

    def test_validate_passes(self, capsys):
        code = run(["validate", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suites passed" in out
        assert "FAIL" not in out
