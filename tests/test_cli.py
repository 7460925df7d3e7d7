import json

import pytest

import sapsm.cli
import sapsm.sim
from sapsm.cli import build_parser, main


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

    def test_diagnose_audits_each_iterative_detector_in_order(self, capsys):
        argv = ["diagnose", "--k", "4", "--n", "8", "--mod", "qpsk", "--snr", "8",
                "--iters", "50"]
        assert run(argv + ["--detectors", "apsm_l1,lmmse,apsm_plain,apsm_l2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[::2]] == [
            "detector=apsm_l1", "detector=apsm_plain", "detector=apsm_l2"]
        reports = [json.loads(line) for line in lines[1::2]]
        for kind, report in zip(("apsm_l1", "apsm_plain", "apsm_l2"), reports):
            assert run(argv + ["--detectors", kind]) == 0
            assert json.loads(capsys.readouterr().out.splitlines()[1]) == report

    def test_diagnose_fails_when_any_report_has_violations(self, capsys, monkeypatch):
        real = sapsm.cli.diagnose

        def plain_violates(cost, cfg, c, z_ref):
            report = real(cost, cfg, c, z_ref)
            if cfg.variant == "plain":
                report.attracting.violations = 1
            return report

        monkeypatch.setattr(sapsm.cli, "diagnose", plain_violates)
        code = run(["diagnose", "--k", "4", "--n", "8", "--mod", "qpsk", "--snr", "8",
                    "--iters", "50", "--detectors", "apsm_plain,apsm_l2"])
        assert code == 1
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_diagnose_without_iterative_detector_rejected(self, capsys):
        code = run(["diagnose", "--k", "4", "--n", "8", "--mod", "qpsk", "--snr", "8",
                    "--iters", "50", "--detectors", "lmmse,box_oracle"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "iterative detector" in captured.err

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


# a value of the right type for every flag, so that only the subcommand can
# make a flag wrong
FLAG_VALUES = {
    "k": "2", "n": "4", "mod": "qpsk", "channel": "iid", "rho_tx": "0",
    "rho_rx": "0", "snr": "8", "trials": "3", "iters": "10",
    "detectors": "apsm_l2", "rho0": "1e-4", "growth": "1.05", "mu": "0.9",
    "beta": "0.5", "beta_geom": "0.5", "tau": "0.01", "seed": "1",
    "workers": "1", "out": "x.csv", "format": "csv", "dump_trace": "t.csv",
}
ALL_KEYS = tuple(FLAG_VALUES)
SWEEP_KEYS = tuple(k for k in ALL_KEYS if k != "dump_trace")
DETECT_KEYS = tuple(k for k in ALL_KEYS if k not in ("trials", "workers", "out", "format"))
# the keys each subcommand reads; the flags of all other keys are foreign to it
READS = {
    "ser-iter": SWEEP_KEYS,
    "ser-snr": SWEEP_KEYS,
    "detect": DETECT_KEYS,
    "diagnose": tuple(k for k in DETECT_KEYS if k != "dump_trace"),
    "validate": ("seed",),
}
FOREIGN = [(cmd, key) for cmd, keys in READS.items() for key in ALL_KEYS
           if key not in keys]


def flag(key):
    return ["--" + key.replace("_", "-"), FLAG_VALUES[key]]


@pytest.fixture
def no_trials(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    for module, name in ((sapsm.sim, "make_instance"), (sapsm.cli, "make_instance"),
                         (sapsm.cli, "run_all_suites")):
        monkeypatch.setattr(module, name, fail)


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("cmd", sorted(READS))
    def test_every_read_flag_parses(self, cmd):
        argv = [cmd] + [arg for key in READS[cmd] for arg in flag(key)]
        args = build_parser().parse_args(argv)
        assert all(getattr(args, key) is not None for key in READS[cmd])

    @pytest.mark.parametrize("cmd, key", FOREIGN)
    def test_foreign_flag_exits_2_before_any_trial(self, capsys, no_trials, cmd, key):
        assert run([cmd] + flag(key)) == 2
        assert "unrecognized arguments: " + flag(key)[0] in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, key", [("validate", "k"), ("validate", "trials"),
                                          ("detect", "out"), ("diagnose", "dump_trace"),
                                          ("ser-snr", "dump_trace"), ("ser-iter", "dump_trace")])
    def test_foreign_config_key_exits_2_before_any_trial(self, tmp_path, capsys, no_trials,
                                                         cmd, key):
        typ = sapsm.cli.FLAGS[key][0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: typ(FLAG_VALUES[key])}))
        assert run([cmd, "--config", str(cfg)]) == 2
        assert f"config keys not read by {cmd}: [{key!r}]" in capsys.readouterr().err

    def test_correlated_iid_channel_exits_2(self, capsys, no_trials):
        argv = ["detect", "--k", "2", "--n", "4", "--mod", "qpsk", "--snr", "10",
                "--detectors", "lmmse"]
        assert run(argv + ["--rho-tx", "0.9", "--rho-rx", "0.9"]) == 2
        assert "iid channel takes no correlation" in capsys.readouterr().err
