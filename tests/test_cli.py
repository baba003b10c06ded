"""Command-line behaviour: exit codes, --set parsing, output text.

Everything goes through main(argv) so the tests see real return codes
without spawning subprocesses.
"""

import json

import pytest

from mildns.cli import main

ALL_IDS = [
    "besov-equiv",
    "beta-integral",
    "bilinear",
    "embedding",
    "fixed-point-demo",
    "fluctuation",
    "heat-decay",
    "kernel-decay",
    "ladder",
    "powerlaw",
    "scaling",
    "smallness",
    "solve",
]


def fast_solve_args(calibration_file, *extra):
    return [
        "solve",
        "--set",
        "n=16",
        "--set",
        "mesh_nodes=8",
        "--set",
        "quad_nodes=8",
        "--set",
        f"calibration_path={calibration_file}",
        *extra,
    ]


class TestCatalogAndVersion:
    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ALL_IDS:
            assert exp_id in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "mildns 0.1.0" in capsys.readouterr().out


class TestExperimentCommand:
    def test_demo_prints_summary(self, capsys):
        assert main(["fixed-point-demo"]) == 0
        out = capsys.readouterr().out
        assert "experiment    fixed-point-demo" in out
        assert "root_error" in out
        assert "divergence_detected" in out

    def test_set_overrides_apply(self, capsys):
        code = main(["beta-integral", "--set", "grid_points=3", "--set", "node_count=16"])
        assert code == 0
        lines = dict(
            line.split(None, 1)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        )
        assert lines["grid_points"] == "9"
        assert lines["rows"] == "9"

    def test_dotted_set_reaches_nested_section(self, calibration_file, capsys):
        args = fast_solve_args(calibration_file, "--set", "datum.amplitude=2.0")
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "closed_form_max_rel_err" in out
        assert "converged" in out

    def test_config_file_plus_out_dir(self, tmp_path, capsys):
        config = tmp_path / "beta.json"
        config.write_text(json.dumps({"grid_points": 3, "node_count": 16}))
        out_dir = tmp_path / "results"
        code = main(
            ["beta-integral", "--config", str(config), "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "beta-integral.csv").exists()
        manifest = json.loads((out_dir / "beta-integral.json").read_text())
        assert manifest["config"]["grid_points"] == 3
        assert "written" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_writes_file_and_prints_constants(self, tmp_path, capsys):
        config = tmp_path / "cal-config.json"
        config.write_text(json.dumps({"corpus": {"n": 16}, "path": "cal16.json"}))
        code = main(["calibrate", "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "book          d2-p2-s0-qt4" in out
        assert "0.10316692" in out  # c_hat on the n = 16 corpus
        payload = json.loads((tmp_path / "cal16.json").read_text())
        assert payload["book"] == "d2-p2-s0-qt4"
        assert "digest" in payload

    def test_corpus_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"corpus": [1, 2]}))
        assert main(["calibrate", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_set_format(self, capsys):
        assert main(["fixed-point-demo", "--set", "eta"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_set_key_conflict(self, capsys):
        code = main(["fixed-point-demo", "--set", "eta=1", "--set", "eta.sub=2"])
        assert code == 2
        assert "non-section" in capsys.readouterr().err

    def test_unknown_config_key(self, capsys):
        assert main(["beta-integral", "--set", "bogus=1"]) == 2
        assert "valid keys" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{oops")
        assert main(["beta-integral", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_file_must_hold_object(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        assert main(["beta-integral", "--config", str(config)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, calibration_file, capsys):
        # an iteration budget of 1 with an unreachable tolerance exhausts
        # the Picard loop, which is a numerical failure, not a config one
        args = fast_solve_args(
            calibration_file, "--set", "max_iter=1", "--set", "tol=1e-30"
        )
        assert main(args) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "iterations 1" in err

    @pytest.mark.parametrize(
        "experiment, setting, key",
        [
            ("powerlaw", "r_inner_levels=[0.5]", "r_inner_levels"),
            ("bilinear", "horizons=[]", "horizons"),
            ("bilinear", "pairs=0", "pairs"),
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, experiment, setting, key, capsys):
        assert main([experiment, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert "Traceback" not in err

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["beta-integral", "--config", str(missing)]) == 4
        assert "i/o error" in capsys.readouterr().err
