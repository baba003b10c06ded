"""Command-line behaviour: exit codes, --set parsing, output text.

Everything goes through main(argv) so the tests see real return codes
without spawning subprocesses.
"""

import json
import warnings

import numpy as np
import pytest

from mildns import cli, lab, picard
from mildns.cli import main
from mildns.runtime import fmt_float

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

BETA_KEYS = "'t', 'gamma_min', 'gamma_max', 'theta_min' and 'theta_max'"
RADII_KEYS = "'radius_min', 'radius_max', 'radius_count', 'tail_lo' and 'tail_hi'"
ZERO_RATIO = ("config error: config key 'horizons': the bilinear estimate ratio 0 is not a "
              "positive finite number")


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


class TestSetWritesIntoTheLoadedConfig:
    """Each --set writes one key into the dict read from --config, in order:
    a dotted key lands inside a section of the file, a JSON object replaces
    the file's section, and a dotted key into a file value that is not a
    section is refused."""

    @pytest.mark.parametrize(
        "settings, datum",
        [
            (["datum.amplitude=3"], {"kind": "taylor_green", "amplitude": 3}),
            (['datum={"kind":"gaussian","width":0.1}'], {"kind": "gaussian", "width": 0.1}),
            (["n.points=16"], None),
        ],
        ids=["dotted-key-into-a-section", "object-replaces-the-section", "non-section"],
    )
    def test_set_writes_into_the_file_config(self, settings, datum, tmp_path, monkeypatch,
                                             capsys):
        path = tmp_path / "solve.json"
        path.write_text(json.dumps({"n": 32, "datum": {"kind": "taylor_green",
                                                       "amplitude": 2.0}}))
        seen = []

        def capture(config):
            seen.append(config)
            raise SystemExit(0)

        monkeypatch.setattr(cli, "run", capture)
        argv = ["solve", "--config", str(path)]
        argv += [arg for setting in settings for arg in ("--set", setting)]
        if datum is None:
            assert main(argv) == 2
            assert "indexes into a non-section value" in capsys.readouterr().err
            assert seen == []
            return
        with pytest.raises(SystemExit):
            main(argv)
        assert seen == [{"n": 32, "datum": datum, "experiment": "solve"}]


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

    def test_out_directory_is_created(self, tmp_path, capsys):
        config = tmp_path / "cal-config.json"
        config.write_text(json.dumps({"corpus": {"n": 16}}))
        out = tmp_path / "new" / "dir"
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "calibration.json").read_text())["book"] == "d2-p2-s0-qt4"
        assert f"written       {out / 'calibration.json'}" in capsys.readouterr().out

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

    @pytest.mark.parametrize("kind, message", [
        ("latin-1", "unreadable calibration file"),
        ("list", "must hold a JSON object"),
        ("no c_hat", "needs a positive finite c_hat, got None"),
        ("string c_hat", "needs a positive finite c_hat, got 'x'"),
        ("negative c_hat", "needs a positive finite c_hat, got -1.0"),
    ])
    def test_malformed_calibration_file_exits_2(self, kind, message, calibration_file, tmp_path,
                                                capsys):
        """A calibration file that is not UTF-8 JSON holding an object whose
        constants are positive finite numbers is refused naming the file and
        the config key; the bad constants carry a valid digest."""
        with open(calibration_file, encoding="utf-8") as fh:
            payload = json.load(fh)
        path = tmp_path / "calibration.json"
        if kind == "latin-1":
            path.write_bytes(b'{"book": "\xff"}')
        elif kind == "list":
            path.write_text("[]")
        else:
            if kind == "no c_hat":
                del payload["c_hat"]
            else:
                payload["c_hat"] = "x" if kind == "string c_hat" else -1.0
            payload["digest"] = picard._digest(payload)
            path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["solve", "--set", f"calibration_path={path}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'calibration_path'")
        assert message in err and str(path) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "calibrate"])
    def test_config_file_that_is_not_utf8_exits_2(self, command, tmp_path, capsys):
        config = tmp_path / "latin.json"
        config.write_bytes(b'{"n": 16\xff}')
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {config} is not valid JSON")
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_overflowed_heat_sup_exits_3(self, tmp_path, capsys):
        # amplitude^4 overflows the L^4 sums: refused, not written as inf
        args = ["heat-decay", "--set", "amplitude=1e100", "--set", "resolution=64",
                "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure") and "q = 4" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "experiment, settings, code, message",
        [
            ("scaling", ["lam=1e300"], 2,
             "config error: config key 'lam': box length 6.28319e-300 is too small"),
            ("scaling", ["lam=1e100"], 2,
             "config error: config key 'lam': |lam u0|^q_tilde overflows"),
            ("beta-integral", ["t=1e300"], 2,
             f"config error: config keys {BETA_KEYS}: beta integral at t = 1e+300"),
            ("beta-integral", ["t=1e-300"], 2,
             f"config error: config keys {BETA_KEYS}: beta integral at t = 1e-300"),
            ("kernel-decay", ["s_values=[1e300]"], 3,
             "numerical failure: kernel profile at s = 1e+300"),
            ("besov-equiv", ["rescale=1e308"], 3, "numerical failure: non-finite heat-sup value"),
            ("powerlaw", ["decay=1e300"], 2,
             "config error: config keys 'decay', 'amplitude', 'r_inner_levels[0]', 'r_outer' "
             "and 'box_len': power_law datum produced non-finite samples"),
            ("smallness", ["box_len=1e160"], 2,
             "config error: config keys 'd', 'n' and 'box_len': box length 1e+160 is too large "
             "for n=32"),
            ("besov-equiv", ["box_len=1e200"], 2,
             "config error: config keys 'd', 'n' and 'box_len': box length 1e+200 is too large "
             "for n=32"),
            ("solve", ["box_len=1e200"], 2,
             "config error: config keys 'd', 'n' and 'box_len': box length 1e+200 is too large "
             "for n=64"),
            ("besov-equiv", ["smoothness=-1e300"], 2,
             "config error: config keys 'smoothness', 'mode' and 'box_len': the heat-Besov "
             "norm 0 or its closed form inf is outside the normal floats"),
            ("besov-equiv", ["amplitude=1e-320"], 2,
             "config error: config keys 'amplitude' and 'q': the L^4 norm of the datum is 0"),
            ("powerlaw", ["n=64", "amplitude=1e-310"], 2,
             "config error: config keys 'decay', 'amplitude', 'r_inner_levels[0]', 'r_outer' "
             "and 'box_len': the L^2 norm 0 or the heat-Besov norm 0 of the datum is below "
             "the normal floats"),
            ("kernel-decay", ["t=1e6"], 2,
             "config error: config keys 'resolution', 'box_len', 't' and 'radius_max': t "
             "1000000 exceeds the lattice validity window L^2/100 = 256"),
            ("heat-decay", ["width=1e300"], 2,
             "config error: config keys 'width', 'amplitude' and 'q_tilde': the heat sup of "
             "the datum falls to 0"),
            ("solve", ["n=16", "mesh_nodes=8", "quad_nodes=8", "datum.amplitude=1e-170"], 3,
             "numerical failure: solve summary key 'closed_form_max_rel_err' is NaN"),
            ("heat-decay", ["q_tilde=1e308"], 2,
             "config error: config keys 'width', 'amplitude' and 'q_tilde': the heat sup of "
             "the datum falls to 0"),
            ("besov-equiv", ["rescale=1e-300"], 2,
             "config error: config keys 'amplitude' and 'rescale': the heat-Besov norm of the "
             "rescaled datum is 0, below the normal floats"),
            ("besov-equiv", ["amplitude=1e10", "rescale=1e300"], 2,
             "config error: config keys 'amplitude' and 'rescale': single_mode datum produced "
             "non-finite samples"),
            ("kernel-decay", ["box_len=1e300"], 2,
             "config error: config keys 'd', 'resolution', 'box_len' and 'selfsim_factor': box "
             "length 2e+300 is too large for n=512: the cell volume or the validity window "
             "overflows"),
            ("heat-decay", ["width=5e-324"], 2,
             "config error: config key 'width': gaussian datum produced non-finite samples"),
            ("besov-equiv", ["n=4"], 2,
             "config error: config key 'n': the validity cap L^2/100 = 0.394784 leaves no "
             "dyadic sample above the resolution floor"),
            ("powerlaw", ["n=8"], 2,
             "config error: config key 'n': the validity cap L^2/100 = 0.64 leaves no dyadic "
             "sample above the resolution floor"),
            ("bilinear", ["pairs=2", "horizons=[1e-300]"], 2, ZERO_RATIO),
            ("bilinear", ["pairs=2", "horizons=[1e300]"], 2, ZERO_RATIO),
            ("bilinear", ["pairs=2", "horizons=[1e-300,1.0]"], 2, ZERO_RATIO),
            ("bilinear", ["pairs=2", "horizons=[5e-324]"], 2,
             "config error: config key 'horizons': trajectory times must be positive"),
            ("kernel-decay", ["radius_max=1e300"], 2, f"config error: config keys {RADII_KEYS}: "
             "radius_count=24 puts 0 radii inside [4.0, 20.0]"),
            ("kernel-decay", ["radius_min=5e-324"], 2, f"config error: config keys "
             f"{RADII_KEYS}: radius_count=24 puts 1 radii inside [4.0, 20.0]"),
            ("ladder", ["r_values=[1e300]"], 2,
             "config error: config key 'r_values': non-finite ladder values at r = 1e+300"),
            ("besov-equiv", ["amplitude=1e300"], 3,
             "numerical failure: non-finite heat-sup value at t = 0.0414966, q = 4"),
            ("powerlaw", ["n=256", "amplitude=1e300"], 3,
             "numerical failure: non-finite heat-sup value at t = 0.00105112, q = 4"),
            ("kernel-decay", ["t=256", "selfsim_factor=3"], 2,
             "config error: config keys 'tail_lo' and 't': the tail window starts at 4.0, "
             "inside the kernel's core |x| < 2 sqrt(t) = 32"),
            ("heat-decay", ["t_min=5e-324"], 2,
             "config error: config keys 't_min', 't_max' and 'per_octave': need 0 < t_min "
             "< t_max < inf, t_min normal, got [5e-324, 64.0]"),
        ],
        ids=["scaling-lam", "scaling-lam-heat-sup", "beta-integral-t-large",
             "beta-integral-t-small", "kernel-decay-s",
             "besov-equiv-rescale", "powerlaw-decay", "smallness-box", "besov-equiv-box",
             "solve-box", "besov-equiv-smoothness", "besov-equiv-amplitude",
             "powerlaw-amplitude", "kernel-decay-t", "heat-decay-width", "solve-nan-summary",
             "heat-decay-q_tilde", "besov-equiv-rescale-underflow",
             "besov-equiv-rescale-overflow", "kernel-decay-box", "heat-decay-width-tiny",
             "besov-equiv-empty-window", "powerlaw-empty-window", "bilinear-tiny-horizon",
             "bilinear-huge-horizon", "bilinear-tiny-first-horizon",
             "bilinear-underflowed-horizon", "kernel-decay-radius-max",
             "kernel-decay-radius-min", "ladder-r-overflow", "besov-equiv-amplitude-overflow",
             "powerlaw-amplitude-overflow", "kernel-decay-tail-in-core",
             "heat-decay-t_min-subnormal"],
    )
    def test_overflowing_value_is_refused_cleanly(self, experiment, settings, code, message,
                                                  tmp_path, capsys):
        """A value that overflows or underflows a step of the experiment is
        refused with no warning and no traceback, and nothing is written:
        no NaN summary and no division by zero."""
        argv = [experiment] + [arg for setting in settings for arg in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "experiment, setting, key",
        [
            ("powerlaw", "r_inner_levels=[0.5]", "r_inner_levels"),
            ("bilinear", "horizons=[]", "horizons"),
            ("bilinear", "pairs=0", "pairs"),
            ("bilinear", "targets=[]", "targets"),
            ("smallness", 'data=[{"kind":"gaussian","widht":0.1}]', "widht"),
            ("smallness", 'data=[{"width":0.1}]', "data[0]"),
            ("smallness", "data=[]", "data"),
            ("solve", "datum=5", "datum"),
            ("solve", "datum.mode=[]", "mode"),
            ("ladder", "r_values=[]", "r_values"),
            ("fluctuation", "p_tilde_values=[]", "p_tilde_values"),
            ("kernel-decay", "s_values=[]", "s_values"),
            ("heat-decay", "t_min=0", "t_min"),
            ("heat-decay", "per_octave=0", "per_octave"),
            ("heat-decay", "per_octave=1e-9", "per_octave"),
            ("heat-decay", "per_octave=2.5", "per_octave"),
            ("heat-decay", "t_max=2", "t_max"),
            ("beta-integral", "grid_points=0", "grid_points"),
            ("heat-decay", "t_min=abc", "t_min"),
            ("bilinear", "pairs=true", "pairs"),
            ("solve", "datum.amplitude=abc", "amplitude"),
            ("kernel-decay", "radius_count=0", "radius_count"),
            ("kernel-decay", "radius_count=-3", "radius_count"),
            ("kernel-decay", "radius_count=2.5", "radius_count"),
            ("kernel-decay", "radius_count=1", "radius_count"),
            ("kernel-decay", "radius_min=0", "radius_min"),
            ("solve", "scale_to_delta_fraction=abc", "scale_to_delta_fraction"),
            ("solve", "calibration_path=5", "calibration_path"),
            ("fixed-point-demo", "max_iter=2.5", "max_iter"),
            ("ladder", "max_iter=2.5", "max_iter"),
            ("smallness", 'data=[{"kind":"gaussian","width":"abc"}]', "data[0].width"),
            ("smallness", 'data=[{"kind":"single_mode","mode":[1,"x"]}]', "data[0].mode"),
            ("bilinear", "q_tilde=5", "'targets'"),
        ],
    )
    def test_bad_value_exits_2_naming_the_key(self, experiment, setting, key, capsys):
        assert main([experiment, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "experiment, setting, key",
        [
            ("bilinear", 'doubling="abc"', "'doubling'"),
            ("solve", "save_fields=[1.0]", "'save_fields'"),
            ("solve", "override_smallness=1", "'override_smallness'"),
            ("ladder", 'r_values=["abc"]', "'r_values'"),
            ("kernel-decay", 's_values=["x"]', "'s_values'"),
            ("bilinear", 'horizons=["x"]', "'horizons'"),
            ("powerlaw", 'r_inner_levels=["a","b"]', "'r_inner_levels'"),
            ("smallness", 'data=[{"kind":"random_band","seed":-1}]', "'data[0].seed'"),
            ("solve", "d=2.0", "'d'"),
            ("solve", "n=32.0", "'n'"),
            ("embedding", "seed=NaN", "'seed'"),
            ("besov-equiv", "amplitude=0", "'amplitude'"),
            ("heat-decay", "box_len=0", "'box_len'"),
        ],
    )
    def test_typed_value_exits_2_naming_the_key(self, experiment, setting, key, capsys):
        assert main([experiment, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key}")

    @pytest.mark.parametrize(
        "experiment, setting, message",
        [
            ("besov-equiv", "n=48",
             "config key 'n' must be an integer in [4, inf) and a power of two, got 48"),
            ("solve", "quad_nodes=9",
             "config key 'quad_nodes' must be an integer in [8, inf) and even, got 9"),
            ("besov-equiv", "mode=[1]",
             "config keys 'mode', 'd' and 'n': single_mode datum requires a mode tuple of length "
             "d = 2, got (1,)"),
            ("bilinear", 'targets=["sobolev"]', "config keys 'doubling' and 'targets'"),
        ],
    )
    def test_construction_condition_exits_2_naming_the_key(self, experiment, setting, message,
                                                           monkeypatch, capsys):
        """Conditions the lattice, the quadrature, the single-mode datum and
        the mesh-doubling spread would meet later are refused up front."""
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the config was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        assert main([experiment, "--set", setting]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "experiment, settings, message",
        [
            ("solve", ['datum={"kind":"gaussian"}'],
             "config key 'datum': gaussian datum requires width > 0"),
            ("ladder", ['datum={"kind":"random_band","seed":1,"k_min":40,"k_max":50}', "n=16",
                        "mesh_nodes=4", "quad_nodes=8"],
             "config key 'datum': random_band [40, 50] contains no resolved modes"),
            ("smallness", ['data=[{"kind":"power_law","decay":1.0}]'],
             "config key 'data[0]': power_law datum requires 0 < r_inner < r_outer"),
            ("scaling", ['datum={"kind":"single_mode","mode":[1]}'],
             "config key 'datum': single_mode datum requires a mode tuple of length d"),
        ],
        ids=["solve", "ladder", "smallness", "scaling"],
    )
    def test_datum_section_exits_2_naming_its_key(self, experiment, settings, message,
                                                   monkeypatch, capsys):
        """Each datum section is realized before any calibration, and a
        refusal of its kind-specific fields names the section's key."""
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the datum was realized")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        argv = [experiment] + [arg for setting in settings for arg in ("--set", setting)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "experiment, datum, message",
        [
            ("solve", '{"kind":"gaussian","width":0.1}', "datum is not divergence-free"),
            ("ladder", '{"kind":"gaussian","width":0.1}', "datum is not divergence-free"),
            ("solve", '{"kind":"gaussian","width":0.1,"divergence_free":true}',
             "datum must be mean-free"),
            ("fluctuation", '{"kind":"power_law","decay":1.0,"r_inner":0.25,"r_outer":2.0}',
             "datum is not divergence-free"),
        ],
        ids=["solve-gaussian", "ladder-gaussian", "solve-not-mean-free", "fluctuation-power-law"],
    )
    def test_datum_the_solver_refuses_exits_2_before_calibration(self, experiment, datum,
                                                                  message, monkeypatch, capsys):
        """A datum that is not divergence-free, or not mean-free, is refused
        under its key before any calibration, not by the solve after it."""
        calls = []
        monkeypatch.setattr(lab, "calibrate_thresholds", lambda *args, **kwargs: calls.append(1))
        assert main([experiment, "--set", f"datum={datum}"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config key 'datum': {message}")
        assert calls == []

    @pytest.mark.parametrize(
        "experiment, settings, message",
        [
            ("bilinear", ["k_min=40", "k_max=50", "n=16"],
             "config keys 'k_min', 'k_max', 'n' and 'box_len': random_band [40, 50] contains "
             "no resolved modes"),
            ("embedding", ["k_min=40", "k_max=50", "n=16"],
             "config keys 'k_min', 'k_max', 'n' and 'box_len': random_band [40, 50] contains "
             "no resolved modes"),
            ("besov-equiv", ["mode=[40,40]"],
             "config keys 'mode', 'd' and 'n': mode (40, 40) is not resolved on n=32"),
            ("besov-equiv", ["mode=[0,0]"],
             "config keys 'mode', 'd' and 'n': single_mode datum requires a nonzero wavevector"),
            ("powerlaw", ["r_outer=5", "n=64"],
             "config keys 'decay', 'amplitude', 'r_inner_levels[0]', 'r_outer' and 'box_len': "
             "power_law datum requires 0 < r_inner < r_outer <= box_len / 2"),
            ("powerlaw", ["r_inner_levels=[4.0,3.0]", "n=64"],
             "config keys 'decay', 'amplitude', 'r_inner_levels[0]', 'r_outer' and 'box_len': "
             "power_law datum requires 0 < r_inner < r_outer <= box_len / 2, got r_inner=4.0"),
            ("kernel-decay", ["resolution=16"],
             "config keys 'resolution', 'box_len', 't' and 'radius_max': lattice too coarse "
             "for the heat factor"),
            ("kernel-decay", ["radius_max=100", "tail_hi=100"],
             "config keys 'resolution', 'box_len', 't' and 'radius_max': max radius 100 "
             "exceeds box_len/4"),
            ("kernel-decay", ["t=1e5"],
             "config keys 'resolution', 'box_len', 't' and 'radius_max': t 100000 exceeds the "
             "lattice validity window L^2/100 = 256"),
            ("heat-decay", ["per_octave=1"],
             "config keys 't_min', 't_max' and 'per_octave': decay fit needs at least 8 "
             "samples in [4.0, 64.0], got 5"),
            ("heat-decay", ["t_max=64.00000000000001"],
             "config keys 'box_len' and 't_max': t_max 64.000000000000014 exceeds the lattice "
             "validity window L^2/100 = 64"),
            ("kernel-decay", ["t=257"],
             "config keys 'resolution', 'box_len', 't' and 'radius_max': t 257 exceeds the "
             "lattice validity window L^2/100 = 256"),
            ("embedding", ["q2=5"],
             "config keys 's1', 'q1', 's2' and 'q2': embedding indices must sit on one scaling "
             "line"),
        ],
        ids=["bilinear-band", "embedding-band", "besov-equiv-unresolved", "besov-equiv-zero",
             "powerlaw-r_outer", "powerlaw-levels", "kernel-decay-coarse",
             "kernel-decay-window", "kernel-decay-t", "heat-decay-fit", "heat-decay-t_max-ulp",
             "kernel-decay-t-past-cap", "embedding-scaling-line"],
    )
    def test_runner_refusal_exits_2_naming_its_keys(self, experiment, settings, message,
                                                    capsys):
        """A refusal of the data, the kernel lattice or the decay-fit window
        that a runner builds names the config keys that fed it."""
        argv = [experiment] + [arg for setting in settings for arg in ("--set", setting)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "config, key", [({"corpus": {"bogus": 1}}, "'corpus.bogus'"), ({"dd": 3}, "'dd'")]
    )
    def test_calibrate_refuses_an_unknown_key(self, config, key, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the config was checked")

        monkeypatch.setattr(cli, "calibrate_thresholds", refuse)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(config))
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: unknown config key {key}")

    def test_calibrate_refuses_corpus_points_that_are_no_power_of_two(self, tmp_path,
                                                                      monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the config was checked")

        monkeypatch.setattr(cli, "calibrate_thresholds", refuse)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"corpus": {"n": 48}}))
        assert main(["calibrate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: config key 'corpus.n' must be an integer in [4, inf) and a power of two")

    @pytest.mark.parametrize(
        "corpus, keys, message",
        [({"box_len": 1e200}, "keys 'corpus.n' and 'corpus.box_len'",
          "box length 1e+200 is too large for n=32: the cell volume or the validity window "
          "overflows"),
         ({"box_len": 1e-300}, "keys 'corpus.n' and 'corpus.box_len'",
          "box length 1e-300 is too small for n=32: |k|^2 overflows"),
         ({"pairs": 5}, "key 'corpus.pairs'",
          "calibration corpus needs at least 20 pairs, got 5"),
         ({"d": 3}, "keys 'd' and 'corpus.d'",
          "corpus dimension 3 does not match book dimension 2"),
         ({"k_min": 20, "k_max": 30},
          "keys 'corpus.k_min', 'corpus.k_max', 'corpus.n' and 'corpus.box_len'",
          "random_band [20, 30] contains no resolved modes"),
         ({"horizon": 100}, "keys 'corpus.horizon', 'corpus.n' and 'corpus.box_len'",
          "horizon 100 exceeds the lattice validity window"),
         ({"horizon": 1e-6}, "keys 'corpus.horizon', 'corpus.n' and 'corpus.box_len'",
          "horizon 1e-06 leaves no dyadic sample above the resolution floor")],
        ids=["large", "small", "pairs", "d", "band", "horizon-large", "horizon-small"],
    )
    def test_calibrate_names_the_corpus_box(self, corpus, keys, message, tmp_path,
                                            monkeypatch, capsys):
        """A corpus section that the calibration refuses is refused under
        the corpus keys that set it, before the first B, with no traceback,
        and nothing is written."""
        def refuse(*args, **kwargs):
            raise AssertionError("B was measured before the corpus was checked")

        monkeypatch.setattr(picard, "bilinear_estimate_report", refuse)
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"corpus": corpus}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config {keys}: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "2.5", "true"])
    @pytest.mark.parametrize("experiment", ["solve", "ladder", "fluctuation"])
    def test_max_iter_is_refused_before_calibration(self, experiment, value, monkeypatch,
                                                     capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before max_iter was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        assert main([experiment, "--set", f"max_iter={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "max_iter" in err

    @pytest.mark.parametrize(
        "experiment, settings, key",
        [
            ("ladder", ["r_values=[1.5]", "n=16", "mesh_nodes=8", "quad_nodes=8"],
             "'r_values': ladder exponent [0] must exceed max(p, q) = 2, got 1.5"),
            ("ladder", ["r_values=[4.0, 2.0]"],
             "'r_values': ladder exponent [1] must exceed max(p, q) = 2, got 2"),
            ("fluctuation", ["p=4", "s=-0.5", "q_tilde=8", "p_tilde_values=[3.0, 1.5]"],
             "'p_tilde_values': fluctuation exponent [1] must exceed max(p, d)/2 = 2, got 1.5"),
        ],
    )
    def test_exponent_floor_is_refused_before_calibration(self, experiment, settings, key,
                                                          monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the exponent floor was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        args = [experiment]
        for setting in settings:
            args += ["--set", setting]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"config error: config key {key}")

    @pytest.mark.parametrize("setting", [{"d": 3}, {"p": 1.2}, {"s": 0.6}, {"q_tilde": 1.5},
                                         {"q_tilde": 1e17}],
                             ids=["d", "p", "s", "q_tilde-below-q", "q_tilde-as-inf"])
    @pytest.mark.parametrize("command", ["solve", "bilinear", "ladder", "fluctuation",
                                         "smallness", "scaling", "calibrate"])
    def test_book_hypothesis_is_refused_naming_the_book_keys(self, command, setting, tmp_path,
                                                             monkeypatch, capsys):
        """A book off the paper's hypotheses, or one whose q_tilde floats
        cannot tell from inf (alpha rounds to 1), exits 2 naming d, p, s
        and q_tilde, before any calibration, with no warning, and writes
        nothing."""
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the book was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        monkeypatch.setattr(cli, "calibrate_thresholds", refuse)
        out = tmp_path / "out"
        if command == "calibrate":
            path = tmp_path / "cal.json"
            path.write_text(json.dumps(setting))
            argv = ["calibrate", "--config", str(path)]
        else:
            (key, value), = setting.items()
            argv = [command, "--set", f"{key}={value!r}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config keys 'd', 'p', 's' and 'q_tilde': ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_fluctuation_refuses_a_subcritical_book_before_calibration(self, monkeypatch,
                                                                      capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the book was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        assert main(["fluctuation", "--set", "s=0.25"]) == 2
        assert capsys.readouterr().err.startswith("config error: config keys 'd', 'p' and 's'")

    @pytest.mark.parametrize(
        "experiment, horizon, message",
        [
            ("solve", "100", "horizon 100 exceeds the lattice validity window"),
            ("smallness", "100", "horizon 100 exceeds the lattice validity window"),
            ("ladder", "100", "horizon 100 exceeds the lattice validity window"),
            ("fluctuation", "100", "horizon 100 exceeds the lattice validity window"),
            ("scaling", "100", "horizon 100 exceeds the lattice validity window"),
            ("solve", "1e-9", "horizon 1e-09 leaves no dyadic sample above the resolution floor"),
        ],
    )
    def test_window_is_refused_before_calibration_naming_its_keys(self, experiment, horizon,
                                                                   message, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("calibration started before the window was checked")

        monkeypatch.setattr(lab, "calibrate_thresholds", refuse)
        assert main([experiment, "--set", f"horizon={horizon}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config keys 'horizon', 'n' and 'box_len': {message}")
        assert "Traceback" not in err

    def test_horizon_at_the_cap_passes_and_one_ulp_past_it_is_refused(self, monkeypatch,
                                                                       capsys):
        def reached(*args, **kwargs):
            raise AssertionError("calibration reached")

        monkeypatch.setattr(lab, "calibrate_thresholds", reached)
        cfg = lab.default_config("solve")
        t_cap = cfg["box_len"] ** 2 / 100.0
        with pytest.raises(AssertionError, match="calibration reached"):
            main(["solve", "--set", f"horizon={t_cap!r}"])
        past = float(np.nextafter(t_cap, np.inf))
        assert main(["solve", "--set", f"horizon={past!r}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config keys 'horizon', 'n' and 'box_len': "
                              f"horizon {fmt_float(past)} exceeds the lattice validity window "
                              f"L^2/100 = {fmt_float(t_cap)}")
        assert "Traceback" not in err

    def test_heat_decay_t_max_at_the_cap_passes_and_one_ulp_past_it_is_refused(self, capsys):
        t_cap = lab.default_config("heat-decay")["box_len"] ** 2 / 100.0
        assert main(["heat-decay", "--set", f"t_max={t_cap!r}"]) == 0
        past = float(np.nextafter(t_cap, np.inf))
        assert main(["heat-decay", "--set", f"t_max={past!r}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config keys 'box_len' and 't_max': "
                              f"t_max {fmt_float(past)} exceeds the lattice validity window "
                              f"L^2/100 = {fmt_float(t_cap)}")
        assert "Traceback" not in err

    def test_kernel_decay_late_profile_at_the_cap_passes(self, tmp_path):
        """At t on the cap the late profile runs at the dilated box's own
        cap, which can round one ulp below selfsim_factor * t; it is not
        refused, and the self-similarity holds to rounding. The tail window
        and the radii lie outside the kernel's core 2 sqrt(t) = 32 and
        inside box_len/4 = 40."""
        argv = ["kernel-decay", "--set", "t=256", "--set", "selfsim_factor=3",
                "--set", "tail_lo=32", "--set", "tail_hi=40", "--set", "radius_min=1",
                "--set", "radius_max=40"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "kernel-decay.json").read_text())["summary"]
        assert max(row["selfsim_rel_err"] for row in summary.values()) < 1e-12

    @pytest.mark.parametrize("key", ["gamma_min", "gamma_max", "theta_min", "theta_max"])
    def test_beta_integral_exponent_one_ulp_below_one_passes_quietly(self, key, tmp_path):
        """An exponent 2^-53 below 1 makes the Gauss-Jacobi nodes divide by
        zero inside scipy, harmlessly: the run passes with no warning."""
        argv = ["beta-integral", "--set", f"{key}={1 - 2.0**-53!r}", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        summary = json.loads((tmp_path / "beta-integral.json").read_text())["summary"]
        assert summary["max_rel_err"] < 1e-8

    def test_besov_equiv_small_rescale_in_the_normal_floats_passes(self, capsys):
        assert main(["besov-equiv", "--set", "rescale=1e-80"]) == 0

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["beta-integral", "--config", str(missing)]) == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, keys", [
        ("kernel-decay", "'d', 'resolution', 'box_len' and 'selfsim_factor'"),
        ("heat-decay", "'d', 'resolution' and 'box_len'"),
    ])
    def test_3d_default_resolution_is_refused_before_allocating(self, experiment, keys,
                                                                 tmp_path, capsys, monkeypatch):
        """The default resolution 512 at d = 3 is a 512^3 lattice, 3 GiB per
        vector field: refused by the lattice budget before the lattice
        makes its first array (its wavenumbers come from fftfreq)."""
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice allocated before its budget check")

        monkeypatch.setattr(np.fft, "fftfreq", refuse)
        assert main([experiment, "--set", "d=3", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config keys {keys}: a vector field on the d=3, n=512 lattice "
            "takes 3072 MiB, past the budget of 256 MiB")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value, shown", [(np.inf, "inf"), (-np.inf, "-inf"),
                                              (np.nan, "NaN")])
    def test_non_finite_summary_exits_3_naming_its_key(self, value, shown, tmp_path, capsys,
                                                       monkeypatch):
        """A summary float that is NaN or +-inf is refused, nested keys
        included, and nothing is written."""
        exp = lab.EXPERIMENTS["beta-integral"]

        def runner(cfg):
            columns, rows, summary, digest = exp.runner(cfg)
            return columns, rows, {**summary, "section": {"worst": value}}, digest

        monkeypatch.setitem(lab.EXPERIMENTS, "beta-integral",
                            lab.ExperimentDef(exp.description, exp.keys, runner))
        assert main(["beta-integral", "--set", "grid_points=2", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"numerical failure: beta-integral summary key 'section.worst' is {shown}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["horizon_spread_kato", "horizon_spread_sobolev",
                                     "mesh_doubling_spread"])
    def test_spreads_may_be_inf(self, key, tmp_path, monkeypatch):
        """bilinear's spreads are quotients of two measured ratios, which
        may overflow: inf is written, not refused."""
        exp = lab.EXPERIMENTS["beta-integral"]

        def runner(cfg):
            columns, rows, summary, digest = exp.runner(cfg)
            return columns, rows, {**summary, key: np.inf}, digest

        monkeypatch.setitem(lab.EXPERIMENTS, "beta-integral",
                            lab.ExperimentDef(exp.description, exp.keys, runner))
        assert main(["beta-integral", "--set", "grid_points=2", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "beta-integral.json").read_text())["summary"]
        assert summary[key] == np.inf
