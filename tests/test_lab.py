"""Experiment registry: catalog, config plumbing, determinism, output files.

Each experiment gets a smoke run at reduced size; the full-size defaults
are exercised by the acceptance suite. Experiments that need thresholds
reuse one calibration file so the corpus measurement runs once.
"""

import ast
import json
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from mildns import (
    ConfigError,
    CorpusSpec,
    DatumSpec,
    QuadratureSpec,
    bilinear_estimate_report,
    build_exponent_book,
    default_config,
    heat_trajectory,
    list_experiments,
    make_lattice,
    quadratic_mesh,
    realize_datum,
    run,
)
from mildns import cli, lab
from mildns.lattice import Lattice

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


# reduced-size overrides per experiment; None means defaults are already cheap
SMOKE_OVERRIDES = {
    "kernel-decay": {
        "s_values": [0.0],
        "box_len": 40.0,
        "resolution": 256,
        "radius_min": 0.5,
        "radius_max": 10.0,
        "radius_count": 8,
        "tail_lo": 2.5,
        "tail_hi": 10.0,
    },
    "beta-integral": {"grid_points": 4, "node_count": 16},
    "heat-decay": {"resolution": 128, "t_min": 4.0, "t_max": 16.0},
    "besov-equiv": None,
    "embedding": {"count": 8, "n": 32},
    "bilinear": {"pairs": 3, "mesh_nodes": 8, "quad_nodes": 8, "doubling": False},
    "smallness": {"calibration_path": "CAL"},
    "solve": {
        "n": 16,
        "mesh_nodes": 8,
        "quad_nodes": 8,
        "calibration_path": "CAL",
    },
    "ladder": {"n": 16, "mesh_nodes": 8, "quad_nodes": 8, "calibration_path": "CAL"},
    "fluctuation": {"n": 16, "mesh_nodes": 8, "quad_nodes": 8, "calibration_path": "CAL"},
    "scaling": {"n": 32},
    "powerlaw": {"n": 256, "r_inner_levels": [0.5, 0.25]},
    "fixed-point-demo": None,
}


def smoke_config(exp_id, calibration_file):
    cfg = {"experiment": exp_id}
    overrides = SMOKE_OVERRIDES[exp_id]
    if overrides:
        for key, value in overrides.items():
            cfg[key] = calibration_file if value == "CAL" else value
    return cfg


class TestCatalog:
    def test_thirteen_experiments(self):
        entries = list_experiments()
        assert [e["id"] for e in entries] == ALL_IDS
        assert all(e["description"] for e in entries)

    def test_default_config_is_a_copy(self):
        cfg = default_config("solve")
        assert cfg["experiment"] == "solve"
        cfg["n"] = 99999
        assert default_config("solve")["n"] == 64

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="valid ids"):
            default_config("turbulence")
        with pytest.raises(ConfigError, match="valid ids"):
            run({"experiment": "turbulence"})
        with pytest.raises(ConfigError, match="'experiment' key"):
            run({})


class TestConfigMerging:
    def test_unknown_key_names_the_valid_ones(self):
        with pytest.raises(ConfigError, match="valid keys.*grid_points"):
            run({"experiment": "beta-integral", "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="datum\\."):
            run({"experiment": "solve", "datum": {"vorticity": 1}})

    def test_override_reaches_the_runner(self):
        table = run({"experiment": "beta-integral", "grid_points": 3, "node_count": 16})
        assert table.summary["grid_points"] == 9
        assert len(table.rows) == 9

    def test_datum_section_of_another_kind_starts_empty(self, monkeypatch):
        """A datum section whose kind differs from the default's takes the
        DatumSpec defaults, so the Gaussian is not Leray-projected."""
        realized = []

        def recording(spec, lattice):
            realized.append(realize_datum(spec, lattice))
            return realized[-1]

        monkeypatch.setattr(lab, "realize_datum", recording)
        datum = {"kind": "gaussian", "width": 0.1}
        table = run({"experiment": "scaling", "datum": datum, "n": 32})
        assert table.config["datum"] == datum
        assert not np.any(realized[0].data[1])

    @pytest.mark.parametrize("datum", [{"seed": 3}, {"kind": "random_band", "seed": 3}],
                             ids=["no-kind", "same-kind"])
    def test_datum_section_of_the_same_kind_overlays_the_default(self, datum):
        cfg = lab.check_config(lab.EXPERIMENTS["scaling"].keys, {"datum": datum})
        assert cfg["datum"] == {**default_config("scaling")["datum"], "seed": 3}

    @pytest.mark.parametrize(
        "exp_id, key",
        [
            (exp_id, key)
            for exp_id in ALL_IDS
            for key, value in default_config(exp_id).items()
            if isinstance(value, list) and value
        ],
    )
    def test_empty_list_is_refused_naming_the_key(self, exp_id, key):
        with pytest.raises(ConfigError, match=f"'{key}' must be a non-empty list"):
            run({"experiment": exp_id, key: []})


# The table of single-key values every declared key is run against
PROBE_VALUES = [0, -1, float("nan"), "abc", [], [1.0]]


def probes(keys):
    """(dotted key, override) for each probe value of each declared key,
    and of each field of a datum or corpus section (set in the first item
    of a list of sections)."""
    for name, key in keys.items():
        for value in PROBE_VALUES:
            yield name, {name: value}
        for field in key.fields or ():
            for value in PROBE_VALUES:
                if key.items:
                    yield f"{name}[0].{field}", {name: [{**key.default[0], field: value}]}
                else:
                    yield f"{name}.{field}", {name: {field: value}}


def names(message, name):
    """Whether message refuses the key name or an item or field of it."""
    return re.search(f"config key '{re.escape(name)}[\\[.']", message) is not None


class RunnerStarted(Exception):
    """Raised in place of the computation once the schema accepted a value."""


def start(*args, **kwargs):
    raise RunnerStarted


def accepted_run_fails(argv, name, capsys):
    """Run an accepted value through the CLI. It may succeed (0), fail
    numerically (3) or meet a condition between keys, which exits 2
    naming the key; anything else, a traceback among them, is a failure."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    key = re.split(r"[.\[]", name)[0]
    if code in (0, 3) or (code == 2 and re.search(rf"\b{key}\b", err)):
        return None
    return f"{argv[0]} {name}: exit {code}, {err.strip()[:200]!r}"


class TestDeclaredSchema:
    def test_datum_and_corpus_fields_are_declared_once(self):
        """Every datum section is declared by the one table of DatumSpec
        fields, and the corpus section by the CorpusSpec fields, each
        with its dataclass default (None for the datum kind)."""
        for keys, spec in ((lab._DATUM_KEYS, DatumSpec),
                           (lab.CALIBRATE_KEYS["corpus"].fields, CorpusSpec)):
            assert {k: key.default for k, key in keys.items()} == {
                f.name: None if f.default is MISSING else f.default for f in fields(spec)
            }
        for exp in lab.EXPERIMENTS.values():
            for key in exp.keys.values():
                assert key.fields in (None, lab._DATUM_KEYS)

    def test_section_defaults_are_taken_from_the_dataclasses(self):
        """check_config overlays a section onto the section's own default,
        so these Key defaults document the values that DatumSpec and
        CorpusSpec apply; each is the dataclass default object itself. The
        datum kind is required, and an unset corpus d is the book's."""
        for keys, spec, own in ((lab._DATUM_KEYS, DatumSpec, {"kind"}),
                                (lab.CALIBRATE_KEYS["corpus"].fields, CorpusSpec, {"d"})):
            for name in set(keys) - own:
                assert keys[name].default is getattr(spec, name), name

    @pytest.mark.parametrize("exp_id", ALL_IDS)
    def test_every_declared_key_against_the_table(
        self, exp_id, calibration_file, tmp_path, monkeypatch, capsys
    ):
        """A refused value raises ConfigError naming its dotted key before
        the runner starts; an accepted one runs at smoke size through the
        CLI without a traceback."""
        exp = lab.EXPERIMENTS[exp_id]
        failures = []
        for name, override in probes(exp.keys):
            config = {**smoke_config(exp_id, calibration_file), **override}
            with monkeypatch.context() as patch:
                patch.setitem(lab.EXPERIMENTS, exp_id, replace(exp, runner=start))
                try:
                    run(config)
                except RunnerStarted:
                    pass
                except ConfigError as exc:
                    if not names(str(exc), name):
                        failures.append(f"{name}: refused without the key: {exc}")
                    continue
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            if failure := accepted_run_fails([exp_id, "--config", str(path)], name, capsys):
                failures.append(failure)
        assert failures == []

    def test_calibrate_keys_against_the_table(self, tmp_path, monkeypatch, capsys):
        """The same for `mildns calibrate --config`, on a corpus of n = 16:
        a refusal exits 2 naming the key before calibration starts."""
        failures = []
        for name, override in probes(lab.CALIBRATE_KEYS):
            config = {"corpus": {}, **override}
            if isinstance(config["corpus"], dict):
                config["corpus"] = {"n": 16, **config["corpus"]}
            path = tmp_path / "calibrate.json"
            path.write_text(json.dumps(config))
            argv = ["calibrate", "--config", str(path), "--out", str(tmp_path)]
            with monkeypatch.context() as patch:
                patch.setattr(cli, "calibrate_thresholds", start)
                try:
                    code = cli.main(argv)
                except RunnerStarted:
                    code = None
            if code is not None:
                err = capsys.readouterr().err
                if code != 2 or not names(err, name):
                    failures.append(f"{name}: exit {code}, {err.strip()!r}")
                continue
            if failure := accepted_run_fails(argv, name, capsys):
                failures.append(failure)
        assert failures == []


class TestOneRefusalRoute:
    """A refusal between keys names them through errors.require or
    errors.naming; lab.py spells a key itself only in the schema."""

    SCHEMA = {"_refuse", "check_config", "_experiment", "run", "to_csv_text"}

    @staticmethod
    def tree():
        return ast.parse(open(lab.__file__, encoding="utf-8").read())

    @staticmethod
    def parents(tree):
        return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def test_every_raise_of_a_config_error_is_in_the_schema_or_under_naming(self):
        tree = self.tree()
        parents = self.parents(tree)
        stray = []
        for node in ast.walk(tree):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", "") == "ConfigError"):
                continue
            enclosing, under_naming = node, False
            while not isinstance(enclosing, ast.FunctionDef):
                enclosing = parents[enclosing]
                under_naming |= isinstance(enclosing, ast.With) and any(
                    getattr(item.context_expr.func, "id", "") == "naming"
                    for item in enclosing.items if isinstance(item.context_expr, ast.Call))
            if not (under_naming or enclosing.name in self.SCHEMA):
                stray.append(f"line {node.lineno} in {enclosing.name}")
        assert stray == []

    def test_one_book_and_one_corpus_route(self):
        """lab.py and cli.py build the exponent book in one call and the
        calibration corpus in one call between them."""
        calls = [getattr(node.func, "id", getattr(node.func, "attr", ""))
                 for module in (lab, cli)
                 for node in ast.walk(ast.parse(open(module.__file__, encoding="utf-8").read()))
                 if isinstance(node, ast.Call)]
        assert calls.count("build_exponent_book") == 1
        assert calls.count("CorpusSpec") == 1

    def test_lab_imports_no_private_name(self):
        """lab.py reaches the other modules through their public names: a
        helper it needs belongs to the module's API, not to its underscores."""
        private = [f"{node.module}.{alias.name}" for node in ast.walk(self.tree())
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []

    def test_no_message_spells_config_keys(self):
        tree = self.tree()
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        spelled = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and id(node) not in docstrings and "config keys" in node.value]
        assert spelled == []


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_smoke_run(exp_id, calibration_file):
    table = run(smoke_config(exp_id, calibration_file))
    assert table.experiment_id == exp_id
    assert table.rows
    for row in table.rows:
        assert len(row) == len(table.columns)
    assert table.summary
    assert set(table.provenance) == {"config_sha256", "calibration_digest", "code_version"}


def test_kernel_decay_builds_each_box_once(monkeypatch):
    """kernel-decay profiles every order s on one base and one dilated
    lattice, each built once per run."""
    built = []
    init = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    table = run({"experiment": "kernel-decay", "resolution": 128, "box_len": 40.0,
                 "radius_max": 10.0, "tail_hi": 10.0})
    assert len(table.summary) == 3
    assert built == [(2, 128, 80.0), (2, 128, 40.0)]


class TestKnownSummaries:
    def test_beta_integral_accuracy(self):
        table = run({"experiment": "beta-integral", "grid_points": 4})
        assert table.summary["max_rel_err"] < 1e-8

    def test_fixed_point_demo(self):
        table = run({"experiment": "fixed-point-demo"})
        assert table.summary["root_error"] < 1e-12
        assert table.summary["divergence_detected"] is True
        assert table.summary["discriminant"] < 0
        assert table.summary["ball_bound_ok"] is True

    def test_scaling_invariance_is_exact(self):
        table = run({"experiment": "scaling", "n": 32})
        assert table.summary["rel_difference"] < 1e-12

    def test_solve_takes_a_random_band_datum(self, calibration_file):
        cfg = smoke_config("solve", calibration_file)
        cfg["datum"] = {
            "kind": "random_band",
            "seed": 1,
            "k_min": 1,
            "k_max": 4,
            "divergence_free": True,
        }
        cfg["scale_to_delta_fraction"] = 0.5
        table = run(cfg)
        assert table.summary["converged"] is True
        assert table.summary["smallness_satisfied"] is True
        assert "closed_form_max_rel_err" not in table.summary

    def test_solve_reports_calibration_digest(self, calibration_file):
        table = run(smoke_config("solve", calibration_file))
        assert table.provenance["calibration_digest"] is not None
        assert table.summary["converged"] is True
        assert table.summary["closed_form_max_rel_err"] < 1e-10

    def test_solve_reports_the_b_error_estimate(self, calibration_file):
        """B of a Taylor-Green flow is a gradient, which P removes, so the
        estimate of B's error relative to ||u(t)||_2 is round-off."""
        estimate = run(smoke_config("solve", calibration_file)).summary["b_error_estimate"]
        assert 0.0 <= estimate <= 1e-12

    @pytest.mark.parametrize("exp_id", ["ladder", "fluctuation"])
    def test_mesh_doubling_reports_the_b_error_estimate(self, exp_id, calibration_file):
        """B's error falls about 4x when the mesh doubles (3.45x and 3.74x
        when measured)."""
        summary = run(smoke_config(exp_id, calibration_file)).summary
        assert 3.0 < summary["b_error_estimate_coarse"] / summary["b_error_estimate_fine"] < 5.0

    def test_bilinear_flows_each_datum_once_per_mesh(self, monkeypatch):
        """Both targets read one heat-flow pair per (pair, horizon, mesh):
        3 pairs x (2 horizons + the doubled mesh) x 2 data, plus the pair of
        the vanishing check, is 20 flows. Rows and summary are those of a
        fresh pair of flows for every row."""
        cfg = {**default_config("bilinear"), "pairs": 3, "n": 16, "mesh_nodes": 4,
               "quad_nodes": 8, "vanishing_mesh_nodes": 51}
        flows, flow = [], lab.heat_trajectory

        def counted(u0, mesh):
            flows.append(mesh)
            return flow(u0, mesh)

        monkeypatch.setattr(lab, "heat_trajectory", counted)
        table = run(cfg)
        assert len(flows) == 20

        book = build_exponent_book(cfg["d"], cfg["p"], cfg["s"], cfg["q_tilde"])
        lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
        gamma = {"kato": book.gamma_kato, "sobolev": book.gamma_sobolev}
        ratio, rows = {}, []
        for i in range(3):
            u0, v0 = (realize_datum(DatumSpec(kind="random_band", seed=cfg["seed"] + 2 * i + j,
                                              k_min=1, k_max=4, divergence_free=True), lat)
                      for j in (0, 1))
            for horizon, nodes, targets in ((0.5, 4, ["kato", "sobolev"]),
                                            (1.0, 4, ["kato", "sobolev"]), (1.0, 8, ["kato"])):
                for target in targets:
                    mesh = quadratic_mesh(horizon, nodes)
                    ratio[i, target, horizon, nodes] = bilinear_estimate_report(
                        heat_trajectory(u0, mesh), heat_trajectory(v0, mesh), book, target,
                        quad=QuadratureSpec(8, gamma[target], book.alpha)).ratio
                    rows.append([i, target, horizon, nodes, ratio[i, target, horizon, nodes]])
        assert table.rows == rows

        def spread(key_a, key_b):
            return max([1.0] + [max(ratio[(i,) + key_a], ratio[(i,) + key_b])
                                / min(ratio[(i,) + key_a], ratio[(i,) + key_b]) for i in range(3)])

        summary = {"mesh_doubling_spread": spread(("kato", 1.0, 4), ("kato", 1.0, 8)),
                   "vanishing_at_zero": table.summary["vanishing_at_zero"]}
        for target in gamma:
            summary[f"max_ratio_{target}"] = max(
                ratio[i, target, h, 4] for i in range(3) for h in (0.5, 1.0))
            summary[f"horizon_spread_{target}"] = spread((target, 0.5, 4), (target, 1.0, 4))
        assert table.summary == summary

    @pytest.mark.parametrize("exp_id", ["ladder", "fluctuation"])
    def test_mesh_doubling_realizes_and_scales_the_datum_once(self, exp_id, calibration_file,
                                                              monkeypatch):
        """Both meshes solve one datum and one book: the book is built once,
        the datum realized once, then once more at the amplitude its one
        smallness lhs sets."""
        calls = []

        def counted(name):
            original = getattr(lab, name)
            monkeypatch.setattr(lab, name, lambda *a, **k: calls.append(name) or original(*a, **k))

        counted("build_exponent_book")
        counted("realize_datum")
        counted("smallness_lhs")
        run(smoke_config(exp_id, calibration_file))
        assert sorted(calls) == ["build_exponent_book", "realize_datum", "realize_datum",
                                 "smallness_lhs"]

    def test_heat_decay_grid_stays_below_t_max(self):
        """The dyadic grid is anchored at t_max, so no row lies past it or
        past the lattice validity window box_len^2 / 100 = 50.1264."""
        table = run({"experiment": "heat-decay", "t_max": 50.0, "box_len": 70.8})
        times = [row[0] for row in table.rows]
        assert times[-1] == 50.0
        assert all(t <= 50.0 for t in times)


class TestDeterminismAndOutput:
    def test_repeat_runs_are_byte_identical(self, calibration_file):
        cfg = smoke_config("ladder", calibration_file)
        a = run(dict(cfg))
        b = run(dict(cfg))
        assert a.to_csv_text() == b.to_csv_text()
        assert a.provenance["config_sha256"] == b.provenance["config_sha256"]
        assert json.dumps(a.summary, sort_keys=True) == json.dumps(b.summary, sort_keys=True)

    def test_out_dir_receives_csv_and_manifest(self, tmp_path):
        cfg = {"experiment": "fixed-point-demo", "out_dir": str(tmp_path / "demo")}
        table = run(cfg)
        csv_path = tmp_path / "demo" / "fixed-point-demo.csv"
        json_path = tmp_path / "demo" / "fixed-point-demo.json"
        assert csv_path.read_text() == table.to_csv_text()
        manifest = json.loads(json_path.read_text())
        assert manifest["experiment"] == "fixed-point-demo"
        assert manifest["row_count"] == len(table.rows)
        # out_dir itself must not leak into the hashed config echo
        assert "out_dir" not in manifest["config"]

    def test_failed_validation_writes_nothing(self, tmp_path):
        out = tmp_path / "should-stay-empty"
        with pytest.raises(ConfigError):
            run({"experiment": "powerlaw", "r_inner_levels": [0.25, 0.5], "out_dir": str(out)})
        assert not out.exists()

    def test_failing_manifest_write_leaves_no_lone_csv(self, tmp_path, monkeypatch):
        """The CSV and its manifest go to temporary files first; when the
        second write fails, neither the new CSV nor a temporary file stays,
        and an earlier pair in the directory is left as it was."""
        out = tmp_path / "demo"
        cfg = {"experiment": "fixed-point-demo", "out_dir": str(out)}
        staged = lab.stage_file

        def fail_on_manifest(path, data):
            if str(path).endswith(".json"):
                raise OSError("disk full")
            return staged(path, data)

        monkeypatch.setattr(lab, "stage_file", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            run(dict(cfg))
        assert list(out.iterdir()) == []

        monkeypatch.setattr(lab, "stage_file", staged)
        run(dict(cfg))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(lab, "stage_file", fail_on_manifest)
        with pytest.raises(OSError, match="disk full"):
            run({**cfg, "eta": 0.5})
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_config_echo_round_trips_through_manifest(self, tmp_path):
        out = tmp_path / "beta"
        run({"experiment": "beta-integral", "grid_points": 3, "out_dir": str(out)})
        manifest = json.loads((out / "beta-integral.json").read_text())
        assert manifest["config"]["grid_points"] == 3
        assert manifest["config"]["experiment"] == "beta-integral"
