"""Command-line front end.

Commands:

* ``mildns list`` prints the experiment catalog.
* ``mildns calibrate --config file.json`` measures thresholds for the
  exponent book and corpus of the config (lab.CALIBRATE_KEYS) and writes
  the calibration file.
* ``mildns <experiment-id> [--config file.json] [--set k=v ...]
  [--out dir]`` runs one experiment; each --set writes one field into
  the loaded config (dotted keys reach into nested sections, values are
  parsed as JSON when possible, and a JSON object replaces a whole
  section). Every key has a declared type and range in lab.py.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(divergence or non-convergence), 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, DataError, MildNSError, NumericalError
from .lab import (CALIBRATE_KEYS, EXPERIMENTS, calibration_corpus, check_config, exponent_book,
                  list_experiments, run)
from .picard import calibrate_thresholds
from .runtime import VERSION

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _apply_set(config: dict, pairs) -> dict:
    """Write repeated --set key=value flags into config, in order; a dotted
    key reaches into a section, a new one when the key names none."""
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set key {key!r} indexes into a non-section value")
        node[parts[-1]] = value
    return config


def _load_config(path) -> dict:
    data = Path(path).read_bytes()
    try:
        config = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _cmd_list(_args) -> int:
    for entry in list_experiments():
        print(f"{entry['id']:<18} {entry['description']}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = check_config(CALIBRATE_KEYS, _load_config(args.config) if args.config else {})
    book = exponent_book(config)
    path = config["path"]
    if args.out:
        path = str(Path(args.out) / Path(path).name)
    calibrated = calibrate_thresholds(book, calibration_corpus(book, config["corpus"]), path=path)
    print(f"book          {calibrated.key}")
    print(f"c_hat         {calibrated.c_hat:.8g}")
    print(f"delta         {calibrated.delta:.8g}")
    print(f"sigma         {calibrated.sigma:.8g}")
    print(f"written       {path}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = _apply_set(_load_config(args.config) if args.config else {}, args.set)
    config["experiment"] = args.experiment
    if args.out:
        config["out_dir"] = args.out
    table = run(config)
    print(f"experiment    {table.experiment_id}")
    print(f"rows          {len(table.rows)}")
    for key in sorted(table.summary):
        value = table.summary[key]
        print(f"{key:<28} {value}")
    if args.out:
        print(f"written       {Path(args.out) / (table.experiment_id + '.csv')}")
        print(f"written       {Path(args.out) / (table.experiment_id + '.json')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildns",
        description="numerical laboratory for mild Navier-Stokes solutions",
    )
    parser.add_argument("--version", action="version", version=f"mildns {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser("list", help="print the experiment catalog").set_defaults(
        func=_cmd_list
    )

    cal = sub.add_parser("calibrate", help="measure smallness thresholds")
    cal.add_argument("--config", help="JSON file with book and corpus parameters")
    cal.add_argument("--out", help="directory for the calibration file")
    cal.set_defaults(func=_cmd_calibrate)

    for exp_id, exp in sorted(EXPERIMENTS.items()):
        p = sub.add_parser(exp_id, help=exp.description)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            metavar="key=value",
            help="override one config field (repeatable, dotted keys allowed)",
        )
        p.add_argument("--out", help="output directory for CSV and manifest")
        p.set_defaults(func=_cmd_experiment, experiment=exp_id)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.trace is not None:
            print(
                f"  iterations {exc.trace.iterations}, last norms {exc.trace.norms[-3:]}",
                file=sys.stderr,
            )
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MildNSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
