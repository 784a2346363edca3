"""Command line front end.

Subcommands mirror the harness entry points: ``simulate`` runs the
config's Monte Carlo scenario to CSV, ``sinr-curve`` evaluates the
closed-form eavesdropper SINR over ``c2max_values``, ``search-space``
prints the keyspace summary, and ``selftest`` runs a tiny deterministic
end-to-end check.  A run is described by its config alone: ``--config``
and ``--set`` are the only ways to set a field.

Exit codes: 0 success, 2 bad config or arguments, 3 file I/O failure,
4 numeric failure inside a run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from .exceptions import ConfigError, ContractViolation, SolverError
from .harness import (
    ExperimentConfig,
    emit_csv,
    run_scenario,
    run_sinr_curve,
    search_space_summary,
    write_staged,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seafdm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo BER sweep and write CSV")
    _add_config_args(sim)
    sim.add_argument("--out", default="results.csv", help="output CSV path (default %(default)s)")

    curve = sub.add_parser("sinr-curve", help="closed-form eavesdropper SINR vs c2max")
    _add_config_args(curve)
    curve.add_argument("--out", default=None, help="optional CSV path; prints a table otherwise")

    space = sub.add_parser("search-space", help="print the schedule keyspace summary")
    _add_config_args(space)

    sub.add_parser("selftest", help="quick deterministic end-to-end sanity check")

    return parser


def _add_config_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--config", default=None, help="YAML experiment config")
    cmd.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config field (YAML-parsed value); repeatable",
    )


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config is not None:
        loaded = _parse_yaml(Path(args.config).read_text(), args.config)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} must contain a mapping")
        raw.update(loaded)
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        raw[key.strip()] = _parse_yaml(value, f"--set {item}")
    return ExperimentConfig.from_dict(raw)


def _parse_yaml(text: str, source: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {source}: {exc}") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = run_scenario(config)
    emit_csv(records, args.out, config)
    for rec in records:
        parts = [f"point={rec.point:g}", f"bob_ber={rec.bob_ber:.3e}"]
        if np.isfinite(rec.eve_ber):
            parts.append(f"eve_ber={rec.eve_ber:.3e}")
        if np.isfinite(rec.afdm_ber):
            parts.append(f"afdm_ber={rec.afdm_ber:.3e}")
        parts.append(f"bits={rec.bit_count}")
        print("  ".join(parts))
    print(f"wrote {args.out}")
    return 0


def _cmd_sinr_curve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    c2max, sinr = run_sinr_curve(config)
    sinr_db = 10.0 * np.log10(sinr)
    if args.out:
        rows = [",".join(repr(float(v)) for v in row) + "\n" for row in zip(c2max, sinr, sinr_db)]
        write_staged([(Path(args.out), "".join(["c2max,sinr,sinr_db\n", *rows]))])
        print(f"wrote {args.out}")
    else:
        for c, db in zip(c2max, sinr_db):
            print(f"c2max={c:.4e}  eve_sinr={db:+7.3f} dB")
    return 0


def _cmd_search_space(args: argparse.Namespace) -> int:
    config = _load_config(args)
    print(json.dumps(search_space_summary(config), indent=2))
    return 0


def _cmd_selftest(_: argparse.Namespace) -> int:
    config = ExperimentConfig(
        scenario="bob-vs-afdm-ber",
        n=32,
        paths=2,
        snr_db=(60.0,),
        trials=4,
        seed=7,
        c2max=0.2,
        m=4,
    )
    rec = run_scenario(config)[0]
    ok = rec.bob_ber == 0.0 and rec.afdm_ber == 0.0
    print(f"selftest: bob_ber={rec.bob_ber:g} afdm_ber={rec.afdm_ber:g} -> {'ok' if ok else 'FAILED'}")
    return 0 if ok else 4


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sinr-curve": _cmd_sinr_curve,
        "search-space": _cmd_search_space,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (SolverError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
