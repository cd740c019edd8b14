"""Command-line front end.

Subcommands:

* ``run <config>``: execute a scenario config, write the CSV report.
* ``rate <config>``: execute a sample-count sweep and print the fitted
  log-log decay slope of the median recovery error.
* ``bounds``: evaluate one closed-form bound for explicit parameters and
  optionally append it as a CSV row.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bounds as bnd
from .harness import emit_report, fit_rate, load_config, run_experiment


def _apply_overrides(cfg, args):
    updates = {}
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.seed is not None:
        updates["base_seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _print_summary(summary) -> None:
    for key, value in summary.items():
        print(f"{key} = {value}")


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    records, summary = run_experiment(cfg)
    out = cfg.out or (Path(args.config).stem + "_report.csv")
    emit_report(records, out)
    _print_summary(summary)
    print(f"report written to {out}")
    return 0


def _cmd_rate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.scenario != "rate_sweep":
        cfg = dataclasses.replace(cfg, scenario="rate_sweep")
    records, summary = run_experiment(cfg)
    out = cfg.out or (Path(args.config).stem + "_rate.csv")
    emit_report(records, out)
    fit = fit_rate(records)
    _print_summary(summary)
    print(f"slope = {fit.slope} +- {fit.half_width} over m_prime = {list(fit.m_primes)}")
    print(f"report written to {out}")
    return 0


# The bounds subcommand takes one flag per BoundInputs field and writes one
# CSV column per field, in field order.
_BOUND_FIELDS = dataclasses.fields(bnd.BoundInputs)
_BOUND_CSV_HEADER = ",".join(("formula_id", *(f.name for f in _BOUND_FIELDS), "value", "exponent", "flags"))


def _cmd_bounds(args) -> int:
    inputs = bnd.BoundInputs(**{f.name: getattr(args, f.name) for f in _BOUND_FIELDS})
    value = bnd.BOUND_FORMULAS[args.formula](inputs)
    print(f"formula = {value.formula_id}")
    print(f"value = {value.value}")
    print(f"failure_probability_exponent = {value.failure_probability_exponent}")
    if value.flags:
        print(f"flags = {','.join(value.flags)}")
    if args.out:
        path = Path(args.out)
        cells = (
            value.formula_id, *(getattr(inputs, f.name) for f in _BOUND_FIELDS),
            value.value, value.failure_probability_exponent, ";".join(value.flags),
        )
        row = ",".join(str(v) for v in cells)
        if path.exists():
            path.write_text(path.read_text() + row + "\n")
        else:
            path.write_text(_BOUND_CSV_HEADER + "\n" + row + "\n")
        print(f"row appended to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantmc",
        description="Quantized and one-bit low-rank matrix completion experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its CSV report")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--out", default=None, help="override report path")
    p_run.set_defaults(fn=_cmd_run)

    p_rate = sub.add_parser("rate", help="run a sample-count sweep and fit the error decay slope")
    p_rate.add_argument("config")
    p_rate.add_argument("--trials", type=int, default=None)
    p_rate.add_argument("--seed", type=int, default=None)
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(fn=_cmd_rate)

    p_b = sub.add_parser("bounds", help="evaluate one closed-form recovery bound")
    p_b.add_argument("--formula", choices=sorted(bnd.BOUND_FORMULAS), required=True)
    for f in _BOUND_FIELDS:
        given = {"required": True} if f.default is dataclasses.MISSING else {"default": f.default}
        flag_type = {"int": int, "float": float}[f.type]
        p_b.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=flag_type, **given)
    p_b.add_argument("--out", default=None, help="append the evaluation as a CSV row")
    p_b.set_defaults(fn=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
