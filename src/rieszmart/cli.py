"""Command-line entry point.

Two subcommands:

  verify    run a named randomized suite (or all of them) and write a report
  simulate  run one limit-theorem experiment and write trajectory files

Configuration precedence is flags over config file over defaults, with the
environment variable RIESZ_MART_SEED as a seed fallback between the config
file and the built-in default.  Exit codes: 0 all checks passed, 1 a
mathematical check failed (the report is still written), 2 usage or
hypothesis error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import RieszmartError
from .lattice import SampleSpace, Tolerance
from .limits import (
    DEFAULT_STOCHASTIC_EPSILON,
    WeightSequence,
    slln_an_equals_n,
    slln_p_gt_2,
    slln_p_le_2,
    submartingale_convergence_experiment,
)
from .processes import (
    GeneratorConfig,
    ProcessSequence,
    default_filtration,
    generate_mds,
    generate_submartingale,
)
from .reports import dump_json, write_json_atomic, write_text_atomic
from .suites import (
    STANDARD_SEED,
    SUITE_DIM_DEFAULT,
    SUITES,
    RunConfig,
    _require_finite_options,
    run_all,
    run_suite,
)

EXPERIMENTS = ("submartingale", "slln-p-le-2", "slln-p-gt-2", "slln-n")

_EXPERIMENT_P_DEFAULT = {
    "submartingale": 2.0, "slln-p-le-2": 2.0, "slln-p-gt-2": 3.0, "slln-n": 3.0
}

# name: (conversion, default, argparse extras).  The conversion applies to flag
# and config-file values alike; argparse converts flags with extras["type"]
# if given, else with the conversion.  None keeps the value as given, which
# must then have its flag's JSON type: a number for a float flag, else a
# string.  Float options must be finite: RunConfig.validate checks verify's,
# cmd_simulate simulate's.  Verify's defaults are those of RunConfig/Tolerance.
VERIFY_OPTIONS = {
    "suite": (None, RunConfig.suite, {"choices": sorted(SUITES) + ["all"]}),
    "trials": (int, RunConfig.trials, {}),
    "seed": (int, RunConfig.seed, {}),
    "dim_max": (int, None, {}),  # SUITE_DIM_DEFAULT, else RunConfig.dim_max
    "steps_max": (int, RunConfig.steps_max, {}),
    "p_min": (None, RunConfig.p_min, {"type": float}),  # a config-file 2 echoes as 2
    "p_max": (None, RunConfig.p_max, {"type": float}),
    "tol_abs": (float, Tolerance.abs, {}),
    "tol_rel": (float, Tolerance.rel, {}),
    "horizon": (int, RunConfig.horizon, {"help": "echoed as config.horizon; no suite reads it"}),
    "output": (None, RunConfig.output, {"help": "report file (stdout when omitted)"}),
    "format": (None, RunConfig.format, {"choices": ["json", "csv"]}),
}

SIMULATE_OPTIONS = {
    "p": (float, None, {}),  # _EXPERIMENT_P_DEFAULT
    "gamma": (float, 1.5, {}),
    "k": (float, 2.0, {}),
    "n": (int, 10_000, {"help": "horizon (number of stages)"}),
    "dim": (int, 4, {}),
    "amplitude": (float, 1.0, {}),
    "a": (str, "power:1", {"help": "rate sequence, e.g. power:1 for a_i = i"}),
    "constant": (float, None, {"help": "submartingale only: the constant process c*e"}),
    "epsilon": (float, DEFAULT_STOCHASTIC_EPSILON, {}),
    "seed": (int, STANDARD_SEED, {}),
    "output_dir": (str, ".", {}),
}


def _options(args: argparse.Namespace, table: dict) -> dict:
    """Each option of the table from its flag, else the config file, else
    (for the seed) RIESZ_MART_SEED, else its default."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RieszmartError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise RieszmartError(f"config file {args.config} must hold a JSON object")
    options = {}
    for name, (convert, default, extras) in table.items():
        value = getattr(args, name)
        if value is None:
            value = config.get(name)
        env = os.environ.get("RIESZ_MART_SEED") if name == "seed" else None
        if value is None and env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise RieszmartError(f"RIESZ_MART_SEED must be an integer, got {env!r}") from exc
        if value is None:
            value = default
        elif convert is not None:
            value = convert(value)
        elif extras.get("type") is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RieszmartError(f"{name} must be a number, got {value!r}")
        elif not isinstance(value, str):
            raise RieszmartError(f"{name} must be a string, got {value!r}")
        options[name] = value
    return options


def _failures_csv(report_dict: dict) -> str:
    lines = ["suite,trial,seed,margin,witness"]
    suites = (
        report_dict["suites"].values()
        if "suites" in report_dict
        else [report_dict]
    )
    for rep in suites:
        for f in rep["failures"]:
            witness = str(f["witness"]).replace('"', "'")
            lines.append(
                f'{rep["suite"]},{f["trial"]},{f["seed"]},{f["margin"]!r},"{witness}"'
            )
    return "\n".join(lines) + "\n"


def _emit_report(report_dict: dict, output: str | None, fmt: str) -> None:
    if fmt == "csv":
        text = _failures_csv(report_dict)
        if output:
            write_text_atomic(output, text)
        else:
            sys.stdout.write(text)
        return
    if output:
        write_json_atomic(output, report_dict)
    else:
        sys.stdout.write(dump_json(report_dict))


def cmd_verify(args: argparse.Namespace) -> int:
    options = _options(args, VERIFY_OPTIONS)
    if options["dim_max"] is None:
        options["dim_max"] = SUITE_DIM_DEFAULT.get(options["suite"], RunConfig.dim_max)
    tol = Tolerance(abs=options.pop("tol_abs"), rel=options.pop("tol_rel"))
    cfg = RunConfig(tol=tol, **options)
    cfg.validate()
    if cfg.suite == "all":
        start = time.perf_counter()
        reports = run_all(cfg)
        total_failures = sum(r.failure_count for r in reports)
        combined = {
            "suite": "all",
            "trials": cfg.trials,
            "seed": cfg.seed,
            "tol": cfg.tol.to_json_dict(),
            "failure_count": total_failures,
            "suites": {r.suite: r.to_json_dict() for r in reports},
            "elapsed_ms": (time.perf_counter() - start) * 1000.0,
        }
        _emit_report(combined, cfg.output, cfg.format)
        return 0 if total_failures == 0 else 1
    report = run_suite(cfg)
    _emit_report(report.to_json_dict(), cfg.output, cfg.format)
    return 0 if report.passed else 1


def _constant_process(constant: float, dim: int, steps: int) -> ProcessSequence:
    space = SampleSpace.uniform(dim)
    filt = default_filtration(space, steps)
    return ProcessSequence(filt, np.full((steps, dim), float(constant)))


def cmd_simulate(args: argparse.Namespace) -> int:
    opt = _options(args, SIMULATE_OPTIONS)
    _require_finite_options(
        **{name: opt[name] for name, (kind, _, _) in SIMULATE_OPTIONS.items() if kind is float}
    )
    experiment = args.experiment
    seed, horizon, dim, amplitude = opt["seed"], opt["n"], opt["dim"], opt["amplitude"]
    rates = WeightSequence.parse(opt["a"])
    p = _EXPERIMENT_P_DEFAULT[experiment] if opt["p"] is None else opt["p"]
    epsilon = opt["epsilon"]
    if horizon < 1 or dim < 1:
        raise RieszmartError("n and dim must be >= 1")
    if opt["constant"] is not None and experiment != "submartingale":
        raise RieszmartError(f"--constant applies to the submartingale experiment, not {experiment}")

    start = time.perf_counter()
    if opt["constant"] is not None:
        sequence = _constant_process(opt["constant"], dim, horizon)
    else:
        gen = GeneratorConfig(seed=seed, dim=dim, steps=horizon, amplitude=amplitude)
        if horizon > dim:
            sys.stderr.write(
                f"note: --n {horizon} exceeds --dim {dim}: stages past {dim} condition on "
                "the singleton partition and add only rounding residue\n"
            )
        sequence = (generate_submartingale if experiment == "submartingale" else generate_mds)(gen)
    if experiment == "submartingale":
        report = submartingale_convergence_experiment(sequence, rates, p, epsilon)
    elif experiment == "slln-p-le-2":
        report = slln_p_le_2(sequence, rates, p, epsilon)
    elif experiment == "slln-p-gt-2":
        report = slln_p_gt_2(sequence, rates, p, opt["gamma"], opt["k"], epsilon)
    else:
        report = slln_an_equals_n(sequence, p, epsilon)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    report.config.update(seed=seed, dim=dim, n=horizon, amplitude=amplitude)

    stem = os.path.join(opt["output_dir"], experiment.replace("-", "_"))
    write_text_atomic(stem + "_trajectory.csv", report.decay.to_csv())
    if report.hypothesis is not None:
        write_text_atomic(stem + "_hypothesis.csv", report.hypothesis.to_csv())
    write_json_atomic(stem + "_verdict.json", report.to_json_dict())
    sys.stdout.write(
        f"{experiment}: verdict {'positive' if report.verdict else 'negative'}, "
        f"tail_sup {report.decay.tail_sup[report.decay.verdict_index]!r} "
        f"at n={report.decay.verdict_checkpoint}\n"
    )
    return 0 if report.verdict else 1


class _Parser(argparse.ArgumentParser):
    """Takes a word that float() reads, such as -1e-3 or -inf, as a value,
    where argparse's negative-number pattern would take it for an option."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rieszmart",
        description="Verify vector-lattice inequalities and run limit-theorem experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a randomized verification suite")
    simulate = sub.add_parser("simulate", help="run a limit-theorem experiment")
    simulate.add_argument("experiment", choices=EXPERIMENTS)
    for command, table in ((verify, VERIFY_OPTIONS), (simulate, SIMULATE_OPTIONS)):
        for name, (convert, _, extras) in table.items():
            command.add_argument("--" + name.replace("_", "-"), **{"type": convert, **extras})
        command.add_argument("--config", help="JSON config file")
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Handlers are looked up per call, not stored in the cached parser, so
    # a rebound cmd_verify or cmd_simulate is the one that runs.
    command = cmd_verify if args.command == "verify" else cmd_simulate
    try:
        return command(args)
    except (RieszmartError, ValueError, OSError) as exc:  # OSError: an unwritable output path
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
