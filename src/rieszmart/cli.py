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
    "submartingale": 2.0,
    "slln-p-le-2": 2.0,
    "slln-p-gt-2": 3.0,
    "slln-n": 3.0,
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RieszmartError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise RieszmartError(f"config file {path} must hold a JSON object")
    return data


def _resolve(flag, config: dict, key: str, default):
    """flags > config file > default."""
    if flag is not None:
        return flag
    if key in config and config[key] is not None:
        return config[key]
    return default


def _resolve_seed(flag, config: dict) -> int:
    if flag is not None:
        return int(flag)
    if config.get("seed") is not None:
        return int(config["seed"])
    env = os.environ.get("RIESZ_MART_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise RieszmartError(f"RIESZ_MART_SEED must be an integer, got {env!r}") from exc
    return STANDARD_SEED


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
    config = _load_config(args.config)
    suite = _resolve(args.suite, config, "suite", "all")
    tol = Tolerance(
        abs=float(_resolve(args.tol_abs, config, "tol_abs", 1e-12)),
        rel=float(_resolve(args.tol_rel, config, "tol_rel", 1e-9)),
    )
    cfg = RunConfig(
        suite=suite,
        trials=int(_resolve(args.trials, config, "trials", 1000)),
        seed=_resolve_seed(args.seed, config),
        dim_max=int(
            _resolve(args.dim_max, config, "dim_max", SUITE_DIM_DEFAULT.get(suite, 16))
        ),
        steps_max=int(_resolve(args.steps_max, config, "steps_max", 20)),
        p_min=_resolve(args.p_min, config, "p_min", None),
        p_max=_resolve(args.p_max, config, "p_max", None),
        tol=tol,
        horizon=int(_resolve(args.horizon, config, "horizon", 10_000)),
        output=_resolve(args.output, config, "output", None),
        format=_resolve(args.format, config, "format", "json"),
    )
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
    config = _load_config(args.config)
    experiment = args.experiment
    seed = _resolve_seed(args.seed, config)
    horizon = int(_resolve(args.n, config, "n", 10_000))
    dim = int(_resolve(args.dim, config, "dim", 4))
    amplitude = float(_resolve(args.amplitude, config, "amplitude", 1.0))
    rates = WeightSequence.parse(str(_resolve(args.a, config, "a", "power:1")))
    p = float(_resolve(args.p, config, "p", _EXPERIMENT_P_DEFAULT[experiment]))
    epsilon = float(
        _resolve(args.epsilon, config, "epsilon", DEFAULT_STOCHASTIC_EPSILON)
    )
    constant = _resolve(args.constant, config, "constant", None)
    constant = None if constant is None else float(constant)
    outdir = str(_resolve(args.output_dir, config, "output_dir", "."))
    if horizon < 1 or dim < 1:
        raise RieszmartError("n and dim must be >= 1")
    _require_finite_options(p=p, epsilon=epsilon, amplitude=amplitude, constant=constant)

    start = time.perf_counter()
    if experiment == "submartingale":
        if constant is not None:
            proc = _constant_process(constant, dim, horizon)
        else:
            proc = generate_submartingale(
                GeneratorConfig(seed=seed, dim=dim, steps=horizon, amplitude=amplitude)
            )
        report = submartingale_convergence_experiment(proc, rates, p, epsilon)
    else:
        diffs = generate_mds(
            GeneratorConfig(seed=seed, dim=dim, steps=horizon, amplitude=amplitude)
        )
        if experiment == "slln-p-le-2":
            report = slln_p_le_2(diffs, rates, p, epsilon)
        elif experiment == "slln-p-gt-2":
            gamma = float(_resolve(args.gamma, config, "gamma", 1.5))
            k = float(_resolve(args.k, config, "k", 2.0))
            _require_finite_options(gamma=gamma, k=k)
            report = slln_p_gt_2(diffs, rates, p, gamma, k, epsilon)
        else:
            report = slln_an_equals_n(diffs, p, epsilon)
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    report.config["seed"] = seed
    report.config["dim"] = dim
    report.config["n"] = horizon
    report.config["amplitude"] = amplitude

    stem = os.path.join(outdir, experiment.replace("-", "_"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszmart",
        description="Verify vector-lattice inequalities and run limit-theorem experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a randomized verification suite")
    v.add_argument("--suite", choices=sorted(SUITES) + ["all"], default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--dim-max", type=int, default=None)
    v.add_argument("--steps-max", type=int, default=None)
    v.add_argument("--p-min", type=float, default=None)
    v.add_argument("--p-max", type=float, default=None)
    v.add_argument("--tol-abs", type=float, default=None)
    v.add_argument("--tol-rel", type=float, default=None)
    v.add_argument("--horizon", type=int, default=None)
    v.add_argument("--output", default=None, help="report file (stdout when omitted)")
    v.add_argument("--format", choices=["json", "csv"], default=None)
    v.add_argument("--config", default=None, help="JSON config file")

    s = sub.add_parser("simulate", help="run a limit-theorem experiment")
    s.add_argument("experiment", choices=EXPERIMENTS)
    s.add_argument("--p", type=float, default=None)
    s.add_argument("--gamma", type=float, default=None)
    s.add_argument("--k", type=float, default=None)
    s.add_argument("--n", type=int, default=None, help="horizon (number of stages)")
    s.add_argument("--dim", type=int, default=None)
    s.add_argument("--amplitude", type=float, default=None)
    s.add_argument("--a", default=None, help="rate sequence, e.g. power:1 for a_i = i")
    s.add_argument("--constant", type=float, default=None,
                   help="use the constant process c*e instead of a generated one")
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--output-dir", default=None)
    s.add_argument("--config", default=None, help="JSON config file")
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
    except RieszmartError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
