"""End-to-end tests of the command-line interface."""

import json
import re
import shlex
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from chains import ScaledStages

from rieszmart import cli
from rieszmart.cli import main
from rieszmart.reports import strip_elapsed


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- verify -----------------------------------------------------------------


def test_verify_small_suite_passes(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "jensen", "--trials", "20", "--seed", "3"]
    )
    assert code == 0
    assert report["suite"] == "jensen"
    assert report["failure_count"] == 0
    assert report["config"]["trials"] == 20
    assert report["config"]["seed"] == 3


def test_verify_all_combines_suites(capsys):
    code, report = run_json(capsys, ["verify", "--suite", "all", "--trials", "2"])
    assert code == 0
    assert report["suite"] == "all"
    assert len(report["suites"]) == 9
    assert report["failure_count"] == 0
    for name, sub in report["suites"].items():
        assert sub["suite"] == name
        assert sub["failure_count"] == 0


def test_verify_suite_dim_default(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "clarkson", "--trials", "5", "--seed", "1"]
    )
    assert code == 0
    # Scalar-inequality suites widen the default dimension cap to 32.
    assert report["config"]["dim_max"] == 32


def test_verify_rejects_zero_trials(capsys):
    assert main(["verify", "--suite", "all", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_rejects_unknown_suite():
    # argparse handles the rejection and exits with its usage code.
    assert main(["verify", "--suite", "nonsense", "--trials", "5"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--suite", "holder", "--p-min", "1.5", "--p-max", "1.0"],
        ["--suite", "holder", "--p-min", "12"],  # above holder's default maximum of 10
        ["--suite", "jensen", "--p-max", "0.5"],  # below jensen's default minimum of 1
        ["--suite", "all", "--p-min", "1.5", "--p-max", "1.0"],
    ],
)
def test_verify_rejects_an_empty_exponent_range(flags, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", *flags, "--trials", "5", "--output", str(out)]) == 2
    assert "exponent range is empty" in capsys.readouterr().err
    assert not out.exists()
    # One exponent is a range too.
    assert main(["verify", "--suite", "clarkson", "--p-min", "1.5", "--p-max", "1.5", "--trials", "5",
                 "--output", str(out)]) == 0


def test_missing_command_is_usage_error():
    assert main([]) == 2


def test_verify_output_file_and_determinism(tmp_path):
    base = ["verify", "--suite", "bands", "--trials", "30", "--seed", "5"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(base + ["--output", str(first)]) == 0
    assert main(base + ["--output", str(second)]) == 0
    a = strip_elapsed(json.loads(first.read_text()))
    b = strip_elapsed(json.loads(second.read_text()))
    assert a == b


def test_verify_csv_format(capsys):
    code = main(
        ["verify", "--suite", "holder", "--trials", "10", "--seed", "2", "--format", "csv"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "suite,trial,seed,margin,witness"
    # A clean run emits the header only.
    assert len(out.splitlines()) == 1


def test_verify_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "jensen", "trials": 15, "seed": 5}))
    code, report = run_json(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    assert report["config"]["seed"] == 5
    assert report["config"]["trials"] == 15

    code, report = run_json(capsys, ["verify", "--config", str(cfg), "--seed", "7"])
    assert code == 0
    assert report["config"]["seed"] == 7  # flag beats config


def test_seed_environment_fallback(monkeypatch, capsys):
    monkeypatch.setenv("RIESZ_MART_SEED", "11")
    code, report = run_json(capsys, ["verify", "--suite", "jensen", "--trials", "5"])
    assert code == 0
    assert report["config"]["seed"] == 11


def test_seed_precedence_config_over_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("RIESZ_MART_SEED", "11")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 6}))
    code, report = run_json(
        capsys, ["verify", "--suite", "jensen", "--trials", "5", "--config", str(cfg)]
    )
    assert code == 0
    assert report["config"]["seed"] == 6


def test_seed_default_is_standard(monkeypatch, capsys):
    monkeypatch.delenv("RIESZ_MART_SEED", raising=False)
    code, report = run_json(capsys, ["verify", "--suite", "jensen", "--trials", "5"])
    assert code == 0
    assert report["config"]["seed"] == 42


def test_bad_seed_environment_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RIESZ_MART_SEED", "not-a-number")
    assert main(["verify", "--suite", "jensen", "--trials", "5"]) == 2
    assert "RIESZ_MART_SEED" in capsys.readouterr().err


def test_bad_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "--config", str(missing)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["verify", "--config", str(not_object)]) == 2


# --- simulate ----------------------------------------------------------------


def test_simulate_writes_trajectory_files(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "slln-n",
            "--p",
            "3",
            "--n",
            "256",
            "--dim",
            "4",
            "--seed",
            "7",
            "--output-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("slln-n: verdict positive")

    trajectory = (tmp_path / "slln_n_trajectory.csv").read_text().splitlines()
    assert trajectory[0] == "n,max_abs,atom0,atom1,atom2,atom3"
    assert len(trajectory) == 1 + 9  # checkpoints of 256: 1,2,...,256

    hypothesis = (tmp_path / "slln_n_hypothesis.csv").read_text().splitlines()
    assert len(hypothesis) == 1 + 9

    verdict = json.loads((tmp_path / "slln_n_verdict.json").read_text())
    assert verdict["experiment"] == "slln-n"
    assert verdict["verdict"] is True
    assert verdict["config"]["seed"] == 7
    assert verdict["config"]["n"] == 256


def test_simulate_constraint_violation_is_usage_error(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "slln-p-gt-2",
            "--p",
            "4",
            "--gamma",
            "2.5",
            "--k",
            "2",
            "--n",
            "64",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "constraint" in err and "violated" in err


def test_simulate_constant_process_exact_decay(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "submartingale",
            "--constant",
            "1",
            "--a",
            "power:1",
            "--n",
            "64",
            "--dim",
            "2",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    verdict = json.loads((tmp_path / "submartingale_verdict.json").read_text())
    assert verdict["verdict"] is True
    assert verdict["decay"]["max_abs"] == [1 / c for c in verdict["decay"]["checkpoints"]]


@pytest.mark.parametrize("experiment", ["slln-n", "slln-p-le-2", "slln-p-gt-2"])
def test_simulate_constant_outside_the_submartingale_is_usage_error(experiment, tmp_path, capsys):
    argv = ["simulate", experiment, "--constant", "1", "--dim", "4", "--n", "16"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "--constant" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_bad_rate_spec_is_usage_error(tmp_path, capsys):
    code = main(
        ["simulate", "slln-n", "--a", "fibonacci", "--n", "16", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "rate spec" in capsys.readouterr().err


def test_simulate_negative_verdict_exits_one(tmp_path, capsys):
    # An impossible epsilon forces a negative verdict; the report is still
    # written and the exit code distinguishes "ran, failed" from usage errors.
    code = main(
        [
            "simulate",
            "slln-n",
            "--n",
            "64",
            "--dim",
            "4",
            "--seed",
            "7",
            "--epsilon",
            "1e-30",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "verdict negative" in capsys.readouterr().out
    assert (tmp_path / "slln_n_verdict.json").exists()


def test_simulate_notes_stages_past_dim_on_stderr(tmp_path, capsys):
    note = (
        "note: --n 12 exceeds --dim 4: stages past 4 condition on the singleton "
        "partition and add 0 up to rounding\n"
    )
    for experiment in ("slln-n", "slln-p-le-2", "slln-p-gt-2", "submartingale"):
        argv = ["simulate", experiment, "--dim", "4", "--output-dir", str(tmp_path)]
        main(argv + ["--n", "12"])
        err = capsys.readouterr().err  # slln-p-gt-2's rate gate fails at 12 stages
        assert err.startswith(note) and err.count("note:") == 1
        main(argv + ["--n", "4"])
        assert "note:" not in capsys.readouterr().err
    # The constant process is not generated, so it gets no note.
    main(["simulate", "submartingale", "--constant", "1", "--dim", "4", "--n", "12",
          "--output-dir", str(tmp_path)])
    assert capsys.readouterr().err == ""


def test_simulate_amplitude_whose_double_overflows_is_a_usage_error(tmp_path, capsys):
    argv = ["simulate", "slln-n", "--dim", "3", "--n", "20", "--amplitude", "1e308",
            "--output-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: amplitude must be finite") and "1e+308" in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_bad_sizes(tmp_path):
    assert main(["simulate", "slln-n", "--n", "0", "--output-dir", str(tmp_path)]) == 2
    assert main(["simulate", "slln-n", "--dim", "0", "--output-dir", str(tmp_path)]) == 2


def test_a_run_over_the_memory_budget_exits_2_before_it_allocates(tmp_path, capsys):
    argv = ["simulate", "slln-n", "--n", "1000000000", "--dim", "8", "--output-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    assert "over simulate's memory budget of 4 GiB" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_the_memory_budget_admits_a_run_at_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SIMULATE_MEMORY_BUDGET", 100 * 8 * cli.SIMULATE_BYTES_PER_VALUE)
    for n, codes in (("100", (0, 1)), ("101", (2,))):
        argv = ["simulate", "slln-n", "--n", n, "--dim", "8", "--output-dir", str(tmp_path)]
        assert main(argv) in codes, n
    assert "memory budget" in capsys.readouterr().err


def test_simulate_determinism(tmp_path):
    args = [
        "simulate",
        "slln-p-le-2",
        "--n",
        "128",
        "--dim",
        "3",
        "--seed",
        "13",
    ]
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(args + ["--output-dir", str(dir_a)]) == 0
    assert main(args + ["--output-dir", str(dir_b)]) == 0

    csv_a = (dir_a / "slln_p_le_2_trajectory.csv").read_text()
    csv_b = (dir_b / "slln_p_le_2_trajectory.csv").read_text()
    assert csv_a == csv_b  # byte-identical

    v_a = strip_elapsed(json.loads((dir_a / "slln_p_le_2_verdict.json").read_text()))
    v_b = strip_elapsed(json.loads((dir_b / "slln_p_le_2_verdict.json").read_text()))
    assert v_a == v_b


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps({"n": 32, "dim": 2, "seed": 9, "output_dir": str(tmp_path)})
    )
    code = main(["simulate", "slln-n", "--config", str(cfg)])
    assert code == 0
    verdict = json.loads((tmp_path / "slln_n_verdict.json").read_text())
    assert verdict["config"]["seed"] == 9
    assert verdict["config"]["n"] == 32


# --- non-finite options and the cached parser ------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "jensen", "--trials", "5", "--tol-rel", "inf"],
        ["verify", "--suite", "jensen", "--trials", "5", "--tol-abs", "nan"],
        ["verify", "--suite", "holder", "--trials", "5", "--p-min", "nan"],
        ["verify", "--suite", "holder", "--trials", "5", "--p-max", "inf"],
        ["simulate", "submartingale", "--p", "nan"],
        ["simulate", "slln-n", "--epsilon", "nan"],
        ["simulate", "slln-n", "--p", "inf"],
        ["simulate", "slln-p-gt-2", "--gamma", "nan"],
        ["simulate", "slln-p-gt-2", "--k", "nan"],
        ["simulate", "slln-p-le-2", "--amplitude", "nan"],
        ["simulate", "slln-p-le-2", "--amplitude", "inf"],
        ["simulate", "submartingale", "--constant=-inf"],
        ["simulate", "slln-p-le-2", "--a", "power:nan"],
        ["simulate", "slln-p-le-2", "--a", "power:inf"],
        ["simulate", "slln-p-le-2", "--a", "power:400"],
    ],
)
def test_non_finite_options_are_usage_errors(argv, tmp_path, capsys):
    if argv[0] == "verify":
        argv = argv + ["--output", str(tmp_path / "report.json")]
    else:
        argv = argv + ["--n", "32", "--dim", "3", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "finite" in err or "exponent >= 0" in err or "strictly positive" in err
    assert list(tmp_path.iterdir()) == []


def test_negative_tolerances_stay_legal(capsys):
    code, report = run_json(
        capsys, ["verify", "--suite", "jensen", "--trials", "3", "--tol-abs", "-0.5"]
    )
    assert code in (0, 1)
    assert report["config"]["tol"]["abs"] == -0.5


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    from rieszmart import cli

    def calls():
        out = []
        out.append((main(["verify", "--suite", "nonsense"]), None))
        out.append(
            (main(["verify", "--suite", "jensen", "--trials", "4", "--seed", "2"]),
             strip_elapsed(json.loads(capsys.readouterr().out)))
        )
        sim = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
        code = main(["simulate", "slln-n", "--n", "40", "--dim", "3", "--output-dir", str(sim)])
        verdict = strip_elapsed(json.loads((sim / "slln_n_verdict.json").read_text()))
        out.append((code, verdict, capsys.readouterr().out))
        return out

    cached = calls()
    parser = cli._PARSER
    assert parser is not None
    assert calls() == cached
    assert cli._PARSER is parser
    fresh = []
    for _ in range(3):
        cli._PARSER = None
        fresh.append(calls())
    assert all(run == cached for run in fresh)
    assert [c[0] for c in cached] == [2, 0, 0]


# --- the option tables -------------------------------------------------------------

TABLES = {"verify": cli.VERIFY_OPTIONS, "simulate": cli.SIMULATE_OPTIONS}
COMMANDS = {"verify": ["verify"], "simulate": ["simulate", "slln-n"]}


def float_options(command):
    return [
        name
        for name, (convert, _, extras) in TABLES[command].items()
        if extras.get("type", convert) is float
    ]


def two_values(convert, extras):
    """A flag value and a different config-file value, with the values they
    resolve to."""
    if "choices" in extras:
        first, second = extras["choices"][:2]
        return first, second, first, second
    kind = extras.get("type", convert)
    if kind is int:
        return "3", 5, 3, 5
    if kind is float:
        return "0.25", 0.5, 0.25, 0.5
    return "from-flag", "from-config", "from-flag", "from-config"


@pytest.mark.parametrize(
    "command, name", [(command, name) for command in TABLES for name in TABLES[command]]
)
def test_flag_beats_config_file_beats_default(command, name, tmp_path, monkeypatch):
    monkeypatch.delenv("RIESZ_MART_SEED", raising=False)
    convert, default, extras = TABLES[command][name]
    flag_text, config_value, from_flag, from_config = two_values(convert, extras)
    flag = ["--" + name.replace("_", "-"), flag_text]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({name: config_value}))
    with_config = ["--config", str(config)]
    parser = cli.build_parser()

    def resolved(argv):
        args = parser.parse_args(COMMANDS[command] + argv)
        return cli._options(args, TABLES[command])[name]

    assert resolved(flag + with_config) == from_flag
    assert resolved(with_config) == from_config
    assert resolved([]) == default
    if name == "seed":
        monkeypatch.setenv("RIESZ_MART_SEED", "11")
        assert resolved([]) == 11
        assert resolved(with_config) == from_config
        assert resolved(flag) == from_flag


def test_float_options_are_the_parent_list():
    assert float_options("verify") == ["p_min", "p_max", "tol_abs", "tol_rel"]
    assert float_options("simulate") == ["p", "gamma", "k", "amplitude", "constant", "epsilon"]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command in TABLES for name in float_options(command)],
)
def test_every_float_option_must_be_finite(command, name, form, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    if command == "verify":
        argv = ["verify", "--suite", "jensen", "--trials", "2", "--output", str(out / "r.json")]
    else:
        argv = ["simulate", "slln-n", "--n", "16", "--dim", "2", "--output-dir", str(out)]
    if form == "flag":
        argv += ["--" + name.replace("_", "-"), "nan"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({name: float("nan")}))  # the JSON token NaN
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["-1e-3", "-inf"])
@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command in TABLES for name in float_options(command)],
)
def test_a_negative_float_value_may_follow_its_flag_as_a_word(command, name, value, tmp_path, capsys):
    # argparse's own negative-number pattern has no exponent and no inf, so
    # "--tol-abs -1e-3" once exited 2 with "expected one argument".
    def run(words):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        if command == "verify":
            argv = ["verify", "--suite", "jensen", "--trials", "2", "--output", str(out / "r.json")]
        else:
            argv = ["simulate", "submartingale", "--n", "4", "--dim", "2", "--output-dir", str(out)]
        code = main(argv + words)
        files = {
            f.name: strip_elapsed(json.loads(f.read_text())) if f.suffix == ".json" else f.read_text()
            for f in out.iterdir()
        }
        return code, *capsys.readouterr(), files

    flag = "--" + name.replace("_", "-")
    word, joined = run([flag, value]), run([f"{flag}={value}"])
    assert word == joined
    assert "expected one argument" not in word[2]


def test_config_file_integers_for_float_options_echo_as_given(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"p_min": 2, "p_max": 3, "tol_abs": 0}))
    code, report = run_json(
        capsys, ["verify", "--suite", "jensen", "--trials", "3", "--config", str(config)]
    )
    assert code in (0, 1)
    assert json.dumps(report["config"]["p_min"]) == "2"
    assert json.dumps(report["config"]["p_max"]) == "3"
    assert json.dumps(report["config"]["tol"]["abs"]) == "0.0"


def test_constant_process_ignores_the_generator_amplitude(tmp_path):
    argv = ["simulate", "submartingale", "--constant", "1", "--amplitude", "-1", "--n", "16"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert main(["simulate", "slln-n", "--amplitude", "-1", "--n", "16",
                 "--output-dir", str(tmp_path / "mds")]) == 2


def help_flags(capsys, command):
    assert main([command, "-h"]) == 0
    return sorted(set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out)))


def test_help_lists_the_same_flags(capsys):
    assert help_flags(capsys, "verify") == [
        "--config", "--dim-max", "--format", "--help", "--horizon", "--output", "--p-max",
        "--p-min", "--seed", "--steps-max", "--suite", "--tol-abs", "--tol-rel", "--trials", "-h",
    ]
    assert help_flags(capsys, "simulate") == [
        "--a", "--amplitude", "--config", "--constant", "--dim", "--epsilon", "--gamma",
        "--help", "--k", "--n", "--output-dir", "--p", "--seed", "-h",
    ]


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("rieszmart ")]
    assert len(lines) == 7
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.command in ("verify", "simulate")


@pytest.mark.parametrize(
    "config, name",
    [
        ({"p_min": "2"}, "p_min"),
        ({"output": 5}, "output"),
        ({"suite": ["jensen"]}, "suite"),
        ({"p_max": True}, "p_max"),
        ({"p_min": [2]}, "p_min"),
        ({"format": 1}, "format"),
    ],
)
def test_config_values_of_the_wrong_json_type_are_usage_errors(config, name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    argv = ["verify", "--trials", "2", "--config", str(path)]
    if "suite" not in config:
        argv += ["--suite", "jensen"]
    if "output" not in config:
        argv += ["--output", str(out / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be a ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("name", ["tol_abs", "tol_rel", "p_min", "p_max"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_run_config_validate_owns_the_finite_rule_of_verify(name, bad):
    parser = cli.build_parser()
    args = parser.parse_args(["verify", f"--{name.replace('_', '-')}={bad}"])
    options = cli._options(args, cli.VERIFY_OPTIONS)  # the resolver leaves it to validate
    assert options[name] != options[name] or abs(options[name]) == float("inf")
    tol = {"abs": options.pop("tol_abs"), "rel": options.pop("tol_rel")}
    options["dim_max"] = 4
    with pytest.raises(cli.RieszmartError, match=f"{name} must be finite"):
        cli.RunConfig(tol=cli.Tolerance(**tol), **options).validate()


# --- exponents, tolerances and the generator guard ------------------------------


def test_holder_at_p_one_takes_q_infinity(capsys):
    # A drawn p of exactly 1 divided by p - 1 = 0 and escaped as a traceback.
    code, report = run_json(
        capsys, ["verify", "--suite", "holder", "--p-min", "1", "--p-max", "1", "--trials", "2"]
    )
    assert code == 0
    assert report["failure_count"] == 0


def test_ce_axioms_checks_at_the_configured_tolerance(capsys):
    from rieszmart import ConditionalExpectationOp, SampleSpace, Tolerance, verify_axioms
    from rieszmart.reports import VerificationReport
    from rieszmart.rng import SplitMix64, derive_seed
    from chains import random_partition

    argv = ["verify", "--suite", "ce-axioms", "--trials", "12", "--seed", "5", "--tol-abs=-1e-3"]
    code, report = run_json(capsys, argv)
    tol = Tolerance(abs=-1e-3)
    expected = VerificationReport(suite="ce-axioms", trials=12, seed=5, tol=tol)
    for t in range(12):
        stream = SplitMix64(derive_seed(5, "ce-axioms", t))
        dim = 1 + stream.below(16)
        if stream.next_float() < 0.5:
            space = SampleSpace.uniform(dim)
        else:
            space = SampleSpace(stream.uniforms(dim, 0.05, 1.0))
        op = ConditionalExpectationOp(random_partition(stream, space))
        expected.absorb(verify_axioms(op, 1, derive_seed(5, "ce-axioms-inner", t), tol), t, 5)
    assert code == 1 and report["failure_count"] == expected.failure_count > 0
    failures = [f.to_json_dict() for f in expected.failures]
    assert report["failures"] == json.loads(json.dumps(failures))


def tamper_block_weights(stages):
    """A block weight 1% off its atoms' weights breaks T_{i-1} Y_i = 0."""
    return ScaledStages(stages, np.full(int(stages.num_blocks.sum()), 1.01))


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "slln-n", "--dim", "4", "--n", "4"],
        ["verify", "--suite", "burkholder", "--trials", "3"],
        ["verify", "--suite", "hrc", "--trials", "3"],
    ],
)
def test_a_failing_generator_guard_exits_2(argv, tmp_path, monkeypatch, capsys):
    from rieszmart.conditional import Stages
    from rieszmart.errors import GeneratorResidual

    # default_filtration is the one-process case of Stages.split_chains.
    split_chains = Stages.split_chains
    monkeypatch.setattr(Stages, "split_chains", lambda *a: tamper_block_weights(split_chains(*a)))
    out = ["--output-dir", str(tmp_path)] if argv[0] == "simulate" else ["--output", str(tmp_path / "r.json")]
    assert main(argv + out) == 2
    err = capsys.readouterr().err
    assert re.search(r"^error: difference residual \S+ exceeds 1e-12 at step \d+\n\Z", err, re.M)
    assert not any(tmp_path.iterdir())
    assert issubclass(GeneratorResidual, AssertionError)  # what the guard raised before


@pytest.mark.parametrize(
    "argv, target",
    [
        (["verify", "--suite", "jensen", "--trials", "2", "--output"], "dir"),
        (["simulate", "slln-n", "--n", "4", "--dim", "4", "--output-dir"], "file"),
        (["verify", "--suite", "jensen", "--trials", "2", "--output"], "file/x.json"),
    ],
)
def test_an_unwritable_output_path_is_a_usage_error(argv, target, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    assert main(argv + [str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]
    assert (tmp_path / "file").read_text() == "kept"
