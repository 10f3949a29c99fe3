"""End-to-end tests of the command-line interface."""

import json

import pytest

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


def test_simulate_rejects_bad_sizes(tmp_path):
    assert main(["simulate", "slln-n", "--n", "0", "--output-dir", str(tmp_path)]) == 2
    assert main(["simulate", "slln-n", "--dim", "0", "--output-dir", str(tmp_path)]) == 2


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
