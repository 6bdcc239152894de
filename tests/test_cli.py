import csv
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from pythmod import cli
from pythmod.cli import SWEEP_COLUMNS, main
from pythmod.counting import CountConfig, _smoothed_triple_loop
from pythmod.padic import PrimePowerModulus
from pythmod.weights import gaussian


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("pythmod") / "schemas" / "run_record.schema.json"
    return json.loads(ref.read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert out == "" or (out.count("\n") == 1 and out.endswith("\n"))  # one JSON line
    record = json.loads(out) if out.strip() else None
    return code, record


def strip_volatile(record):
    """Drop wall-clock fields before comparing reruns."""
    clean = json.loads(json.dumps(record))
    clean["manifest"].pop("seconds", None)
    clean["result"].pop("seconds", None)
    return clean


def readme_commands():
    """The `pythmod ...` lines of the README's "Command line" code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pythmod ")]


def test_readme_commands_run(capsys, schema, monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHMOD_OUT_DIR", str(tmp_path))
    commands = readme_commands()
    assert len(commands) == 9
    for argv in commands:
        code, rec = run_cli(capsys, *argv)
        assert code == 0, argv
        jsonschema.validate(rec, schema)
        assert rec["manifest"]["subcommand"] == argv[0]
    assert (tmp_path / "sweep.csv").exists()


def test_param_subcommand(capsys, schema):
    code, rec = run_cli(capsys, "param", "--p", "7", "--n", "1")
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["admissible_t"] == [2, 3, 4, 5]
    assert rec["result"]["count"] == 4
    assert rec["manifest"]["subcommand"] == "param"
    assert rec["manifest"]["params"]["p"] == 7


def test_param_refuses_before_enumerating(capsys):
    # 7^11 admissible parameters would be about 1.1e9 Python ints
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["param", "--p", "7", "--n", "11"])
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: TooLarge") and captured.err.count("\n") == 1
    assert elapsed < 1 and peak < 2**20


def test_param_points_flag(capsys, schema):
    code, rec = run_cli(capsys, "param", "--p", "7", "--n", "1", "--points")
    assert code == 0
    jsonschema.validate(rec, schema)
    pts = {tuple(pair) for pair in rec["result"]["circle_points"]}
    sols = {tuple(pair) for pair in rec["result"]["circle_solutions"]}
    assert pts == sols == {(5, 5), (5, 2), (2, 5), (2, 2)}


def test_gauss_subcommand(capsys, schema):
    code, rec = run_cli(capsys, "gauss", "--q", "9")
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["closed"]["re"] == pytest.approx(3.0)
    assert rec["result"]["bruteforce"]["re"] == pytest.approx(3.0, abs=1e-9)
    assert rec["result"]["oracle_diff"] <= rec["result"]["tolerance"]


def test_poisson_subcommand(capsys, schema):
    code, rec = run_cli(capsys, "poisson", "--s", "1.0")
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["lhs"] == pytest.approx(1.0864348112, abs=1e-9)
    assert rec["result"]["diff"] <= 1e-12


def test_triples_subcommand(capsys, schema):
    code, rec = run_cli(capsys, "triples", "--N", "5")
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["count"] == 57


def test_transition_subcommand(capsys, schema):
    code, rec = run_cli(capsys, "transition", "--p", "7", "--n", "6", "--N", "50")
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["equal"] is True
    assert rec["result"]["congruence_count"] == rec["result"]["equation_count"] == 240


def test_transition_range_violation(capsys):
    code, _ = run_cli(capsys, "transition", "--p", "7", "--n", "2", "--N", "10")
    assert code == 2


def test_count_subcommand(capsys, schema, tmp_path):
    out = tmp_path / "report.json"
    code, rec = run_cli(
        capsys, "count", "--p", "7", "--n", "1", "--N", "3",
        "--phi-scale", "2", "--exact", "--out", str(out),
    )
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["cutoff"] == 7.0
    assert rec["result"]["exact_box_count"] is not None
    on_disk = json.loads(out.read_text())
    assert on_disk == rec


def test_count_small_prime_exit_2(capsys):
    code, _ = run_cli(capsys, "count", "--p", "5", "--n", "3", "--N", "100")
    assert code == 2


@pytest.mark.parametrize("N", ["inf", "nan", "1e12"])
def test_count_rejects_nonfinite_and_huge_boxes(capsys, N):
    code = main(["count", "--p", "7", "--n", "2", "--N", N])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--p", "7", "--n", "2", "--N", "5", "--phi-scale", "nan"],
        ["count", "--p", "7", "--n", "2", "--N", "5", "--phi-scale", "inf"],
        ["poisson", "--s", "nan"],
        ["poisson", "--s", "inf"],
        ["poisson", "--s", "1e8"],
        ["count", "--p", "7", "--n", "9", "--N", "142857", "--exact"],
        ["poisson", "--s", "1e-300"],  # at or below the series tolerance 1e-15
        # s^3 underflows: the main term the ratio divides by would be 0
        ["count", "--p", "7", "--n", "3", "--N", "10", "--phi-scale", "1e-200"],
        ["count", "--p", "7", "--n", "3", "--N", "10", "--phi-scale", "1e-300"],
        ["scan", "--p", "7", "--n", "2..3", "--nu", "0.7", "--phi-scale", "1e-300"],
    ],
)
def test_rejects_bad_scales_and_costly_sums(capsys, argv):
    # the last box passes the box gate, but its square classes would need
    # about 1.5e10 class pairs: minutes of gathers
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert elapsed < 1


def test_count_bucket_gate_refuses_before_allocating(capsys):
    # 7^10 is above the bucket-table bound 2^26: the table alone would be 2.3 GB
    tracemalloc.start()
    try:
        code = main(["count", "--p", "7", "--n", "10", "--N", "5"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: TooLarge") and captured.err.count("\n") == 1
    assert "bucket-table bound" in captured.err
    assert peak < 2**20


def test_count_cross_method_agreement(capsys):
    _, rec = run_cli(capsys, "count", "--p", "7", "--n", "1", "--N", "3", "--phi-scale", "2")
    cfg = CountConfig(PrimePowerModulus(7, 1), 3.0, gaussian(2.0))
    assert rec["result"]["measured_T"] == pytest.approx(_smoothed_triple_loop(cfg), rel=1e-9)


def test_missing_flag_exit_2(capsys):
    assert main(["count", "--p", "7", "--n", "1"]) == 2
    assert main(["expsum", "--p", "7", "--n", "3"]) == 2
    capsys.readouterr()


def test_expsum_both_modes(capsys, schema):
    code, rec = run_cli(
        capsys, "expsum", "--p", "7", "--n", "4", "--k1", "3", "--k2", "4",
        "--x3", "1", "--mode", "both",
    )
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["oracle_diff"] <= rec["result"]["tolerance"]
    assert rec["result"]["bruteforce"]["abs"] == pytest.approx(97.99161109, abs=1e-6)


def test_expsum_vanishing(capsys):
    code, rec = run_cli(
        capsys, "expsum", "--p", "7", "--n", "3", "--k1", "1", "--k2", "2", "--x3", "1",
    )
    assert code == 0
    assert rec["result"]["closed"]["abs"] == 0
    assert rec["result"]["bruteforce"]["abs"] <= 1e-7


def test_expsum_route_disagreement_exits_3(capsys, schema, monkeypatch):
    real = cli.circle_exponential_sum

    def skewed(spec, mode="bruteforce"):
        brute = real(spec, "bruteforce")
        return brute + 1 if mode == "closed" else brute

    monkeypatch.setattr(cli, "circle_exponential_sum", skewed)
    code, rec = run_cli(
        capsys, "expsum", "--p", "7", "--n", "4", "--k1", "3", "--k2", "4",
        "--x3", "1", "--mode", "both",
    )
    assert code == 3
    jsonschema.validate(rec, schema)
    assert rec["result"]["oracle_diff"] > rec["result"]["tolerance"]
    assert rec["result"]["oracle_diff"] == pytest.approx(1.0)


def test_expsum_alpha_record(capsys, schema):
    code, rec = run_cli(
        capsys, "expsum", "--p", "7", "--n", "4", "--k1", "3", "--k2", "4",
        "--x3", "1", "--alpha", "5", "--mode", "both",
    )
    assert code == 0
    jsonschema.validate(rec, schema)
    assert rec["result"]["bruteforce"]["abs"] == pytest.approx(49.0, abs=1e-6)


def test_expsum_hypothesis_violation_is_structured(capsys, schema):
    code, rec = run_cli(
        capsys, "expsum", "--p", "7", "--n", "3", "--k1", "49", "--k2", "98",
        "--x3", "1", "--mode", "closed",
    )
    assert code == 0  # refusal is an expected outcome, not a crash
    jsonschema.validate(rec, schema)
    assert rec["result"]["error"]["type"] == "HypothesisViolated"


def test_scan_csv(capsys, schema, tmp_path):
    out = tmp_path / "sweep.csv"
    code, rec = run_cli(
        capsys, "scan", "--p", "7", "--n", "1..3", "--nu", "0.7", "--out", str(out),
    )
    assert code == 0
    jsonschema.validate(rec, schema)
    assert len(rec["result"]["rows"]) == 3
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 4
    assert [r[1] for r in rows[1:]] == ["1", "2", "3"]
    # N = ceil(q^0.7) per row
    assert int(float(rows[1][3])) == math_ceil_pow(7, 1, 0.7)
    assert int(float(rows[3][3])) == math_ceil_pow(7, 3, 0.7)
    text = (tmp_path / "sweep.csv.manifest.json").read_text()
    assert text.count("\n") == 1
    sidecar = json.loads(text)
    assert sidecar["subcommand"] == "scan"
    assert sidecar["params"]["p"] == 7


def math_ceil_pow(p, n, nu):
    import math

    return math.ceil((p**n) ** nu)


def test_scan_requires_target(capsys):
    assert main(["scan", "--p", "7", "--n", "1..2"]) == 2
    capsys.readouterr()


def test_scan_empty_range_exit_2(capsys):
    assert main(["scan", "--p", "7", "--n", "3..1", "--nu", "0.7"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "1..3:0", "--nu", "0.7"], "step 0 must be positive"),
        (["--n", "2", "--N-range", "15..5"], "empty N range"),
    ],
)
def test_scan_refuses_zero_step_and_empty_N_range(capsys, argv, message):
    code = main(["scan", "--p", "7", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("nu", ["inf", "1e10", "nan"])
def test_scan_rejects_nonfinite_and_overflowing_nu(capsys, nu):
    code = main(["scan", "--p", "7", "--n", "2", "--nu", nu])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["count", "--p", "7", "--n", "3", "--N", "10"], "x.json"),
        (["scan", "--p", "7", "--n", "2..3", "--nu", "0.7"], "x.csv"),
    ],
)
def test_out_into_a_missing_directory_exits_2(capsys, tmp_path, argv, name):
    missing = tmp_path / "missing"
    code = main([*argv, "--out", str(missing / name)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: FileNotFoundError") and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert not missing.exists()


KERNEL_RUNS = [
    (["count", "--p", "7", "--n", "3", "--N", "10"], "count_smoothed"),
    (["scan", "--p", "7", "--n", "2..3", "--nu", "0.7"], "count_smoothed"),
    (["expsum", "--p", "7", "--n", "3", "--k1", "1", "--k2", "2", "--x3", "3"],
     "circle_exponential_sum"),
]


def _refuse_kernel(monkeypatch, kernel):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{kernel} ran before --out was checked")

    monkeypatch.setattr(cli, kernel, refuse)


@pytest.mark.parametrize("argv, kernel", KERNEL_RUNS)
def test_out_directory_is_checked_before_the_work(monkeypatch, capsys, tmp_path, argv, kernel):
    _refuse_kernel(monkeypatch, kernel)
    code = main([*argv, "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: FileNotFoundError") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, kernel", KERNEL_RUNS)
def test_out_that_is_a_directory_is_refused_before_the_work(
    monkeypatch, capsys, tmp_path, argv, kernel
):
    _refuse_kernel(monkeypatch, kernel)
    code = main([*argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: IsADirectoryError") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert not (tmp_path.parent / (tmp_path.name + ".manifest.json")).exists()


@pytest.mark.parametrize("argv, kernel", KERNEL_RUNS)
def test_out_in_an_unwritable_directory_is_refused_before_the_work(
    monkeypatch, capsys, tmp_path, argv, kernel
):
    # root may write anywhere, so the test stands in for os.access
    _refuse_kernel(monkeypatch, kernel)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code = main([*argv, "--out", str(tmp_path / "x.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: PermissionError") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_scan_n_range_with_N_range(capsys):
    code, rec = run_cli(
        capsys, "scan", "--p", "7", "--n", "2", "--N-range", "5..15:5",
    )
    assert code == 0
    assert [row["N"] for row in rec["result"]["rows"]] == [5.0, 10.0, 15.0]


def test_determinism_across_reruns(capsys):
    _, rec1 = run_cli(capsys, "count", "--p", "7", "--n", "2", "--N", "12")
    _, rec2 = run_cli(capsys, "count", "--p", "7", "--n", "2", "--N", "12")
    assert strip_volatile(rec1) == strip_volatile(rec2)


def test_out_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHMOD_OUT_DIR", str(tmp_path))
    code, rec = run_cli(capsys, "gauss", "--q", "9", "--out", "gauss.json")
    assert code == 0
    assert (tmp_path / "gauss.json").exists()
    assert rec["manifest"]["out"] == str(tmp_path / "gauss.json")


def test_one_parser_serves_successive_calls(capsys, tmp_path, monkeypatch):
    # the parser is built once per process: parses must not leak into each
    # other, and --out resolves against $PYTHMOD_OUT_DIR as it is at each call
    code, rec = run_cli(capsys, "gauss", "--q", "9")
    assert code == 0 and rec["manifest"]["params"] == {"q": 9, "out": None, "subcommand": "gauss"}
    code, rec = run_cli(capsys, "triples", "--N", "5")
    assert code == 0 and rec["result"]["count"] == 57
    assert rec["manifest"]["params"] == {"N": 5, "out": None, "subcommand": "triples"}
    for name in ("a", "b"):
        monkeypatch.setenv("PYTHMOD_OUT_DIR", str(tmp_path / name))
        (tmp_path / name).mkdir()
        code, rec = run_cli(capsys, "gauss", "--q", "9", "--out", "g.json")
        assert code == 0 and rec["manifest"]["out"] == str(tmp_path / name / "g.json")
        assert (tmp_path / name / "g.json").exists()


def test_readme_command_line_examples(capsys, tmp_path, monkeypatch):
    """Every `pythmod ...` line of README's "Command line" block exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pythmod ")]
    assert len(commands) == 9
    monkeypatch.setenv("PYTHMOD_OUT_DIR", str(tmp_path))
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


# one op of each CLI kind that perfbench runs
PERFBENCH_OPS = [
    ["count", "--p", "7", "--n", "4", "--N", "300"],
    ["scan", "--p", "7", "--n", "4..5", "--nu", "0.7", "--out", "scan.csv"],
    ["transition", "--p", "13", "--n", "4", "--N", "100"],
    ["triples", "--N", "10000"],
    ["expsum", "--p", "7", "--n", "5", "--k1", "3", "--k2", "4", "--x3", "1",
     "--mode", "both", "--alpha", "2"],
    ["expsum", "--p", "7", "--n", "5", "--k1", "3", "--k2", "4", "--x3", "1", "--mode", "both"],
]


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


def test_one_parse_gives_the_root_parsers_record(capsys, tmp_path, monkeypatch):
    # main parses argv[1:] with the subcommand's own parser; the root parser's
    # full parse of the same argv must give the same namespace and record
    monkeypatch.setenv("PYTHMOD_OUT_DIR", str(tmp_path))
    root, _ = cli.build_parser()
    for argv in readme_commands() + PERFBENCH_OPS:
        args = root.parse_args(argv)
        assert args.func(args, time.perf_counter()) == 0, argv
        want = capsys.readouterr().out
        assert main(argv) == 0, argv
        got = capsys.readouterr().out
        assert got.count("\n") == 1 and got.endswith("\n"), argv
        assert without_seconds(json.loads(got)) == without_seconds(json.loads(want)), argv


@pytest.mark.parametrize(
    "argv,code", [([], 2), (["nosuch"], 2), (["--version"], 0), (["count", "--help"], 0)]
)
def test_arguments_without_a_run_exit_as_before(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.splitlines()[-1].startswith("pythmod: error: ")


def test_unrecognized_arguments_are_the_root_parsers_error(capsys):
    assert main(["count", "--p", "7", "--n", "4", "--N", "300", "--bogus", "z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "pythmod: error: unrecognized arguments: --bogus z"
    assert main(["count", "--p", "x", "--n", "4", "--N", "300"]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == "pythmod count: error: argument --p: invalid int value: 'x'"


def test_known_subcommand_skips_the_root_parse(capsys, monkeypatch):
    root, _ = cli.build_parser()
    calls = []
    real = root.parse_args

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(root, "parse_args", recorded)
    for argv in readme_commands()[2:4] + PERFBENCH_OPS[:1]:
        main(argv)
    assert calls == []
    assert main(["--version"]) == 0 and len(calls) == 1
    capsys.readouterr()


def test_python_m_pythmod_prints_one_record_line(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHMOD_OUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pythmod", "count", "--p", "7", "--n", "5", "--N", "912"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert record["manifest"]["subcommand"] == "count"
    assert record["result"]["q"] == 7**5 and record["result"]["ratio"] == pytest.approx(1.0)

