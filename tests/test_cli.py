"""Command-line surface: formats, golden lines, exit codes, determinism,
and the modules each command (or ``import ksetfix``) loads."""

import hashlib

import pytest
from click.testing import CliRunner

from ksetfix.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_limit_k4(runner):
    result = runner.invoke(main, ["limit", "--k", "4", "--digits", "8"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "k = 4" in lines
    assert "i_inf = 0.46955773" in lines
    assert "p_inf = 0.53044227" in lines
    assert "rows = 8" in lines
    assert any(line.startswith("pruned_divisibility = ") for line in lines)


def test_limit_k1(runner):
    result = runner.invoke(main, ["limit", "--k", "1"])
    assert result.exit_code == 0
    assert "i_inf = 0.63212056" in result.output
    assert "rows = 1" in result.output


def test_limit_emit_rows(runner, tmp_path):
    path = tmp_path / "rows.csv"
    result = runner.invoke(
        main, ["limit", "--k", "4", "--emit-rows", str(path)]
    )
    assert result.exit_code == 0
    assert path.read_text() == (
        "3,0,0\n2,0,0\n1,1,0\n1,0,0\n0,1,1\n0,1,0\n0,0,1\n0,0,0\n"
    )


@pytest.mark.parametrize("k", [1, 7, 12, 16])
def test_limit_counters_same_with_emit_rows(runner, tmp_path, k):
    # --emit-rows walks the rows; without it the table counts them
    args = ["limit", "--k", str(k)]
    counted = runner.invoke(main, args)
    walked = runner.invoke(main, args + ["--emit-rows", str(tmp_path / "rows.csv")])
    assert counted.exit_code == walked.exit_code == 0
    assert counted.output == walked.output


def test_limit_k22_fifty_digits(runner):
    # the benchmark's limit_deep output, pinned line for line
    result = runner.invoke(main, ["limit", "--k", "22", "--digits", "50"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "k = 22",
        "i_inf = 0.31449861822571299565946564534400799367723201146434",
        "p_inf = 0.68550138177428700434053435465599200632276798853566",
        "rows = 216928",
        "partials_considered = 508012",
        "pruned_universal = 39280",
        "pruned_divisibility = 3150",
        "full_tests = 465582",
    ]


def test_limit_table_k6(runner):
    result = runner.invoke(main, ["limit-table", "--k-max", "6"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "k,i_inf,rows"
    assert len(lines) == 7
    assert lines[-1] == "6,0.42505870,29"


def test_limit_table_k1(runner):
    result = runner.invoke(main, ["limit-table", "--k-max", "1"])
    assert result.output.splitlines() == ["k,i_inf,rows", "1,0.63212056,1"]


def test_finite_table_long_format(runner):
    result = runner.invoke(
        main, ["finite-table", "--n-max", "5", "--k-max", "2"]
    )
    lines = result.output.splitlines()
    assert lines[0] == "n,k,value"
    assert "5,2,0.55000" in lines
    assert "4,2,0.41667" in lines


def test_finite_table_survival_variant(runner):
    result = runner.invoke(
        main, ["finite-table", "--n-max", "3", "--which", "p"]
    )
    assert "3,1,0.33333" in result.output.splitlines()


def test_finite_table_wide(runner):
    result = runner.invoke(main, ["finite-table", "--n-max", "6", "--wide"])
    lines = result.output.splitlines()
    assert lines[0].lstrip().startswith("n\\k")
    assert any(line.lstrip().startswith("6") and "0.36250" in line for line in lines)


def test_exceptions_output(runner):
    result = runner.invoke(main, ["exceptions", "--n-max", "36"])
    assert result.output == "30,9\n36,11\n"
    empty = runner.invoke(main, ["exceptions", "--n-max", "20"])
    assert empty.output == ""
    assert empty.exit_code == 0


def test_ratio_smallest_range(runner):
    result = runner.invoke(main, ["ratio", "--k-max", "2"])
    lines = result.output.splitlines()
    assert lines == ["k,ratio", "2,0.33919847"]


RATIO_K30_D8 = """k,ratio
2,0.33919847
3,0.62852883
4,0.86355954
5,1.03528929
6,1.18944671
7,1.31097644
8,1.42476890
9,1.51562153
10,1.60541992
11,1.67845304
12,1.75223516
13,1.81322541
14,1.87537090
15,1.92731923
16,1.98142767
17,2.02644462
18,2.07381295
19,2.11392241
20,2.15615188
21,2.19193947
22,2.23007929
23,2.26240691
24,2.29712683
25,2.32665690
26,2.35836321
27,2.38550565
28,2.41486068
29,2.43985146
30,2.46702244
"""


def test_ratio_output_pinned(runner):
    # every k of the paper's range k <= 30; the tests above stop at k = 2
    result = runner.invoke(main, ["ratio", "--k-max", "30", "--digits", "8"])
    assert result.exit_code == 0
    assert result.output == RATIO_K30_D8


# SHA-256 of the stdout of limit-table and ratio at --k-max 30, then
# decay_exponent, for every --digits 1..50 in turn
SWEEP_DIGEST = "9da5a99fa9b5884f57b9d99571aa55f7a376ad7276ac95911e0bac06a64f1da4"


@pytest.mark.longrun
def test_digits_sweep_digest(runner):
    # a change of the evaluators that keeps every printed byte keeps this
    from ksetfix.limits import decay_exponent

    digest = hashlib.sha256()
    for digits in range(1, 51):
        for command in ("limit-table", "ratio"):
            result = runner.invoke(
                main, [command, "--k-max", "30", "--digits", str(digits)]
            )
            assert result.exit_code == 0
            digest.update(result.output.encode())
        digest.update(f"{decay_exponent(digits)}\n".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_mc_limit_reproducible(runner):
    args = ["mc", "--k", "4", "--samples", "2000", "--seed", "11"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert first.output.startswith("survival(k=4) = ")
    assert "(samples=2000, seed=11)" in first.output


def test_mc_finite_mode(runner):
    result = runner.invoke(
        main, ["mc", "--n", "6", "--k", "3", "--samples", "1000", "--seed", "3"]
    )
    assert result.exit_code == 0
    assert result.output.startswith("fix(n=6, k=3) = ")


# stdout of the samplers as first recorded, when they still built each
# drawn vector and called is_k_free on it
MC_PINNED = {
    ("--k", "10"): "survival(k=10) = 0.614000 +/- 0.003442 (samples=20000, seed=1)\n",
    ("--n", "50", "--k", "20"): (
        "fix(n=50, k=20) = 0.318400 +/- 0.003294 (samples=20000, seed=1)\n"
    ),
}


@pytest.mark.parametrize("model", list(MC_PINNED), ids=["limit", "finite"])
def test_mc_output_pinned(runner, model):
    result = runner.invoke(main, ["mc", *model, "--samples", "20000", "--seed", "1"])
    assert result.exit_code == 0
    assert result.output == MC_PINNED[model]


def test_usage_errors_exit_two(runner):
    assert runner.invoke(main, ["limit", "--k", "0"]).exit_code == 2
    assert runner.invoke(main, ["limit", "--k", "4", "--digits", "51"]).exit_code == 2
    assert runner.invoke(main, ["mc", "--k", "2", "--samples", "0"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["mc", "--n", "3", "--k", "5", "--samples", "10"]
        ).exit_code
        == 2
    )
    assert runner.invoke(main, ["exceptions", "--n-max", "3"]).exit_code == 2
    assert runner.invoke(main, ["ratio", "--k-max", "1"]).exit_code == 2


# each exits 2 before any engine runs; DIR stands for an existing directory
USAGE_ERRORS = {
    "output-is-directory": (["limit-table", "--k-max", "2", "--output", "DIR"], {}),
    "emit-rows-is-directory": (["limit", "--k", "3", "--emit-rows", "DIR"], {}),
    "jobs-env-out-of-range": (["limit-table", "--k-max", "2"], {"KSETFIX_JOBS": "0"}),
    "no-command": ([], {}),
    "unknown-command": (["no-such-command"], {}),
    # a prefix of --k-max is not accepted as --k-max
    "abbreviated-option": (["finite-table", "--n-max", "10", "--k", "3"], {}),
    "bad-choice": (["finite-table", "--n-max", "6", "--which", "x"], {}),
    "missing-required": (["limit-table"], {}),
    "not-an-integer": (["limit", "--k", "x"], {}),
    "extra-argument": (["limit", "--k", "4", "extra"], {}),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_cases_exit_two(runner, tmp_path, case):
    args, env = USAGE_ERRORS[case]
    args = [str(tmp_path) if arg == "DIR" else arg for arg in args]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""


# every option of each command, with the default its help page shows
COMMAND_OPTIONS = {
    "limit": {"--k": None, "--digits": "8", "--emit-rows": None, "--jobs": "1"},
    "limit-table": {"--k-max": None, "--digits": "8", "--output": None, "--jobs": "1"},
    "finite-table": {
        "--n-max": None, "--k-max": "35", "--digits": "5", "--which": "i",
        "--wide": None, "--output": None, "--jobs": "1",
    },
    "exceptions": {"--n-max": None, "--output": None},
    "ratio": {"--k-max": None, "--digits": "8", "--output": None, "--jobs": "1"},
    "mc": {"--k": None, "--n": None, "--samples": None, "--seed": "0"},
}


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_names_every_option_and_default(runner, command):
    result = runner.invoke(main, [command, "--help"], env={"KSETFIX_JOBS": None})
    assert result.exit_code == 0
    words = result.stdout.split()
    text = " ".join(words)
    for option, default in COMMAND_OPTIONS[command].items():
        assert option in words, option
        if default is not None:
            assert f"default: {default}" in text, option


def test_output_flag_writes_lf_file(runner, tmp_path):
    path = tmp_path / "table.csv"
    result = runner.invoke(
        main, ["limit-table", "--k-max", "3", "--output", str(path)]
    )
    assert result.exit_code == 0
    assert result.output == ""
    data = path.read_bytes()
    assert data == b"k,i_inf,rows\n1,0.63212056,1\n2,0.55373968,2\n3,0.49658324,4\n"


def test_jobs_flag_byte_identical(runner, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    runner.invoke(main, ["limit-table", "--k-max", "7", "--output", str(serial)])
    runner.invoke(
        main,
        ["limit-table", "--k-max", "7", "--jobs", "2", "--output", str(parallel)],
    )
    assert serial.read_bytes() == parallel.read_bytes()


def test_internal_invariant_maps_to_exit_three(monkeypatch):
    import sys

    from ksetfix import cli, limits

    def broken(k):
        raise AssertionError("forced for the exit-code test")

    monkeypatch.setattr(limits, "limiting_survival_with_stats", broken)
    monkeypatch.setattr(sys, "argv", ["ksetfix", "limit", "--k", "3"])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 3


def run_script(script, *argv, flags=()):
    """Run ``script`` in a fresh interpreter that imports this ksetfix."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ksetfix

    src = str(Path(ksetfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


def run_with_broken_guard(*args):
    """Run the CLI under python -O with evaluate's guard digits negative."""
    script = (
        "import sys\n"
        "from ksetfix import cli, limits\n"
        "limits._EVAL_GUARD = -10\n"
        "sys.argv = ['ksetfix', *sys.argv[1:]]\n"
        "cli.run()\n"
    )
    return run_script(script, *args, flags=("-O",))


def test_invariant_checks_survive_optimize_flag():
    # python -O strips assert statements; the certificate check must still
    # fire, and the CLI must still map it to exit code 3
    proc = run_with_broken_guard("limit", "--k", "3")
    assert proc.returncode == 3, proc.stderr
    assert "error budget" in proc.stderr


def test_ratio_budget_check_survives_optimize_flag():
    # efg_ratio takes its working precision from the same checked rule
    proc = run_with_broken_guard("ratio", "--k-max", "3")
    assert proc.returncode == 3, proc.stderr
    assert "error budget" in proc.stderr


def test_closed_stdout_exits_one_without_traceback():
    # a reader that leaves early (``ksetfix ... | head``) gets exit 1 and a
    # quiet stderr, buffered stdout or not
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ksetfix

    src = str(Path(ksetfix.__file__).resolve().parent.parent)
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-m", "ksetfix.cli", "limit-table", "--k-max", "3"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1, err
        assert err == b""


# the ksetfix modules a fresh interpreter holds after one command; each
# command imports only its own engine, and --help imports none
BASE_MODULES = {"ksetfix", "ksetfix.cli"}
COMMAND_MODULES = {
    "help": (["limit-table", "--help"], set()),
    "mc": (["mc", "--k", "3", "--samples", "10"], {"montecarlo", "partitions"}),
    "finite-table": (
        ["finite-table", "--n-max", "6"], {"finite", "precision", "partitions"}
    ),
    "limit": (
        ["limit", "--k", "3"],
        {"limits", "table", "exppoly", "precision", "partitions"},
    ),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_imports_only_its_engine(command):
    args, engine = COMMAND_MODULES[command]
    script = (
        "import sys\n"
        "from ksetfix import cli\n"
        "sys.argv = ['ksetfix', *sys.argv[1:]]\n"
        "try:\n"
        "    cli.run()\n"
        "finally:\n"
        "    print(*sorted(m for m in sys.modules if m.startswith('ksetfix')\n"
        "                  or m in ('decimal', 'fractions', 'click')))\n"
    )
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    want = BASE_MODULES | {"ksetfix." + name for name in engine}
    assert {m for m in loaded if m.startswith("ksetfix")} == want
    # the CLI parses with the standard library alone
    assert "click" not in loaded
    if command == "mc":
        # the samplers use floats only
        assert not loaded & {"decimal", "fractions"}


def test_package_names_resolve_lazily():
    script = (
        "import sys\n"
        "import ksetfix\n"
        "def loaded():\n"
        "    print(*sorted(m for m in sys.modules if m.startswith('ksetfix')))\n"
        "loaded()\n"
        "ksetfix.is_k_free\n"
        "loaded()\n"
    )
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ksetfix", "ksetfix ksetfix.partitions"]

    import ksetfix

    for name in ksetfix.__all__:
        assert getattr(ksetfix, name).__module__.startswith("ksetfix."), name
    with pytest.raises(AttributeError):
        ksetfix.no_such_name


def test_csv_digits_consistent_with_higher_precision(runner):
    # D-place CSV values must equal the (D+10)-place library values
    # rounded back to D places
    from ksetfix.limits import evaluate, limiting_survival
    from ksetfix.precision import round_scaled

    from reference_data import poly_one, poly_sub

    result = runner.invoke(main, ["limit-table", "--k-max", "5", "--digits", "8"])
    for line in result.output.splitlines()[1:]:
        k, value, _ = line.split(",")
        fine = evaluate(poly_sub(poly_one(), limiting_survival(int(k))), 18)
        assert round_scaled(fine.scaled, 18, 8) == int(value.replace(".", ""))


def test_jobs_env_variable(runner, tmp_path):
    out = tmp_path / "env.csv"
    result = runner.invoke(
        main,
        ["finite-table", "--n-max", "8", "--output", str(out)],
        env={"KSETFIX_JOBS": "2"},
    )
    assert result.exit_code == 0
    base = runner.invoke(main, ["finite-table", "--n-max", "8"])
    assert out.read_text() == base.output
