"""Command-line surface: formats, golden lines, exit codes, determinism,
and the modules each command (or ``import ksetfix``) loads.

Commands run in process through ``reference_data.run_cli``; the checks
of exit code 3, of a closed stdout and of the loaded modules launch a
fresh interpreter instead."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reference_data import descend_walk, poly_one, poly_sub, run_cli


def test_limit_k4():
    code, out = run_cli("limit", "--k", "4", "--digits", "8")
    assert code == 0
    lines = out.splitlines()
    assert "k = 4" in lines
    assert "i_inf = 0.46955773" in lines
    assert "p_inf = 0.53044227" in lines
    assert "rows = 8" in lines
    assert any(line.startswith("pruned_divisibility = ") for line in lines)


def test_limit_k1():
    code, out = run_cli("limit", "--k", "1")
    assert code == 0
    assert "i_inf = 0.63212056" in out
    assert "rows = 1" in out


def test_limit_emit_rows(tmp_path):
    path = tmp_path / "rows.csv"
    code, _ = run_cli("limit", "--k", "4", "--emit-rows", str(path))
    assert code == 0
    assert path.read_text() == (
        "3,0,0\n2,0,0\n1,1,0\n1,0,0\n0,1,1\n0,1,0\n0,0,1\n0,0,0\n"
    )


@pytest.mark.parametrize("k", [1, 2, 3, 7, 12, 16])
def test_limit_counters_same_with_emit_rows(tmp_path, k):
    # --emit-rows walks the rows apart from the counting programme; the
    # counters and the rows are those of the prefix walk
    path = tmp_path / "rows.csv"
    args = ["limit", "--k", str(k)]
    counted = run_cli(*args)
    emitted = run_cli(*args, "--emit-rows", str(path))
    assert counted[0] == emitted[0] == 0
    assert counted[1] == emitted[1]
    walked = []
    descend_walk(k, lambda row: walked.append(",".join(map(str, row)) + "\n"))
    assert path.read_text() == "".join(walked)


def test_limit_k22_fifty_digits():
    # the benchmark's limit_deep output, pinned line for line
    code, out = run_cli("limit", "--k", "22", "--digits", "50")
    assert code == 0
    assert out.splitlines() == [
        "k = 22",
        "i_inf = 0.31449861822571299565946564534400799367723201146434",
        "p_inf = 0.68550138177428700434053435465599200632276798853566",
        "rows = 216928",
        "partials_considered = 508012",
        "pruned_universal = 39280",
        "pruned_divisibility = 3150",
        "full_tests = 465582",
    ]


def test_limit_table_k6():
    code, out = run_cli("limit-table", "--k-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,i_inf,rows"
    assert len(lines) == 7
    assert lines[-1] == "6,0.42505870,29"


def test_limit_table_k1():
    _, out = run_cli("limit-table", "--k-max", "1")
    assert out.splitlines() == ["k,i_inf,rows", "1,0.63212056,1"]


def test_finite_table_long_format():
    _, out = run_cli("finite-table", "--n-max", "5", "--k-max", "2")
    lines = out.splitlines()
    assert lines[0] == "n,k,value"
    assert "5,2,0.55000" in lines
    assert "4,2,0.41667" in lines


def test_finite_table_survival_variant():
    _, out = run_cli("finite-table", "--n-max", "3", "--which", "p")
    assert "3,1,0.33333" in out.splitlines()


def test_finite_table_wide():
    _, out = run_cli("finite-table", "--n-max", "6", "--wide")
    lines = out.splitlines()
    assert lines[0].lstrip().startswith("n\\k")
    assert any(line.lstrip().startswith("6") and "0.36250" in line for line in lines)


# the --wide matrix as first pinned: rows for small n are ragged and
# padded with spaces to the full width
WIDE_PINNED = {
    ("--n-max", "9"): [
        " n\\k       1       2       3       4",
        "   2 0.50000                        ",
        "   3 0.66667                        ",
        "   4 0.62500 0.41667                ",
        "   5 0.63333 0.55000                ",
        "   6 0.63194 0.57778 0.36250        ",
        "   7 0.63214 0.55159 0.49048        ",
        "   8 0.63212 0.55089 0.50037 0.33770",
        "   9 0.63212 0.55424 0.51478 0.44819",
    ],
    ("--n-max", "20", "--k-max", "3", "--digits", "2", "--which", "p"): [
        " n\\k    1    2    3",
        "   2 0.50          ",
        "   3 0.33          ",
        "   4 0.38 0.58     ",
        "   5 0.37 0.45     ",
        "   6 0.37 0.42 0.64",
        "   7 0.37 0.45 0.51",
        "   8 0.37 0.45 0.50",
        "   9 0.37 0.45 0.49",
        "  10 0.37 0.45 0.51",
        "  11 0.37 0.45 0.50",
        "  12 0.37 0.45 0.50",
        "  13 0.37 0.45 0.50",
        "  14 0.37 0.45 0.50",
        "  15 0.37 0.45 0.50",
        "  16 0.37 0.45 0.50",
        "  17 0.37 0.45 0.50",
        "  18 0.37 0.45 0.50",
        "  19 0.37 0.45 0.50",
        "  20 0.37 0.45 0.50",
    ],
}


@pytest.mark.parametrize("options", list(WIDE_PINNED), ids=["n9", "n20-k3-p"])
def test_finite_table_wide_pinned(options):
    code, out = run_cli("finite-table", *options, "--wide")
    assert code == 0
    assert out == "".join(line + "\n" for line in WIDE_PINNED[options])


def test_exceptions_output():
    _, out = run_cli("exceptions", "--n-max", "36")
    assert out == "30,9\n36,11\n"
    code, empty = run_cli("exceptions", "--n-max", "20")
    assert empty == ""
    assert code == 0


def test_ratio_smallest_range():
    _, out = run_cli("ratio", "--k-max", "2")
    lines = out.splitlines()
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


def test_ratio_output_pinned():
    # every k of the paper's range k <= 30; the tests above stop at k = 2
    code, out = run_cli("ratio", "--k-max", "30", "--digits", "8")
    assert code == 0
    assert out == RATIO_K30_D8


# SHA-256 of the stdout of limit-table and ratio at --k-max 30, then
# decay_exponent, for every --digits 1..50 in turn
SWEEP_DIGEST = "9da5a99fa9b5884f57b9d99571aa55f7a376ad7276ac95911e0bac06a64f1da4"


@pytest.mark.longrun
def test_digits_sweep_digest():
    # a change of the evaluators that keeps every printed byte keeps this
    from ksetfix.limits import decay_exponent

    digest = hashlib.sha256()
    for digits in range(1, 51):
        for command in ("limit-table", "ratio"):
            code, out = run_cli(command, "--k-max", "30", "--digits", str(digits))
            assert code == 0
            digest.update(out.encode())
        digest.update(f"{decay_exponent(digits)}\n".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_mc_limit_reproducible():
    args = ["mc", "--k", "4", "--samples", "2000", "--seed", "11"]
    code, first = run_cli(*args)
    _, second = run_cli(*args)
    assert code == 0
    assert first == second
    assert first.startswith("survival(k=4) = ")
    assert "(samples=2000, seed=11)" in first


def test_mc_finite_mode():
    code, out = run_cli("mc", "--n", "6", "--k", "3", "--samples", "1000", "--seed", "3")
    assert code == 0
    assert out.startswith("fix(n=6, k=3) = ")


# stdout of the samplers as first recorded, when they still built each
# drawn vector and called is_k_free on it
MC_PINNED = {
    ("--k", "10"): "survival(k=10) = 0.614000 +/- 0.003442 (samples=20000, seed=1)\n",
    ("--n", "50", "--k", "20"): (
        "fix(n=50, k=20) = 0.318400 +/- 0.003294 (samples=20000, seed=1)\n"
    ),
}


@pytest.mark.parametrize("model", list(MC_PINNED), ids=["limit", "finite"])
def test_mc_output_pinned(model):
    code, out = run_cli("mc", *model, "--samples", "20000", "--seed", "1")
    assert code == 0
    assert out == MC_PINNED[model]


def test_usage_errors_exit_two():
    assert run_cli("limit", "--k", "0")[0] == 2
    assert run_cli("limit", "--k", "4", "--digits", "51")[0] == 2
    assert run_cli("mc", "--k", "2", "--samples", "0")[0] == 2
    assert run_cli("mc", "--n", "3", "--k", "5", "--samples", "10")[0] == 2
    assert run_cli("exceptions", "--n-max", "3")[0] == 2
    assert run_cli("ratio", "--k-max", "1")[0] == 2


# each exits 2 before any engine runs; DIR stands for an existing directory
USAGE_ERRORS = {
    "output-is-directory": ["limit-table", "--k-max", "2", "--output", "DIR"],
    "emit-rows-is-directory": ["limit", "--k", "3", "--emit-rows", "DIR"],
    "output-parent-missing": ["limit-table", "--k-max", "2", "--output", "DIR/no/x.csv"],
    "emit-rows-parent-missing": ["limit", "--k", "3", "--emit-rows", "DIR/no/rows.csv"],
    "output-empty": ["limit-table", "--k-max", "2", "--output", ""],
    "emit-rows-empty": ["limit", "--k", "3", "--emit-rows", ""],
    # ratio takes no --jobs, not even an ignored one
    "ratio-jobs": ["ratio", "--k-max", "2", "--jobs", "1"],
    "no-command": [],
    "unknown-command": ["no-such-command"],
    # a prefix of --k-max is not accepted as --k-max
    "abbreviated-option": ["finite-table", "--n-max", "10", "--k", "3"],
    "bad-choice": ["finite-table", "--n-max", "6", "--which", "x"],
    "missing-required": ["limit-table"],
    "not-an-integer": ["limit", "--k", "x"],
    "extra-argument": ["limit", "--k", "4", "extra"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_cases_exit_two(tmp_path, case):
    args = [arg.replace("DIR", str(tmp_path)) for arg in USAGE_ERRORS[case]]
    code, out = run_cli(*args)
    assert code == 2, out
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [["limit-table", "--k-max", "2", "--output"], ["limit", "--k", "3", "--emit-rows"]],
    ids=["output", "emit-rows"],
)
def test_file_in_unwritable_directory_exits_two(tmp_path, monkeypatch, args):
    # for root every directory is writable, so os.access stands in for chmod
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: str(path) != str(tmp_path) and access(path, mode)
    )
    code, out = run_cli(*args, str(tmp_path / "x.csv"))
    assert code == 2, out
    assert out == ""
    assert not (tmp_path / "x.csv").exists()


# every option of each command, with the default its help page shows
COMMAND_OPTIONS = {
    "limit": {"--k": None, "--digits": "8", "--emit-rows": None, "--jobs": "1"},
    "limit-table": {"--k-max": None, "--digits": "8", "--output": None, "--jobs": "1"},
    "finite-table": {
        "--n-max": None, "--k-max": "35", "--digits": "5", "--which": "i",
        "--wide": None, "--output": None, "--jobs": "1",
    },
    "exceptions": {"--n-max": None, "--output": None},
    "ratio": {"--k-max": None, "--digits": "8", "--output": None},
    "mc": {"--k": None, "--n": None, "--samples": None, "--seed": "0"},
}


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_names_every_option_and_default(command):
    code, out = run_cli(command, "--help")
    assert code == 0
    words = out.split()
    text = " ".join(words)
    for option, default in COMMAND_OPTIONS[command].items():
        assert option in words, option
        if default is not None:
            assert f"default: {default}" in text, option


# each command that takes --output; the file holds the bytes the command
# writes to stdout without the option
OUTPUT_COMMANDS = {
    "limit-table": ["limit-table", "--k-max", "3"],
    "finite-table": ["finite-table", "--n-max", "9"],
    "finite-table-wide": ["finite-table", "--n-max", "9", "--wide"],
    "exceptions": ["exceptions", "--n-max", "36"],
    "ratio": ["ratio", "--k-max", "3"],
}


@pytest.mark.parametrize("case", list(OUTPUT_COMMANDS))
def test_output_flag_writes_lf_file(tmp_path, case):
    args = OUTPUT_COMMANDS[case]
    path = tmp_path / "table.csv"
    code, out = run_cli(*args, "--output", str(path))
    assert code == 0
    assert out == ""
    data = path.read_bytes()
    assert data == run_cli(*args)[1].encode()
    if case == "limit-table":
        assert data == b"k,i_inf,rows\n1,0.63212056,1\n2,0.55373968,2\n3,0.49658324,4\n"


def test_jobs_flag_byte_identical(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_cli("limit-table", "--k-max", "7", "--output", str(serial))
    run_cli("limit-table", "--k-max", "7", "--jobs", "2", "--output", str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


def test_internal_invariant_maps_to_exit_three(monkeypatch):
    from ksetfix import cli, limits

    def broken(k):
        raise AssertionError("forced for the exit-code test")

    monkeypatch.setattr(limits, "limiting_survival_with_stats", broken)
    monkeypatch.setattr(sys, "argv", ["ksetfix", "limit", "--k", "3"])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 3


def script_env(**extra):
    """The environment of a fresh interpreter that imports this ksetfix."""
    import ksetfix

    src = str(Path(ksetfix.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src, **extra)


def run_script(script, *argv, flags=()):
    """Run ``script`` in a fresh interpreter that imports this ksetfix."""
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        env=script_env(), capture_output=True, text=True, timeout=60,
    )


def launch(setup, *argv, flags=()):
    """Run the statements ``setup``, then the CLI on ``argv``, in a fresh
    interpreter; ``setup`` sees ``sys`` and ``ksetfix.cli`` imported."""
    script = (
        "import sys\n"
        "from ksetfix import cli\n"
        f"{setup}"
        "sys.argv = ['ksetfix', *sys.argv[1:]]\n"
        "cli.run()\n"
    )
    return run_script(script, *argv, flags=flags)


def run_with_broken_guard(*args):
    """Run the CLI under python -O with evaluate's guard digits negative."""
    setup = "from ksetfix import limits\nlimits._EVAL_GUARD = -10\n"
    return launch(setup, *args, flags=("-O",))


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


def test_row_walk_check_survives_optimize_flag(tmp_path):
    # a walk that drops rows disagrees with the programme's count; the check
    # is a raise, not an assert, so python -O keeps it and the CLI exits 3
    setup = (
        "from itertools import islice, product\n"
        "from ksetfix import table\n"
        "table.product = lambda *free: islice(product(*free), 1, None)\n"
    )
    rows = str(tmp_path / "rows.csv")
    proc = launch(setup, "limit", "--k", "5", "--emit-rows", rows, flags=("-O",))
    assert proc.returncode == 3, proc.stderr
    assert "internal invariant violation" in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "rows.csv").exists()  # no partial rows file stays


@pytest.mark.parametrize("target", ["file", "symlink"])
def test_interrupted_emit_rows_leaves_no_partial_file(tmp_path, monkeypatch, target):
    # an interrupt after a few blocks of CSV lines removes the rows file; a
    # path that is not a regular file itself, here a symlink, is left as it is
    from ksetfix import limits

    checked = limits.limiting_survival_checked

    def interrupted(k, write):
        blocks = []

        def take(block):
            write(block)
            blocks.append(block)
            if len(blocks) == 3:
                raise KeyboardInterrupt

        return checked(k, take)

    monkeypatch.setattr(limits, "limiting_survival_checked", interrupted)
    path = tmp_path / "rows.csv"
    if target == "symlink":
        (tmp_path / "kept.csv").touch()
        path.symlink_to(tmp_path / "kept.csv")
    with pytest.raises(KeyboardInterrupt):
        run_cli("limit", "--k", "12", "--emit-rows", str(path))
    assert path.is_symlink() == (target == "symlink")
    assert path.exists() == (target == "symlink")


def test_closed_stdout_exits_one_without_traceback():
    # a reader that leaves early (``ksetfix ... | head``) gets exit 1 and a
    # quiet stderr, buffered stdout or not
    for unbuffered in ("", "1"):
        env = script_env(PYTHONUNBUFFERED=unbuffered)
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
LIMITING_ENGINE = {"limits", "table", "exppoly", "precision", "partitions"}
COMMAND_MODULES = {
    "help": (["limit-table", "--help"], set()),
    "mc": (["mc", "--k", "3", "--samples", "10"], {"montecarlo", "partitions"}),
    "finite-table": (
        ["finite-table", "--n-max", "6"], {"finite", "precision", "partitions"}
    ),
    "exceptions": (
        ["exceptions", "--n-max", "10"], {"finite", "precision", "partitions"}
    ),
    "limit": (["limit", "--k", "3"], LIMITING_ENGINE),
    "limit-table": (["limit-table", "--k-max", "3"], LIMITING_ENGINE),
    "ratio": (["ratio", "--k-max", "3"], LIMITING_ENGINE),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_imports_only_its_engine(command):
    args, engine = COMMAND_MODULES[command]
    # the module list is printed at exit, after the command's output
    setup = (
        "import atexit\n"
        "atexit.register(lambda: print(*sorted(\n"
        "    m for m in sys.modules if m.startswith('ksetfix')\n"
        "    or m in ('decimal', 'fractions', 'click', 'dataclasses'))))\n"
    )
    proc = launch(setup, *args)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    want = BASE_MODULES | {"ksetfix." + name for name in engine}
    assert {m for m in loaded if m.startswith("ksetfix")} == want
    # the CLI parses with the standard library alone
    assert "click" not in loaded
    if command in ("mc", "finite-table", "exceptions"):
        # the samplers use floats and the finite tables integer counts
        assert "decimal" not in loaded
        assert "fractions" not in loaded
    # dataclasses pulls in inspect, a larger import than any engine
    assert "dataclasses" not in loaded


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
    # the README's Library section names every export, and no other name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"exports these names and no others: (.*?)\.\n", readme, re.S)
    assert listed, "README.md has no sentence listing the exports"
    assert set(ksetfix.__all__) == set(re.findall(r"`(\w+)`", listed[1]))


def test_csv_digits_consistent_with_higher_precision():
    # D-place CSV values must equal the (D+10)-place library values
    # rounded back to D places
    from ksetfix.limits import evaluate, limiting_survival
    from ksetfix.precision import round_scaled

    _, out = run_cli("limit-table", "--k-max", "5", "--digits", "8")
    for line in out.splitlines()[1:]:
        k, value, _ = line.split(",")
        fine = evaluate(poly_sub(poly_one(), limiting_survival(int(k))), 18)
        assert round_scaled(fine.scaled, 18, 8) == int(value.replace(".", ""))


def test_jobs_environment_variable_not_read(monkeypatch):
    # KSETFIX_JOBS is not a setting: even a value --jobs would reject is
    # passed over
    args = ["limit-table", "--k-max", "2"]
    base = run_cli(*args)
    monkeypatch.setenv("KSETFIX_JOBS", "0")
    result = run_cli(*args)
    assert base[0] == result[0] == 0
    assert result[1] == base[1]
