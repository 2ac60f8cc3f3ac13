"""Command-line surface: formats, golden lines, exit codes, determinism."""

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

    from ksetfix import cli

    def broken(k):
        raise AssertionError("forced for the exit-code test")

    monkeypatch.setattr(cli.limits, "limiting_survival_with_stats", broken)
    monkeypatch.setattr(sys, "argv", ["ksetfix", "limit", "--k", "3"])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == 3


def run_with_broken_guard(*args):
    """Run the CLI under python -O with evaluate's guard digits negative."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ksetfix

    script = (
        "import sys\n"
        "from ksetfix import cli, limits\n"
        "limits._EVAL_GUARD = -10\n"
        f"sys.argv = ['ksetfix', *{list(args)!r}]\n"
        "cli.run()\n"
    )
    src = str(Path(ksetfix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )


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
