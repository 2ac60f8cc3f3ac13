"""Smoke tests of the benchmark itself; run from the repository root with

    python -m pytest bench/test_bench.py

They run every workload at its tiny size and check the printed metrics
against BENCHMARK.json, check the kept expected outputs once against the
golden data under tests/, and check that the benchmark refuses to run
without the sources.
"""

import json
import shutil
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import run  # noqa: E402
from reference_data import LIMIT_TABLE_8DP, load_golden_finite  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name


def test_every_workload_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _limit_lines(path):
    return dict(line.split(" = ") for line in path.read_text().splitlines())


def test_expected_outputs_match_golden_data():
    for name, k_max in (("limit_table", 20), ("limit_table_tiny", 6)):
        lines = (run.EXPECTED / f"{name}.txt").read_text().splitlines()
        assert lines[0] == "k,i_inf,rows"
        assert lines[1:] == [
            f"{k},{LIMIT_TABLE_8DP[k][0]},{LIMIT_TABLE_8DP[k][1]}"
            for k in range(1, k_max + 1)
        ]
    for name, k in (("limit_deep", 22), ("limit_deep_tiny", 6)):
        out = _limit_lines(run.EXPECTED / f"{name}.txt")
        i_inf = Decimal(out["i_inf"])
        assert out["k"] == str(k)
        assert str(i_inf.quantize(Decimal("1e-8"), ROUND_HALF_EVEN)) == LIMIT_TABLE_8DP[k][0]
        assert int(out["rows"]) == LIMIT_TABLE_8DP[k][1]
        assert i_inf + Decimal(out["p_inf"]) == 1
    golden = load_golden_finite("fix")
    for name, n_max in (("finite_table", 50), ("finite_table_tiny", 10)):
        lines = (run.EXPECTED / f"{name}.txt").read_text().splitlines()
        assert lines[0] == "n,k,value"
        want = sorted((n, k) for n, k in golden if n <= n_max)
        assert [tuple(map(int, line.split(",")[:2])) for line in lines[1:]] == want
        for line in lines[1:]:
            n, k, value = line.split(",")
            assert golden[(int(n), int(k))] == value


def test_mc_targets_match_golden_data():
    golden = load_golden_finite("fix")
    assert run.MC_TARGETS == {
        "survival(k=10)": 1 - Fraction(LIMIT_TABLE_8DP[10][0]),
        "survival(k=6)": 1 - Fraction(LIMIT_TABLE_8DP[6][0]),
        "fix(n=50, k=20)": Fraction(golden[(50, 20)]),
        "fix(n=10, k=5)": Fraction(golden[(10, 5)]),
    }


def test_mc_check_rejects_a_far_estimate():
    name, args = run.commands("finite", 5, tiny=True)[1]
    line = "survival(k=6) = {} +/- 0.015000 (samples=1000, seed=5)\n"
    assert run.check_output(name, True, args, line.format("0.574941")) is None
    assert run.check_output(name, True, args, line.format("0.674941")) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "finite", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
