"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Fast and medium tiers run by default, including the n <= 70 finite
tables and the full exceptional-pair list; the k = 21..30 limit table
with row counts, whose k = 29 reference count disagrees with the
computed one, carries the ``longrun`` marker and is deselected unless
requested with ``pytest -m longrun``.
"""

from fractions import Fraction
from functools import cache

import pytest
from click.testing import CliRunner

from ksetfix import finite
from ksetfix.cli import main as cli_main
from ksetfix.exppoly import ExpPoly
from ksetfix.finite import exceptions, finite_table, fixing_counts
from ksetfix.limits import evaluate
from ksetfix.montecarlo import sample_finite_fix, sample_limit_survival
from ksetfix.partitions import is_k_free, universality_index

from reference_data import (
    K4_ROW_VALUES_6DP,
    LIMIT_TABLE_8DP,
    RISING_PAIRS_70,
    brute_fix_fractions,
    brute_partitions,
    brute_subpartition_sums,
    centralizer_size,
    emitted_rows,
    exp_inv,
    load_golden_finite,
    poly_add,
    poly_mul,
    poly_one,
    poly_scaled,
    poly_sub,
    row_contribution,
    within,
)


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"[{criterion}] {status}")
    assert not failures, failures[:10]


def run_cli(*args: str) -> str:
    result = CliRunner().invoke(cli_main, list(args))
    assert result.exit_code == 0, result.output
    return result.output


def check_limit_range(ks) -> list:
    failures = []
    for k in ks:
        out = run_cli("limit", "--k", str(k), "--digits", "8")
        lines = dict(line.split(" = ") for line in out.splitlines())
        want_i, want_rows = LIMIT_TABLE_8DP[k]
        if lines["i_inf"] != want_i:
            failures.append((k, "i_inf", lines["i_inf"], want_i))
        if int(lines["rows"]) != want_rows:
            failures.append((k, "rows", lines["rows"], want_rows))
    return failures


def test_criterion_01_limit_values_fast_tier():
    report("criterion 01: limit table k <= 16 at 8 places", check_limit_range(range(1, 17)))


def test_criterion_02_limit_values_medium_tier():
    report("criterion 02: limit table k <= 20 at 8 places", check_limit_range(range(17, 21)))


@pytest.mark.longrun
def test_criterion_03_limit_values_long_tier(survival):
    failures = []
    for k in range(21, 31):
        fix = evaluate(poly_sub(poly_one(), survival.poly(k)), 8)
        want_i, want_rows = LIMIT_TABLE_8DP[k]
        if fix.value != want_i:
            failures.append((k, "i_inf", fix.value, want_i))
        if survival.rows(k) != want_rows:
            failures.append((k, "rows", survival.rows(k), want_rows))
    report("criterion 03: limit table k <= 30 at 8 places (longrun)", failures)


def test_criterion_04_k4_closed_form(survival):
    failures = []
    e74 = ExpPoly({0b1011: 1})
    e2512 = ExpPoly({0b1111: 1})
    closed = poly_add(
        poly_scaled(poly_mul(poly_sub(poly_one(), exp_inv(3)), e74), Fraction(3, 2)),
        poly_scaled(e2512, Fraction(11, 3)),
    )
    table_value = evaluate(survival.poly(4), 12)
    closed_value = evaluate(closed, 12)
    if table_value.value != closed_value.value:
        failures.append(("12-place", table_value.value, closed_value.value))
    if survival.poly(4) != closed:
        failures.append(("symbolic equality",))
    rows, _ = emitted_rows(4)
    per_row = [evaluate(row_contribution(4, r), 6).value for r in rows]
    if per_row != K4_ROW_VALUES_6DP:
        failures.append(("per-row 6-place", per_row))
    report("criterion 04: k=4 closed form to 12 places and row values", failures)


@pytest.fixture(scope="module")
def cached_count_table():
    return cache(finite.fixing_count_table)


@pytest.fixture
def shared_count_tables(monkeypatch, cached_count_table):
    """finite_table and exceptions build each (n_max, cap) count table once.

    Both variants of criterion 05's n <= 70 tables and criterion 06's
    exceptions(70) read the same table; the callers only read it, so one
    shared copy serves all three.
    """
    monkeypatch.setattr(finite, "fixing_count_table", cached_count_table)


def check_finite_range(n_lo: int, n_hi: int) -> list:
    golden_fix = load_golden_finite("fix")
    golden_surv = load_golden_finite("survival")
    failures = []
    fix_rows = dict()
    for n, k, value in finite_table(n_hi, 35, 5):
        if n >= n_lo:
            fix_rows[(n, k)] = value
    for n, k, value in finite_table(n_hi, 35, 5, survival=True):
        if n < n_lo:
            continue
        if golden_surv[(n, k)] != value:
            failures.append(("p", n, k, value, golden_surv[(n, k)]))
    for (n, k), value in fix_rows.items():
        if golden_fix[(n, k)] != value:
            failures.append(("i", n, k, value, golden_fix[(n, k)]))
    covered = {(n, k) for (n, k) in golden_fix if n_lo <= n <= n_hi}
    if covered != set(fix_rows):
        failures.append(("coverage", covered ^ set(fix_rows)))
    return failures


def test_criterion_05_finite_tables_fast_tier(shared_count_tables):
    report(
        "criterion 05: finite tables n <= 40 at 5 places, both variants",
        check_finite_range(2, 40),
    )


def test_criterion_05_finite_tables_long_tier(shared_count_tables):
    report(
        "criterion 05: finite tables 41 <= n <= 70 at 5 places, both variants",
        check_finite_range(41, 70),
    )


def test_criterion_06_exceptional_pairs():
    failures = []
    want = {(30, 9), (36, 11), (39, 12), (42, 13), (45, 14), (47, 15), (48, 15)}
    got = exceptions(48)
    if got != want:
        failures.append((sorted(got), sorted(want)))
    report("criterion 06: rising pairs up to n = 48", failures)


def test_criterion_06_exceptional_pairs_long_tier(shared_count_tables):
    failures = []
    got = exceptions(70)
    if got != RISING_PAIRS_70:
        failures.append((sorted(got ^ RISING_PAIRS_70)))
    report("criterion 06: all twenty rising pairs to n = 70", failures)


def check_monotone(k_hi: int, survival) -> list:
    failures = []
    prev = None
    for k in range(1, k_hi + 2):
        fix = evaluate(poly_sub(poly_one(), survival.poly(k)), 20).scaled
        # certified error is far below 4 ulp at 20 places; require a gap
        if prev is not None and not prev - fix > 4:
            failures.append((k - 1, k, prev, fix))
        prev = fix
    return failures


def test_criterion_07_monotonicity_fast_tier(survival):
    report(
        "criterion 07: limiting probability strictly decreasing through k = 30",
        check_monotone(29, survival),
    )


def test_criterion_08_oracle_equivalence(partition_corpus):
    failures = []
    # (a) k-freeness against direct sub-multiset enumeration
    for n, corpus in partition_corpus.items():
        for ms in corpus:
            sums = brute_subpartition_sums(ms)
            for k in range(1, n + 1):
                if is_k_free(k, ms) != (k not in sums):
                    failures.append(("a", ms, k))
    # (b) universality prefix criterion against the same enumeration
    for n, corpus in partition_corpus.items():
        for ms in corpus:
            sums = brute_subpartition_sums(ms)
            idx = universality_index(ms)
            for t in range(1, n + 1):
                if (idx >= t) != set(range(t + 1)).issubset(sums):
                    failures.append(("b", ms, t))
    # (c) finite probabilities against the literal orbit test over Sym_n
    for n in range(2, 9):
        want = brute_fix_fractions(n)
        counts = fixing_counts(n, n)
        for k in range(1, n + 1):
            if Fraction(counts[k], counts[0]) != want[k]:
                failures.append(("c", n, k))
    # (d) class equation
    for n in range(1, 41):
        total = sum(
            Fraction(1, centralizer_size(ms)) for ms in brute_partitions(n)
        )
        if total != 1:
            failures.append(("d", n))
    report("criterion 08: oracle equivalence suite (exact)", failures)


def test_criterion_09_monte_carlo_cross_checks():
    failures = []
    million = 10**6
    for k, fix_8dp in ((1, "0.63212056"), (4, "0.46955773"), (10, "0.37687192")):
        target = 1 - float(fix_8dp)
        est = sample_limit_survival(k, million, seed=20240 + k)
        if not within(est, target, sigmas=4):
            failures.append(("limit", k, est.estimate, target))
    exact = fixing_counts(20, 10)
    target = float(Fraction(exact[10], exact[0]))
    est = sample_finite_fix(20, 10, million, seed=2024)
    if not within(est, target, sigmas=4):
        failures.append(("finite", 20, 10, est.estimate, target))
    report("criterion 09: million-sample Monte Carlo within 4 sigma", failures)


def test_criterion_10_byte_determinism(tmp_path):
    failures = []
    # ratio takes no --jobs; the others accept it and ignore it
    jobs_variants = (["--jobs", "1"], ["--jobs", "1"], ["--jobs", "2"])
    recipes = {
        "limit-table": (["limit-table", "--k-max", "16"], jobs_variants),
        "finite-table": (["finite-table", "--n-max", "40"], jobs_variants),
        "ratio": (["ratio", "--k-max", "12"], ([], [])),
    }
    for name, (args, variants) in recipes.items():
        outputs = {run_cli(*args, *extra) for extra in variants}
        if len(outputs) != 1:
            failures.append((name, "outputs differ across runs/parallelism"))
    exc_outputs = {run_cli("exceptions", "--n-max", "40") for _ in range(2)}
    if len(exc_outputs) != 1:
        failures.append(("exceptions", "nondeterministic"))
    report("criterion 10: byte-identical outputs, serial and parallel", failures)
