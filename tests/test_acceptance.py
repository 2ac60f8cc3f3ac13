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

from ksetfix import finite
from ksetfix.finite import exceptions, finite_table, fixing_counts
from ksetfix.limits import evaluate
from ksetfix.montecarlo import sample_finite_fix, sample_limit_survival

from reference_data import (
    LIMIT_TABLE_8DP,
    RISING_PAIRS_70,
    class_equation_failures,
    k4_closed_form,
    k4_closed_form_failures,
    k4_row_value_failures,
    k_free_failures,
    load_golden_finite,
    orbit_failures,
    partitions_of,
    poly_one,
    poly_sub,
    run_cli,
    universality_failures,
    within,
)


def report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"[{criterion}] {status}")
    assert not failures, failures[:10]


def cli_output(*args: str) -> str:
    code, out = run_cli(*args)
    assert code == 0, out
    return out


def check_limit_range(ks) -> list:
    failures = []
    for k in ks:
        out = cli_output("limit", "--k", str(k), "--digits", "8")
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
    closed = k4_closed_form()
    table_value = evaluate(survival.poly(4), 12)
    closed_value = evaluate(closed, 12)
    if table_value.value != closed_value.value:
        failures.append(("12-place", table_value.value, closed_value.value))
    failures += k4_closed_form_failures(survival.poly(4))
    failures += k4_row_value_failures()
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
    want = {(n, k) for n, k in RISING_PAIRS_70 if n <= 48}
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
    # (a) k-freeness against direct sub-multiset enumeration
    failures = [("a", *f) for f in k_free_failures(partition_corpus)]
    # (b) universality prefix criterion against the same enumeration
    failures += [("b", *f) for f in universality_failures(partition_corpus)]
    # (c) finite probabilities against the literal orbit test over Sym_n
    for n in range(2, 9):
        failures += [("c", *f) for f in orbit_failures(n)]
    # (d) class equation, to n = 40
    corpus = {n: partitions_of(n) for n in range(1, 41)}
    failures += [("d", n) for n in class_equation_failures(corpus)]
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
        outputs = {cli_output(*args, *extra) for extra in variants}
        if len(outputs) != 1:
            failures.append((name, "outputs differ across runs/parallelism"))
    exc_outputs = {cli_output("exceptions", "--n-max", "40") for _ in range(2)}
    if len(exc_outputs) != 1:
        failures.append(("exceptions", "nondeterministic"))
    report("criterion 10: byte-identical outputs, serial and parallel", failures)
