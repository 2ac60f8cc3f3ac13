"""Row table enumeration: order, completeness, counters."""

import hashlib
from itertools import product

import pytest

from ksetfix.partitions import is_k_free, universality_index
from ksetfix.table import (
    TableStats,
    _descend,
    _divisor_masks,
    enumerate_rows,
    position_bound,
    write_rows,
)

from reference_data import (
    LIMIT_TABLE_8DP,
    descend_walk,
    divisibility_free,
    emitted_rows,
    prefix_walk,
    run_cli,
    subpartition_sums,
)


def reference_enumerate(k):
    """The same walk, recomputing every candidate test from scratch.

    Its step mirrors the production three-stage order but calls the plain
    module-level predicates on the whole extended prefix. Each step checks
    that its tries, counted from where they stopped, equal the three
    stages' sum, which ``enumerate_rows`` reports as partials_considered.
    """

    def step(j, prefix):
        universal = divisible = full = 0
        for top in range(position_bound(k, j), -1, -1):
            ms = prefix + (top,)
            if universality_index(ms) >= k:
                universal += 1
            elif divisibility_free(k, ms):
                divisible += 1
                break
            else:
                full += 1
                if k not in subpartition_sums(ms, k):
                    break
        else:
            raise AssertionError("extension must succeed at m=0")
        assert position_bound(k, j) - top + 1 == universal + divisible + full
        children = [(m, prefix + (m,)) for m in range(top, -1, -1)]
        return children, universal, divisible, full

    rows = []
    return rows, prefix_walk(k, step, (), rows.append)


def test_k4_exact_sequence():
    rows, stats = emitted_rows(4)
    assert rows == [
        (3, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 0),
        (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0),
    ]
    assert stats.rows_emitted == 8


def test_k1_single_empty_row():
    rows, stats = emitted_rows(1)
    assert rows == [()]
    assert stats.rows_emitted == 1
    assert enumerate_rows(1).rows_emitted == 1


def test_first_and_last_rows():
    for k in range(2, 9):
        rows, _ = emitted_rows(k)
        assert rows[0] == (k - 1,) + (0,) * (k - 2)
        assert rows[-1] == (0,) * (k - 1)


def test_rows_count_small_values():
    for k in range(1, 13):
        assert enumerate_rows(k).rows_emitted == LIMIT_TABLE_8DP[k][1], k


@pytest.mark.parametrize("k", range(2, 9))
def test_completeness_against_box_scan(k):
    # every k-free tuple in the admissible box, found by exhausting it
    box = [range(position_bound(k, j) + 1) for j in range(1, k)]
    expected = {ms for ms in product(*box) if is_k_free(k, ms)}
    rows, _ = emitted_rows(k)
    assert set(rows) == expected
    assert len(rows) == len(expected)


@pytest.mark.parametrize("k", range(2, 10))
def test_rows_strictly_decreasing_lex(k):
    rows, _ = emitted_rows(k)
    assert all(a > b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("k", range(2, 15))
def test_matches_reference_walk_and_counter_split(k):
    rows, stats = emitted_rows(k)
    ref_rows, ref_stats = reference_enumerate(k)
    assert rows == ref_rows
    assert stats == ref_stats
    assert enumerate_rows(k) == ref_stats


def test_counter_identity():
    for k in range(1, 12):
        walked_rows = []
        walked = descend_walk(k, walked_rows.append)
        table_rows, emitted = emitted_rows(k)
        counted = enumerate_rows(k)
        for s in (walked, emitted, counted):
            assert s.partials_considered == (
                s.pruned_universal + s.pruned_divisibility + s.full_tests
            )
        assert len(walked_rows) == len(table_rows) == counted.rows_emitted


@pytest.mark.parametrize(
    "k",
    [*range(1, 21)]
    + [pytest.param(k, marks=pytest.mark.longrun) for k in range(21, 25)],
)
def test_count_path_matches_walk(k):
    # the programme, counting, and its row walk against the walk that
    # runs the descend step on every prefix
    walked_rows = []
    walked = descend_walk(k, walked_rows.append)
    table_rows, emitted = emitted_rows(k)
    assert table_rows == walked_rows
    assert enumerate_rows(k) == emitted == walked


def test_count_path_k30_counters():
    # the row count agrees with LIMIT_TABLE_8DP; k = 29 is left unpinned
    # while its reference row count is in question
    assert enumerate_rows(30) == TableStats(12022223, 19500808, 404452, 2925, 19093431)
    assert LIMIT_TABLE_8DP[30][1] == 12022223


# enumerate_rows(k), one line per k = 1..30 of k and its counters, as
# first computed; rows_emitted is left out at k = 29, whose reference row
# count is in question
COUNTERS_DIGEST = "728ac5a7dc8afe1a0466a4bf96423614ff3794c5e0838ad7ac232339c71aa93a"


def test_counters_pinned_exactly():
    digest = hashlib.sha256()
    for k in range(1, 31):
        stats = enumerate_rows(k)
        fields = stats[1:] if k == 29 else stats
        digest.update(f"{k} {' '.join(map(str, fields))}\n".encode())
    assert digest.hexdigest() == COUNTERS_DIGEST


def test_rows_are_written_a_block_per_prefix():
    # one write per prefix of the positions j <= k/2 (3,148 at k = 20),
    # not one per row
    calls = []
    written = write_rows(20, calls.append)
    assert written == enumerate_rows(20).rows_emitted
    assert len(calls) * 10 < written


@pytest.mark.parametrize("k", [1, 5, 12])
def test_walk_that_disagrees_with_the_count_raises(monkeypatch, tmp_path, k):
    # the rows come from a walk of their own, which limit --emit-rows checks
    # against the count; the failed run leaves no rows file
    from itertools import islice

    from ksetfix import table

    monkeypatch.setattr(table, "product", lambda *free: islice(product(*free), 1, None))
    path = tmp_path / "rows.csv"
    with pytest.raises(AssertionError, match="walk"):
        run_cli("limit", "--k", str(k), "--emit-rows", str(path))
    assert not path.exists()


def test_descend_rejects_a_prefix_that_is_not_k_free():
    # achievable sums already hold k, so not even m = 0 is accepted
    k = 4
    usable_d, div_of = _divisor_masks(k)
    key = (1 | 1 << k, 0, -1)
    with pytest.raises(AssertionError, match="m=0"):
        _descend(k, 1, key, div_of)


def test_deterministic_repeat_runs():
    a_rows, a_stats = emitted_rows(9)
    b_rows, b_stats = emitted_rows(9)
    assert a_rows == b_rows
    assert a_stats == b_stats


def test_every_emitted_row_is_k_free():
    for k in range(2, 10):
        rows, _ = emitted_rows(k)
        for ms in rows:
            assert is_k_free(k, ms)
            for j, m in enumerate(ms, start=1):
                assert 0 <= m <= position_bound(k, j)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        write_rows(0, lambda r: None)
    with pytest.raises(ValueError):
        enumerate_rows(0)
