"""Partition multiplicity operations against direct enumeration oracles."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from ksetfix.partitions import (
    achievable_sizes_mask,
    is_k_free,
    part_ladder,
    universality_index,
)

from reference_data import (
    brute_subpartition_sums,
    centralizer_size,
    class_equation_failures,
    divisibility_free,
    k_free_failures,
    subpartition_sums,
    universality_failures,
)

small_ms = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=7)


def test_universality_examples():
    assert universality_index(()) == 0
    assert universality_index((0, 1)) == 0
    # brute check for (3,): sums of 1+1+1 are {0,1,2,3}
    assert brute_subpartition_sums((3,)) == {0, 1, 2, 3}
    assert universality_index((3,)) == 3
    # (1,0,1) is 1+3: sums {0,1,3,4}, size 2 missing
    assert brute_subpartition_sums((1, 0, 1)) == {0, 1, 3, 4}
    assert universality_index((1, 0, 1)) == 1


def test_universality_full_sum_when_no_prefix_fails():
    # every prefix passes, so the index is the whole partition size
    assert universality_index((2, 2)) == 6
    assert universality_index((1, 1, 1)) == 6


def test_divisibility_examples():
    assert divisibility_free(5, (0, 2)) is True  # all parts even, 5 odd
    assert divisibility_free(4, (0, 1, 1)) is False  # only d=2, which divides 4
    assert divisibility_free(6, (0, 0, 2)) is False  # both 2 and 3 divide 6


def test_subpartition_sums_examples():
    assert subpartition_sums((0, 1, 1), 5) == {0, 2, 3, 5}
    assert subpartition_sums((), 7) == {0}
    assert subpartition_sums((2, 1), 4) == {0, 1, 2, 3, 4}
    assert brute_subpartition_sums((2, 1)) == {0, 1, 2, 3, 4}


def test_subpartition_sums_cap_validation():
    with pytest.raises(ValueError):
        subpartition_sums((1,), 0)


def test_is_k_free_examples():
    assert is_k_free(4, (0, 1, 1)) is True
    assert is_k_free(4, (1, 0, 1)) is False  # 1 + 3 = 4
    assert is_k_free(1, (0,)) is True


def test_centralizer_examples():
    assert centralizer_size((2, 1)) == 4
    assert centralizer_size(()) == 1
    assert centralizer_size((0, 0, 0, 0, 1)) == 5


def test_centralizer_counts_transpositions_in_sym4():
    # 24 / centralizer_size of cycle type (2,1,0,0) should count the
    # transpositions of Sym_4; verify by listing them
    transpositions = 0
    for perm in permutations(range(4)):
        moved = [i for i in range(4) if perm[i] != i]
        if len(moved) == 2 and perm[moved[0]] == moved[1]:
            transpositions += 1
    assert transpositions == 6
    assert 24 // centralizer_size((2, 1)) == 6


def test_free_matches_brute_force_on_all_partitions(partition_corpus):
    assert k_free_failures(partition_corpus) == []


def test_universality_prefix_criterion_equivalence(partition_corpus):
    # index >= t exactly when every size 0..t is achievable
    assert universality_failures(partition_corpus) == []


def test_divisibility_free_implies_k_free(partition_corpus):
    for n, corpus in partition_corpus.items():
        for ms in corpus:
            sums = brute_subpartition_sums(ms)
            for k in range(1, 21):
                if divisibility_free(k, ms):
                    assert k not in sums, (ms, k)


def test_class_equation_sums_to_one(partition_corpus):
    # the centralizer orders of all cycle types of Sym_n tile n! exactly
    assert class_equation_failures(partition_corpus) == []


def test_sums_always_contain_zero_and_respect_cap(partition_corpus):
    for corpus in partition_corpus.values():
        for ms in corpus:
            got = subpartition_sums(ms, 6)
            assert 0 in got
            assert all(0 <= s <= 6 for s in got)


@given(small_ms, st.integers(min_value=1, max_value=12))
def test_is_k_free_matches_brute_force_random(ms, k):
    assert is_k_free(k, ms) == (k not in brute_subpartition_sums(ms))


@given(st.data(), st.integers(min_value=2, max_value=16))
def test_part_ladder_matches_the_knapsack(data, k):
    # prefixes of parts below j, then m = 0, 1, ... parts j
    j = data.draw(st.integers(min_value=1, max_value=k - 1))
    ms = data.draw(st.lists(st.integers(0, 4), min_size=j - 1, max_size=j - 1))
    reach = achievable_sizes_mask(ms, k)
    ladder = part_ladder(reach, j, k)
    bound = (k - 1) // j
    masks = [achievable_sizes_mask([*ms, m], k) for m in range(bound + 1)]
    reaching = [m for m, mask in enumerate(masks) if mask >> k & 1]
    assert len(ladder) == (reaching[0] if reaching else bound + 1)
    keep = (1 << (k - j)) - 1
    assert ladder == [mask & keep for mask in masks[: len(ladder)]]
    if not reach >> k & 1:
        # a k-free prefix's sums trimmed after part j - 1 give the same ladder
        assert part_ladder(reach & (keep << 1 | 1), j, k) == ladder
    assert part_ladder(reach | 1 << k, j, k) == []


@given(small_ms, st.integers(min_value=0, max_value=3))
def test_trailing_zeros_are_inert(ms, extra):
    padded = tuple(ms) + (0,) * extra
    assert universality_index(padded) == universality_index(ms)
    assert subpartition_sums(padded, 9) == subpartition_sums(ms, 9)
    assert centralizer_size(padded) == centralizer_size(ms)
