"""Shared fixtures: cached survival polynomials and partition corpora."""

import pytest

from ksetfix.limits import limiting_survival_with_stats

from reference_data import brute_partitions


class SurvivalCache:
    """Memoizes limiting survival polynomials and row counts per k."""

    def __init__(self):
        self._store = {}

    def get(self, k):
        if k not in self._store:
            self._store[k] = limiting_survival_with_stats(k)
        return self._store[k]

    def poly(self, k):
        return self.get(k)[0]

    def rows(self, k):
        return self.get(k)[1]


@pytest.fixture(scope="session")
def survival():
    return SurvivalCache()


@pytest.fixture(scope="session")
def partition_corpus():
    """All partitions of every n <= 20, keyed by n, as multiplicity tuples."""
    return {n: brute_partitions(n) for n in range(1, 21)}
