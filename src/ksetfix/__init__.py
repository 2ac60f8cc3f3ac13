"""Exact probabilities that a random permutation fixes a k-subset.

The package computes, in exact arithmetic throughout:

* the limiting probability (as the degree grows) that a uniform random
  permutation fixes some k-subset, as an exact exponential polynomial
  summed over the k-free cycle-type rows by a dynamic programme over
  achievable-sum masks, and evaluated to any number of decimal places;
* the k-free rows and their pruning counters, by one pruned descend
  step that drives two ways through the rows: a depth-first walk that
  emits every row, and a dynamic programme over merged row prefixes
  that only counts them;
* the finite-degree probabilities for every degree up to a bound, one
  k per run, by a dynamic programme over achievable-sum masks;
* Monte Carlo estimates of both, for cross-validation.

The package ships the engines only. The slow paths that the tests use as
references (row-by-row weights, products of exponential polynomials,
per-term ``Fraction`` exponents, centralizer orders) live with the tests,
in ``tests/reference_data.py``.
"""

from .exppoly import ExpPoly
from .finite import (
    FiniteResult,
    exceptions,
    finite_fix_probability,
    finite_table,
    fixing_count_table,
    fixing_counts,
)
from .limits import (
    HighPrecisionDecimal,
    decay_exponent,
    efg_ratio,
    evaluate,
    limiting_fix_probability,
    limiting_survival,
    limiting_survival_with_stats,
)
from .montecarlo import McEstimate, sample_finite_fix, sample_limit_survival
from .partitions import divisibility_free, is_k_free, universality_index
from .table import TableStats, enumerate_rows, rows_count

__all__ = [
    "ExpPoly",
    "FiniteResult",
    "HighPrecisionDecimal",
    "McEstimate",
    "TableStats",
    "decay_exponent",
    "divisibility_free",
    "efg_ratio",
    "enumerate_rows",
    "evaluate",
    "exceptions",
    "finite_fix_probability",
    "finite_table",
    "fixing_count_table",
    "fixing_counts",
    "is_k_free",
    "limiting_fix_probability",
    "limiting_survival",
    "limiting_survival_with_stats",
    "rows_count",
    "sample_finite_fix",
    "sample_limit_survival",
    "universality_index",
]

__version__ = "0.1.0"
