"""Exact probabilities that a random permutation fixes a k-subset.

The package computes, in exact arithmetic throughout:

* the limiting probability (as the degree grows) that a uniform random
  permutation fixes some k-subset, as an exact exponential polynomial
  summed over the k-free cycle-type rows by a dynamic programme over
  achievable-sum masks, and evaluated to any number of decimal places;
* the k-free rows and their pruning counters, by a dynamic programme
  that runs one pruned descend step once per merged row prefix and,
  when asked for the rows, a depth-first walk that settles the parts
  above k/2 in the limiting engine's closed form and writes CSV text;
* the finite-degree probabilities for every degree up to a bound, one
  k per run, by a dynamic programme over achievable-sum masks that
  settles the cycle lengths above k/2 per mask group;
* Monte Carlo estimates of both, for cross-validation.

The first two grow and trim their masks by one step,
``partitions.part_ladder``. The package ships the engines only. The slow
paths and helpers that only the tests use (row-by-row weights, products
of exponential polynomials, per-term ``Fraction`` exponents, centralizer
orders, the divisibility test behind the row table's pruning tallies,
decimal strings of exact fractions, the samplers' sigma test) live with
the tests, in ``tests/reference_data.py``.

``import ksetfix`` loads no engine: each public name below is resolved
on first use (PEP 562), importing only the module that defines it.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {
    "ExpPoly": "exppoly",
    "FiniteResult": "finite",
    "exceptions": "finite",
    "finite_fix_probability": "finite",
    "finite_table": "finite",
    "fixing_count_table": "finite",
    "HighPrecisionDecimal": "limits",
    "decay_exponent": "limits",
    "efg_ratio": "limits",
    "evaluate": "limits",
    "limiting_fix_probability": "limits",
    "limiting_survival": "limits",
    "McEstimate": "montecarlo",
    "sample_finite_fix": "montecarlo",
    "sample_limit_survival": "montecarlo",
    "is_k_free": "partitions",
    "TableStats": "table",
    "enumerate_rows": "table",
    "rows_count": "table",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
