"""Traced, in-process run of ksetfix CLI commands, and the per-layer metrics.

Usage (PYTHONPATH must reach the ksetfix sources)::

    python bench/tracer.py OUT.json limit --k 6 --digits 50

The script wraps functions of every ksetfix module by substituting module
(or class) attributes, so no library code changes. It then runs the CLI
command in this process through click's CliRunner and writes one JSON file
at the end: the spans, the per-call aggregates of hot hooks, the counters
observed on arguments and results, the hooks it could not find, and the
command's exit code and stdout.

A span has a name, start, end, parent and run id; the spans of one command
share the run id. Hooks on functions called once per sample, partition or
polynomial term are "hot": they are aggregated into a call count and total
seconds (charged to the enclosing span) instead of one span per call, so
memory stays flat. A hook whose target no longer exists is listed as
missing; every metric that depends on it is left out, and the run goes on.

:func:`layer_metrics` turns the file into the per-layer metrics that
``run.py --trace 1`` prints. Importing this module does not import ksetfix.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli", "table", "limits", "exppoly", "precision", "finite", "partitions",
    "montecarlo",
)


def _observe_table(counters, args, kwargs, stats):
    counters["table.rows"] += stats.rows_emitted
    counters["table.partials"] += stats.partials_considered
    counters["table.full_tests"] += stats.full_tests


def _observe_survival(counters, args, kwargs, result):
    terms = result[0].terms
    counters["exppoly.terms"] += len(terms)
    bits = max((c.denominator.bit_length() for c in terms.values()), default=0)
    counters["exppoly.coef_bits"] = max(counters["exppoly.coef_bits"], bits)


def _observe_groups(counters, args, kwargs, result):
    counters["limits.groups"] += len(args[1])


def _observe_prec(counters, args, kwargs, result):
    counters["precision.prec"] = max(counters["precision.prec"], args[1])


def _observe_samples(counters, args, kwargs, estimate):
    counters["montecarlo.samples"] += estimate.samples


def _observe_kfree(counters, args, kwargs, result):
    counters["montecarlo.distinct"].add((args[0], tuple(args[1])))


# (span name, ksetfix module, attribute in that module, hot, observer).
# The span name's prefix is the layer that owns the function; the module
# is where its caller looks it up, which is where it must be substituted.
HOOKS = (
    ("table.enumerate_rows", "limits", "enumerate_rows", False, _observe_table),
    ("limits.limiting_survival_with_stats", "limits",
     "limiting_survival_with_stats", False, _observe_survival),
    ("limits._expand_groups", "limits", "_expand_groups", False, _observe_groups),
    ("limits.evaluate", "limits", "evaluate", False, None),
    ("limits.evaluate_scaled", "limits", "evaluate_scaled", False, _observe_prec),
    ("precision.exp_neg_fraction", "limits", "exp_neg_fraction", True, None),
    ("exppoly.exponent_fraction", "limits", "exponent_fraction", True, None),
    ("exppoly.sub", "exppoly", "ExpPoly.__sub__", False, None),
    ("exppoly.abs_coefficient_sum", "exppoly", "ExpPoly.abs_coefficient_sum",
     False, None),
    ("finite.fixing_counts", "finite", "fixing_counts", False, None),
    ("partitions.universality_index", "finite", "universality_index", True, None),
    ("partitions.achievable_sizes_mask", "finite", "achievable_sizes_mask",
     True, None),
    ("montecarlo.sample_limit_survival", "montecarlo", "sample_limit_survival",
     False, _observe_samples),
    ("montecarlo.sample_finite_fix", "montecarlo", "sample_finite_fix", False,
     _observe_samples),
    ("partitions.is_k_free", "montecarlo", "is_k_free", True, _observe_kfree),
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.hot: dict[str, list] = {}
        self.counters = defaultdict(int, {"montecarlo.distinct": set()})
        self.missing: list[str] = []

    def span(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            rec = {
                "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "run": 0,
                "id": len(self.spans),
                "hot_s": 0.0,
            }
            self.spans.append(rec)
            self.stack.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def hot_hook(self, name, fn, observe=None):
        stat = self.hot.setdefault(name, [0, 0.0])
        stack, counters = self.stack, self.counters

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stat[0] += 1
            stat[1] += dt
            if stack:
                stack[-1]["hot_s"] += dt
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Substitute every hook that exists; record the others as missing."""
        for name, module, attr, hot, observe in HOOKS:
            try:
                owner = importlib.import_module("ksetfix." + module)
            except ImportError:
                self.missing.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrap = self.hot_hook if hot else self.span
            setattr(owner, leaf, wrap(name, fn, observe))

    def dump(self) -> dict:
        counters = {
            k: len(v) if isinstance(v, set) else v for k, v in self.counters.items()
        }
        return {
            "spans": self.spans,
            "hot": self.hot,
            "counters": counters,
            "missing": self.missing,
        }


# counters that keep their largest value; all others add up
_MAX_COUNTERS = ("precision.prec", "exppoly.coef_bits")


def merge(traces: list[dict]) -> dict:
    """One trace from the trace files of several commands; run id = position."""
    spans: list[dict] = []
    hot: dict[str, list] = {}
    counters: dict[str, int] = defaultdict(int)
    missing: set[str] = set()
    for run, trace in enumerate(traces):
        base = len(spans)
        for s in trace["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            spans.append({**s, "id": s["id"] + base, "parent": parent, "run": run})
        for name, (calls, seconds) in trace["hot"].items():
            stat = hot.setdefault(name, [0, 0.0])
            stat[0] += calls
            stat[1] += seconds
        for name, value in trace["counters"].items():
            if name in _MAX_COUNTERS:
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
        missing.update(trace["missing"])
    return {"spans": spans, "hot": hot, "counters": counters, "missing": sorted(missing)}


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics {name: (value, unit)} from a (merged) trace.

    A layer's self time is the time of its spans minus their child spans and
    the hot calls made directly inside them, plus the time of its own hot
    hooks. A layer the workload never enters reads 0.
    """
    spans, hot = trace["spans"], trace["hot"]
    counters = defaultdict(int, trace["counters"])
    missing = set(trace["missing"])
    child_s: dict[int, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
        durations[s["name"]].append(s["end"] - s["start"])
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".")[0]
        self_s[layer] += s["end"] - s["start"] - child_s[s["id"]] - s["hot_s"]
    for name, (_, seconds) in hot.items():
        self_s[name.split(".")[0]] += seconds

    out: dict[str, tuple[float, str]] = {}

    def put(metric, hooks, value, unit):
        if missing.isdisjoint(hooks):
            out[metric] = (value(), unit)

    def total(name):
        return sum(durations[name])

    def calls(name):
        return hot.get(name, (0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    for layer in LAYERS:
        out[layer + ".self_s"] = (self_s[layer], "s")

    walk = ("table.enumerate_rows",)
    put("table.walk_s", walk, lambda: total(walk[0]), "s")
    put("table.rows", walk, lambda: counters["table.rows"], "count")
    put("table.partials", walk, lambda: counters["table.partials"], "count")
    put("table.full_tests", walk, lambda: counters["table.full_tests"], "count")
    put("table.row_yield", walk,
        lambda: ratio(counters["table.rows"], counters["table.partials"]), "ratio")

    surv = ("limits.limiting_survival_with_stats",)
    put("limits.survival_s", surv, lambda: total(surv[0]), "s")
    put("exppoly.terms", surv, lambda: counters["exppoly.terms"], "count")
    put("exppoly.coef_bits", surv, lambda: counters["exppoly.coef_bits"], "bits")
    expand = ("limits._expand_groups",)
    put("limits.expand_s", expand, lambda: total(expand[0]), "s")
    put("limits.groups", expand, lambda: counters["limits.groups"], "count")
    put("limits.evaluate_s", ("limits.evaluate",),
        lambda: total("limits.evaluate"), "s")
    put("precision.prec", ("limits.evaluate_scaled",),
        lambda: counters["precision.prec"], "digits")
    exp = ("precision.exp_neg_fraction",)
    put("precision.exp_calls", exp, lambda: calls(exp[0]), "count")
    put("precision.exp_s", exp, lambda: hot.get(exp[0], (0, 0.0))[1], "s")

    passes = ("finite.fixing_counts",)
    pass_s = durations[passes[0]] or [0.0]
    put("finite.passes", passes, lambda: len(durations[passes[0]]), "count")
    put("finite.pass_s", passes, lambda: statistics.median(pass_s), "s")
    put("finite.pass_s_p75", passes,
        lambda: statistics.quantiles(pass_s, n=4)[2] if len(pass_s) > 1 else pass_s[0],
        "s")
    put("finite.pass_s_max", passes, lambda: max(pass_s), "s")
    parts = ("partitions.universality_index",)
    knap = ("partitions.achievable_sizes_mask",)
    put("finite.partitions", parts, lambda: calls(parts[0]), "count")
    put("finite.knapsack_calls", knap, lambda: calls(knap[0]), "count")
    put("finite.universal_share", parts + knap,
        lambda: 1.0 - ratio(calls(knap[0]), calls(parts[0])) if calls(parts[0]) else 0.0,
        "ratio")

    samplers = ("montecarlo.sample_limit_survival", "montecarlo.sample_finite_fix")
    sample_s = sum(total(name) for name in samplers)
    put("montecarlo.sample_s", samplers, lambda: sample_s, "s")
    put("montecarlo.samples_per_s", samplers,
        lambda: ratio(counters["montecarlo.samples"], sample_s), "1/s")
    kfree = ("partitions.is_k_free",)
    put("montecarlo.kfree_s", kfree, lambda: hot.get(kfree[0], (0, 0.0))[1], "s")
    put("montecarlo.distinct_share", kfree,
        lambda: ratio(counters["montecarlo.distinct"], calls(kfree[0])), "ratio")
    return out


def main(argv: list[str]) -> int:
    out_path, args = argv[1], argv[2:]
    from click.testing import CliRunner

    from ksetfix import cli

    tracer = Tracer()
    tracer.install()
    result = tracer.span("cli." + args[0], CliRunner().invoke)(cli.main, args)
    output = {
        "args": args,
        "exit_code": result.exit_code,
        "stdout": result.stdout_bytes.decode("utf-8"),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"output": output, **tracer.dump()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
