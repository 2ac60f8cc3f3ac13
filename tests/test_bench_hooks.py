"""The benchmark's per-layer metrics still find the library names they hook.

bench/tracer.py times the library by substituting module attributes, and
leaves out every metric whose hooked name no longer exists. This guard
resolves the hooks without installing them, so renaming or deleting a
hooked function fails here instead of silently dropping a metric.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_resolves_its_hooks():
    tracer = load_tracer()
    missing = []
    for name, module, attr, _hot, _observe in tracer.HOOKS:
        owner = importlib.import_module("ksetfix." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    empty = {"spans": [], "hot": {}, "counters": {}, "missing": missing}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # bench/run.py adds trace.overhead itself
    want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead"}
    assert set(tracer.layer_metrics(empty)) == want
