"""The benchmark still finds the library names it hooks and the CLI
options it passes.

bench/tracer.py times the library by substituting module attributes, and
leaves out every metric whose hooked name no longer exists. The first
guard resolves the hooks without installing them, so renaming or
deleting a hooked function fails here instead of silently dropping a
metric. The second parses every command line of bench/run.py without
running it, so dropping an option the benchmark passes fails here
instead of in a benchmark run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_resolves_its_hooks():
    tracer = load_bench("tracer")
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


def test_bench_command_lines_parse(monkeypatch):
    from ksetfix import cli

    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends bench/
    run = load_bench("run")
    for workload in run.WORKLOADS:
        for tiny in (False, True):
            for name, args in run.commands(workload, 1, tiny):
                try:
                    parsed = cli._parser("ksetfix").parse_args(args)
                except SystemExit:
                    pytest.fail(f"{workload} {name}: cannot parse {args}")
                assert parsed.run.__name__ == args[0].replace("-", "_"), name
