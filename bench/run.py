"""ksetfix benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload limiting --seed 1 --seconds 60 --trace 0

A workload is a fixed list of CLI commands. Each command runs the real CLI
(``python -m ksetfix.cli ...`` with PYTHONPATH=src and ``--jobs 1``) as a
fresh child process, one at a time, and every output is checked. The run
cycles through the commands until the next one would likely end past
``--seconds``; the first cycle always completes, so every command is
measured and checked at least once.

``--trace 0`` reports the end-to-end metrics of one pass over the commands:
``wall_s`` and ``cpu_s`` add up each command's median (CPU time and peak RSS
come from ``os.wait4`` on that child), ``peak_rss_mb`` is the largest
command's median, and ``setup_s`` is the median time for a fresh
interpreter to import the CLI and reach a command. ``--trace 1`` runs each
command untraced and then traced (``bench/tracer.py``) and reports the
per-layer metrics of a pass plus ``trace.overhead``. The last line of stdout
is one JSON object; the full record, with the environment, goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics, merge  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
RESULTS = BENCH / "results"

WORKLOADS = ("limiting", "finite")
MC_SAMPLES = {False: 100_000, True: 1_000}
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
# 5 standard errors: a correct sampler fails this about once in 1.7 million
MC_SIGMAS = 5

# Exact values the Monte Carlo estimates must approach, copied from the
# golden data (tests/reference_data.py LIMIT_TABLE_8DP, survival = 1 - i_inf;
# tests/golden/finite_fix_5dp.csv); bench/test_bench.py checks the copy.
MC_TARGETS = {
    "survival(k=10)": 1 - Fraction("0.37687192"),
    "survival(k=6)": 1 - Fraction("0.42505870"),
    "fix(n=50, k=20)": Fraction("0.32093"),
    "fix(n=10, k=5)": Fraction("0.31321"),
}
_MC_LINE = re.compile(
    r"(?P<label>.+) = (?P<est>[0-9.]+) \+/- (?P<se>[0-9.]+) "
    r"\(samples=(?P<samples>\d+), seed=(?P<seed>-?\d+)\)\n"
)
# table.rows a traced run of each limiting command must count (the sum of
# its rows column)
EXPECTED_ROWS = {
    ("limit_table", False): 197_135, ("limit_deep", False): 216_928,
    ("limit_table", True): 59, ("limit_deep", True): 29,
}


def commands(workload: str, seed: int, tiny: bool) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of each command of a workload; only mc uses the seed."""
    if workload == "limiting":
        return [
            ("limit_table", ["limit-table", "--k-max", "6" if tiny else "20", "--jobs", "1"]),
            ("limit_deep",
             ["limit", "--k", "6" if tiny else "22", "--digits", "50", "--jobs", "1"]),
        ]
    samples = str(MC_SAMPLES[tiny])
    k, n, nk = ("6", "10", "5") if tiny else ("10", "50", "20")
    return [
        ("finite_table", ["finite-table", "--n-max", "10" if tiny else "50", "--jobs", "1"]),
        ("mc_limit", ["mc", "--k", k, "--samples", samples, "--seed", str(seed)]),
        ("mc_finite", ["mc", "--n", n, "--k", nk, "--samples", samples, "--seed", str(seed)]),
    ]


def check_output(name: str, tiny: bool, args: list[str], stdout: str) -> str | None:
    """None if ``stdout`` is correct for command ``name``, else the reason it is not."""
    if not name.startswith("mc"):
        expected = name + ("_tiny" if tiny else "") + ".txt"
        if stdout != (EXPECTED / expected).read_text(encoding="utf-8"):
            return f"stdout differs from expected/{expected}"
        return None
    m = _MC_LINE.fullmatch(stdout)
    if m is None:
        return f"unparsable mc output {stdout!r}"
    target = MC_TARGETS.get(m["label"])
    if target is None:
        return f"no exact value for {m['label']}"
    if m["samples"] != args[args.index("--samples") + 1] or m["seed"] != args[-1]:
        return f"samples or seed not echoed: {stdout!r}"
    if abs(Fraction(m["est"]) - target) > MC_SIGMAS * Fraction(m["se"]):
        return f"{m['label']} = {m['est']} is over {MC_SIGMAS} sigma from {float(target)}"
    return None


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KSETFIX_JOBS", None)
    return env


def spawn(argv: list[str]) -> Child:
    """Run one child to completion; resource use comes from its own wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        killer.start()
        reader.start()
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        proc.returncode, out.decode("utf-8", "replace"), b"".join(err).decode("utf-8", "replace"),
    )


class Run:
    """Counts attempts and failures of every child a run starts."""

    def __init__(self, workload: str, tiny: bool):
        self.workload, self.tiny = workload, tiny
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, args, exit_code: int, stdout: str, stderr: str,
               rows: int | None = None) -> None:
        self.attempted += 1
        want = EXPECTED_ROWS.get((name, self.tiny))
        if exit_code != 0:
            reason = f"exit {exit_code}: {stderr.strip()[-300:]}"
        else:
            reason = check_output(name, self.tiny, args, stdout)
        if reason is None and rows is not None and want is not None and rows != want:
            reason = f"table.rows = {rows}, want {want}"
        if reason is not None:
            self.failures.append(f"{' '.join(args)}: {reason}")

    def untraced(self, name: str, args: list[str]) -> Child:
        c = spawn([sys.executable, "-m", "ksetfix.cli", *args])
        self.record(name, args, c.exit_code, c.stdout, c.stderr)
        return c

    def traced(self, name: str, args: list[str], path: Path) -> tuple[float, dict | None]:
        """One traced child; returns its wall time and its trace (None if it failed)."""
        c = spawn([sys.executable, str(BENCH / "tracer.py"), str(path), *args])
        if c.exit_code != 0:
            self.record(name, args, c.exit_code, c.stdout, c.stderr)
            return c.wall_s, None
        trace = json.loads(path.read_text(encoding="utf-8"))
        out = trace["output"]
        rows = None
        if "table.enumerate_rows" not in trace["missing"]:
            rows = trace["counters"].get("table.rows", 0)
        self.record(name, args, out["exit_code"], out["stdout"], "", rows)
        return c.wall_s, trace

    def setup(self) -> list[float]:
        """Fresh-interpreter start-up to a command's help, after one warm-up."""
        name, args = commands(self.workload, 0, self.tiny)[0]
        args = [args[0], "--help"]
        walls = []
        for _ in range(SETUP_PROBES + 1):
            c = spawn([sys.executable, "-m", "ksetfix.cli", *args])
            if c.exit_code != 0:
                self.record(name, args, c.exit_code, c.stdout, c.stderr)
            walls.append(c.wall_s)
        return walls[1:]


def cycle(step, n: int, seconds: float) -> list[list]:
    """Call ``step(c, j)`` for command j of cycle c = 0, 1, ... in turn.

    The first cycle always completes. After it, the run stops before a
    command whose median time so far would end past ``seconds``. Returns
    the results of each command, in order.
    """
    deadline = time.perf_counter() + seconds
    results: list[list] = [[] for _ in range(n)]
    took: list[list[float]] = [[] for _ in range(n)]
    i = 0
    while True:
        c, j = divmod(i, n)
        if c and time.perf_counter() + statistics.median(took[j]) > deadline:
            return results
        t0 = time.perf_counter()
        results[j].append(step(c, j))
        took[j].append(time.perf_counter() - t0)
        i += 1


def environment(seed: int, tiny: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "mc_samples": MC_SAMPLES[tiny],
        "tiny": tiny,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the full record written to bench/results/."""
    run = Run(workload, tiny)
    names = [name for name, _ in commands(workload, 0, tiny)]
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload}{'-tiny' if tiny else ''}-seed{seed}"
    record: dict = {"workload": workload, "trace": int(trace), "env": environment(seed, tiny)}

    def command(c, j):
        return commands(workload, seed * 1000 + c, tiny)[j]

    def median(per_command, key):
        return [statistics.median(s[key] for s in samples) for samples in per_command]

    if not trace:
        def step(c, j):
            child = run.untraced(*command(c, j))
            return {"wall_s": child.wall_s, "cpu_s": child.cpu_s, "peak_rss_mb": child.rss_mb}

        setup = run.setup()
        per_command = cycle(step, len(names), seconds)
        metrics = {
            "wall_s": (sum(median(per_command, "wall_s")), "s"),
            "cpu_s": (sum(median(per_command, "cpu_s")), "s"),
            "peak_rss_mb": (max(median(per_command, "peak_rss_mb")), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        record.update(setup_probes=setup)
    else:
        def step(c, j):
            name, args = command(c, j)
            base = run.untraced(name, args)
            wall, spans = run.traced(name, args, RESULTS / f"{tag}-spans{c}-{j}.json")
            return {"wall_s": base.wall_s, "traced_s": wall, "trace": spans}

        per_command = cycle(step, len(names), seconds)
        # cycles that ran every command; the first one always does
        cycles = min(len(samples) for samples in per_command)
        layers = [
            layer_metrics(merge([
                samples[c]["trace"] for samples in per_command
                if samples[c]["trace"] is not None
            ]))
            for c in range(cycles)
        ]
        metrics = {
            name: (statistics.median(layer[name][0] for layer in layers), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead"] = (
            sum(median(per_command, "traced_s")) / sum(median(per_command, "wall_s")),
            "ratio",
        )
        for samples in per_command:
            for s in samples:
                del s["trace"]
    record.update(
        commands=dict(zip(names, per_command)),
        attempted=run.attempted,
        failed=len(run.failures),
        error_rate=len(run.failures) / max(run.attempted, 1),
        failures=run.failures,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    path = RESULTS / f"{tag}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def sources_present() -> bool:
    if (SRC / "ksetfix" / "cli.py").is_file():
        return True
    print(f"no ksetfix sources under {SRC}; run from the repository root", file=sys.stderr)
    return False


def print_record(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']} {name} = {m['value']:.6g} {m['unit']}")
    for name, samples in record["commands"].items():
        walls = [s["wall_s"] for s in samples]
        print(f"{record['workload']} {name}: {len(walls)} runs, untraced wall median "
              f"{statistics.median(walls):.6g} s, max {max(walls):.6g} s "
              "(too few runs for a percentile)")
    print(f"{record['workload']} error_rate = {record['error_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} child runs failed)")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"record: {record['path']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes (k <= 6, n <= 10, 1k samples), for smoke tests")
    opts = ap.parse_args()
    if not sources_present():
        return 2
    # exit through spawn()'s cleanup, which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    record = run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace), opts.tiny)
    print_record(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
