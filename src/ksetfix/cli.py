"""Command-line interface: tables, listings and Monte Carlo checks.

All output is plain UTF-8 text with LF line endings and is byte
deterministic given the flags and seed. limit, limit-table, finite-table
and ratio accept --jobs (or KSETFIX_JOBS) and ignore it: both engines
run serially. Each command imports its engine in its body, on first
use, so a command loads only the engine it runs and ``--help`` loads
none.
Exit codes: 0 success, 2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import sys

import click

_JOBS_ENV = "KSETFIX_JOBS"


def _echo_lines(lines, output):
    text = "".join(line + "\n" for line in lines)
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


jobs_option = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    envvar=_JOBS_ENV,
    show_default=True,
    help=f"Accepted and ignored; every command runs serially (env {_JOBS_ENV}).",
)
output_option = click.option(
    "--output", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Write to a file instead of stdout.",
)


@click.group()
def main() -> None:
    """Exact fix probabilities of random permutations on k-subsets."""


@main.command()
@click.option("--k", "k", type=click.IntRange(min=1), required=True)
@click.option("--digits", type=click.IntRange(1, 50), default=8, show_default=True)
@click.option(
    "--emit-rows", "emit_rows", type=click.Path(dir_okay=False, writable=True),
    default=None, help="Also write the k-free row stream, one CSV row per line.",
)
@jobs_option
def limit(k: int, digits: int, emit_rows: str | None, jobs: int) -> None:
    """Limiting probabilities for one k, with table diagnostics."""
    from . import limits

    if emit_rows is None:
        survival, stats = limits.limiting_survival_checked(k)
    else:
        with open(emit_rows, "w", encoding="utf-8", newline="\n") as fh:
            survival, stats = limits.limiting_survival_checked(
                k, lambda row: fh.write(",".join(map(str, row)) + "\n")
            )
    surv = limits.evaluate(survival, digits)
    fix = surv.complement()
    click.echo(f"k = {k}")
    click.echo(f"i_inf = {fix}")
    click.echo(f"p_inf = {surv}")
    click.echo(f"rows = {stats.rows_emitted}")
    click.echo(f"partials_considered = {stats.partials_considered}")
    click.echo(f"pruned_universal = {stats.pruned_universal}")
    click.echo(f"pruned_divisibility = {stats.pruned_divisibility}")
    click.echo(f"full_tests = {stats.full_tests}")


@main.command("limit-table")
@click.option("--k-max", type=click.IntRange(min=1), required=True)
@click.option("--digits", type=click.IntRange(1, 50), default=8, show_default=True)
@output_option
@jobs_option
def limit_table(k_max: int, digits: int, output: str | None, jobs: int) -> None:
    """CSV of limiting fix probabilities and row counts for k <= k-max."""
    from . import limits

    lines = ["k,i_inf,rows"]
    for k in range(1, k_max + 1):
        survival, stats = limits.limiting_survival_checked(k)
        fix = limits.evaluate(survival, digits).complement()
        lines.append(f"{k},{fix},{stats.rows_emitted}")
    _echo_lines(lines, output)


@main.command("finite-table")
@click.option("--n-max", type=click.IntRange(min=2), required=True)
@click.option("--k-max", type=click.IntRange(min=1), default=35, show_default=True)
@click.option("--digits", type=click.IntRange(1, 50), default=5, show_default=True)
@click.option(
    "--which", type=click.Choice(["i", "p"]), default="i", show_default=True,
    help="i: fixing probability, p: its complement.",
)
@click.option("--wide", is_flag=True, help="Pretty-print as an n-by-k matrix.")
@output_option
@jobs_option
def finite_table(
    n_max: int, k_max: int, digits: int, which: str, wide: bool,
    output: str | None, jobs: int,
) -> None:
    """CSV (n,k,value) of finite probabilities for 2 <= n <= n-max, k <= n/2."""
    from . import finite

    rows = list(finite.finite_table(n_max, k_max, digits, survival=which == "p"))
    if not wide:
        lines = ["n,k,value"] + [f"{n},{k},{value}" for n, k, value in rows]
        _echo_lines(lines, output)
        return
    width = digits + 3
    k_top = max(k for _, k, _ in rows)
    header = "n\\k".rjust(4) + "".join(str(k).rjust(width) for k in range(1, k_top + 1))
    by_n: dict[int, dict[int, str]] = {}
    for n, k, value in rows:
        by_n.setdefault(n, {})[k] = value
    lines = [header]
    for n in sorted(by_n):
        cells = by_n[n]
        lines.append(
            str(n).rjust(4)
            + "".join(cells.get(k, "").rjust(width) for k in range(1, k_top + 1))
        )
    _echo_lines(lines, output)


@main.command("exceptions")
@click.option("--n-max", type=click.IntRange(min=4), required=True)
@output_option
def exceptions_cmd(n_max: int, output: str | None) -> None:
    """Pairs (n,k) where the fixing probability increases from k to k+1."""
    from . import finite

    pairs = sorted(finite.exceptions(n_max))
    _echo_lines([f"{n},{k}" for n, k in pairs], output)


@main.command()
@click.option("--k-max", type=click.IntRange(min=2), required=True)
@click.option("--digits", type=click.IntRange(1, 50), default=8, show_default=True)
@output_option
@jobs_option
def ratio(k_max: int, digits: int, output: str | None, jobs: int) -> None:
    """CSV of i(k) over the comparison curve k^-d (ln k)^-3/2, for 2 <= k <= k-max."""
    from . import limits

    lines = ["k,ratio"]
    for k in range(2, k_max + 1):
        lines.append(f"{k},{limits.efg_ratio(k, digits)}")
    _echo_lines(lines, output)


@main.command()
@click.option("--k", "k", type=click.IntRange(min=1), required=True)
@click.option("--n", "n", type=click.IntRange(min=1), default=None,
              help="Sample finite degree n instead of the limiting model.")
@click.option("--samples", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
def mc(k: int, n: int | None, samples: int, seed: int) -> None:
    """Monte Carlo estimate of the survival (limit) or fixing (finite) probability."""
    from . import montecarlo

    if n is None:
        est = montecarlo.sample_limit_survival(k, samples, seed)
        label = f"survival(k={k})"
    else:
        if k > n:
            raise click.UsageError("--k must not exceed --n")
        est = montecarlo.sample_finite_fix(n, k, samples, seed)
        label = f"fix(n={n}, k={k})"
    click.echo(
        f"{label} = {est.estimate:.6f} +/- {est.std_error:.6f} "
        f"(samples={est.samples}, seed={est.seed})"
    )


def run() -> None:
    """Entry point wrapper mapping invariant violations to exit code 3."""
    try:
        main.main(standalone_mode=True)
    except AssertionError as err:  # broken internal invariant, not usage
        click.echo(f"internal invariant violation: {err}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    run()
