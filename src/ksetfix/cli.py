"""Command-line interface: tables, listings and Monte Carlo checks.

All output is plain UTF-8 text with LF line endings and is byte
deterministic given the flags and seed. Each command is a function from
the parsed arguments to its output lines and writes nothing itself;
``main`` writes the lines once, to ``--output`` when given, else to
stdout. Both engines run serially; limit, limit-table and finite-table
still accept --jobs and ignore it, so that existing command lines (the
benchmark's among them) keep parsing. Each command imports its engine in
its body, on first use, so a command loads only the engine it runs and
``--help`` loads none.
Arguments are parsed with the standard library's ``argparse``, so the
CLI needs no third-party package.
Exit codes: 0 success, 2 usage error, 3 internal invariant violation.

``main`` is an object with a ``name`` and a ``main(args, prog_name)``
method because that is the interface click's ``CliRunner`` calls: the
tests and ``bench/tracer.py`` run commands in process through it. It can
become a plain function once the tracer reads a run report instead.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from itertools import groupby


def _int_range(low: int, high: int | None = None):
    """argparse type: an integer in [low, high] (no upper end if None)."""
    bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer")
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    return parse


def _writable_file(text: str) -> str:
    """argparse type: a path in an existing directory that is not itself a
    directory and is writable: the file if it exists, else its directory."""
    if not text:
        raise argparse.ArgumentTypeError("file path is empty")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"file {text!r} is a directory")
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no directory to hold file {text!r}")
    if not os.access(text if os.path.exists(text) else directory, os.W_OK):
        raise argparse.ArgumentTypeError(f"file {text!r} is not writable")
    return text


def _echo_lines(lines, output):
    text = "".join(line + "\n" for line in lines)
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside run(), not at exit
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def limit(args) -> list[str]:
    """Limiting probabilities for one k, with table diagnostics."""
    from . import limits

    k = args.k
    if args.emit_rows is None:
        survival, stats = limits.limiting_survival_checked(k)
    else:
        fh = open(args.emit_rows, "w", encoding="utf-8", newline="\n")
        try:
            with fh:
                survival, stats = limits.limiting_survival_checked(k, fh.write)
        except BaseException:
            # a failed or interrupted run leaves no partial rows file; a
            # FIFO, device or symlink (/dev/stdout) is left alone
            with contextlib.suppress(OSError):
                path = args.emit_rows
                if os.path.isfile(path) and not os.path.islink(path):
                    os.remove(path)
            raise
    surv = limits.evaluate(survival, args.digits)
    fix = surv.complement()
    return [
        f"k = {k}",
        f"i_inf = {fix}",
        f"p_inf = {surv}",
        f"rows = {stats.rows_emitted}",
        f"partials_considered = {stats.partials_considered}",
        f"pruned_universal = {stats.pruned_universal}",
        f"pruned_divisibility = {stats.pruned_divisibility}",
        f"full_tests = {stats.full_tests}",
    ]


def limit_table(args) -> list[str]:
    """CSV of limiting fix probabilities and row counts for k <= k-max."""
    from . import limits

    lines = ["k,i_inf,rows"]
    for k in range(1, args.k_max + 1):
        survival, stats = limits.limiting_survival_checked(k)
        fix = limits.evaluate(survival, args.digits).complement()
        lines.append(f"{k},{fix},{stats.rows_emitted}")
    return lines


def finite_table(args) -> list[str]:
    """CSV (n,k,value) of finite probabilities for 2 <= n <= n-max, k <= n/2."""
    from . import finite

    digits = args.digits
    rows = finite.finite_table(
        args.n_max, args.k_max, digits, survival=args.which == "p"
    )
    if not args.wide:
        return ["n,k,value"] + [f"{n},{k},{value}" for n, k, value in rows]
    width = digits + 3
    k_top = min(args.n_max // 2, args.k_max)
    header = "n\\k".rjust(4) + "".join(str(k).rjust(width) for k in range(1, k_top + 1))
    lines = [header]
    for n, group in groupby(rows, lambda row: row[0]):  # rows arrive by n, then k
        cells = "".join(value.rjust(width) for _, _, value in group)
        lines.append(str(n).rjust(4) + cells.ljust(width * k_top))
    return lines


def exceptions(args) -> list[str]:
    """Pairs (n,k) where the fixing probability increases from k to k+1."""
    from . import finite

    pairs = sorted(finite.exceptions(args.n_max))
    return [f"{n},{k}" for n, k in pairs]


def ratio(args) -> list[str]:
    """CSV of i(k) over the comparison curve k^-d (ln k)^-3/2, for 2 <= k <= k-max."""
    from . import limits

    lines = ["k,ratio"]
    for k in range(2, args.k_max + 1):
        lines.append(f"{k},{limits.efg_ratio(k, args.digits)}")
    return lines


def mc(args) -> list[str]:
    """Monte Carlo estimate of the survival (limit) or fixing (finite) probability."""
    from . import montecarlo

    k, n = args.k, args.n
    if n is None:
        est = montecarlo.sample_limit_survival(k, args.samples, args.seed)
        label = f"survival(k={k})"
    else:
        if k > n:
            args.error("--k must not exceed --n")
        est = montecarlo.sample_finite_fix(n, k, args.samples, args.seed)
        label = f"fix(n={n}, k={k})"
    return [
        f"{label} = {est.estimate:.6f} +/- {est.std_error:.6f} "
        f"(samples={est.samples}, seed={est.seed})"
    ]


def _parser(prog: str) -> argparse.ArgumentParser:
    """The argument parser of the six commands."""
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact fix probabilities of random permutations on k-subsets.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        """The subcommand named after ``run``, with its docstring as help."""
        sub = commands.add_parser(
            run.__name__.replace("_", "-"), help=run.__doc__,
            description=run.__doc__, allow_abbrev=False,
        )
        sub.set_defaults(run=run, error=sub.error, output=None)
        return sub

    def digits(sub, default):
        sub.add_argument(
            "--digits", type=_int_range(1, 50), default=default,
            help="Decimal places, 1 to 50 (default: %(default)s).",
        )

    def output(sub):
        sub.add_argument(
            "--output", type=_writable_file, metavar="FILE",
            help="Write to a file instead of stdout.",
        )

    def jobs(sub):
        sub.add_argument(
            "--jobs", type=_int_range(1), default=1,
            help="Accepted and ignored, for existing command lines; every "
            "command runs serially (default: %(default)s).",
        )

    sub = command(limit)
    sub.add_argument("--k", type=_int_range(1), required=True)
    digits(sub, 8)
    sub.add_argument(
        "--emit-rows", type=_writable_file, metavar="FILE",
        help="Also write the k-free row stream, one CSV row per line.",
    )
    jobs(sub)

    sub = command(limit_table)
    sub.add_argument("--k-max", type=_int_range(1), required=True)
    digits(sub, 8)
    output(sub)
    jobs(sub)

    sub = command(finite_table)
    sub.add_argument("--n-max", type=_int_range(2), required=True)
    sub.add_argument(
        "--k-max", type=_int_range(1), default=35, help="(default: %(default)s)"
    )
    digits(sub, 5)
    sub.add_argument(
        "--which", choices=["i", "p"], default="i",
        help="i: fixing probability, p: its complement (default: %(default)s).",
    )
    sub.add_argument(
        "--wide", action="store_true", help="Pretty-print as an n-by-k matrix."
    )
    output(sub)
    jobs(sub)

    sub = command(exceptions)
    sub.add_argument("--n-max", type=_int_range(4), required=True)
    output(sub)

    sub = command(ratio)
    sub.add_argument("--k-max", type=_int_range(2), required=True)
    digits(sub, 8)
    output(sub)

    sub = command(mc)
    sub.add_argument("--k", type=_int_range(1), required=True)
    sub.add_argument(
        "--n", type=_int_range(1),
        help="Sample finite degree n instead of the limiting model.",
    )
    sub.add_argument("--samples", type=_int_range(1), required=True)
    sub.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
    return parser


class _Main:
    """The CLI, in the shape click's ``CliRunner.invoke`` drives."""

    name = "ksetfix"

    def main(self, args=None, prog_name: str | None = None) -> None:
        """Parse ``args`` (default ``sys.argv[1:]``), run the command, write its lines.

        Usage errors exit with code 2 through ``SystemExit``.
        """
        parsed = _parser(prog_name or self.name).parse_args(args)
        _echo_lines(parsed.run(parsed), parsed.output)


main = _Main()


def run() -> None:
    """Entry point wrapper mapping invariant violations to exit code 3."""
    try:
        main.main()
    except AssertionError as err:  # broken internal invariant, not usage
        print(f"internal invariant violation: {err}", file=sys.stderr)
        sys.exit(3)
    except BrokenPipeError:
        # stdout's reader went away (``| head``): exit 1 without a traceback,
        # and point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    run()
