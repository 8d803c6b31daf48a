"""Command-line front end.

One writer per output: ``gen`` the DIMACS instance, ``analyze`` the spectral
summary JSON (and ``--table``), ``run`` the run report JSON (and
``--snapshot``), ``sweep`` the ``q,p_marginal,p_overlap`` CSV (its two
probability columns are equal for this iterate), ``grover`` the ``step,p_r``
CSV and ``spectrum`` the eigenphase JSON.  Every command is
deterministic given its flags (``gen`` alone takes ``--seed``); JSON output
has a fixed key order and full-precision floats, so identical invocations
produce byte-identical files.  Reports are strict JSON: the encoder refuses
NaN and Infinity, and ``mean_repeats`` is null when no trial succeeds.

Exit codes: 0 success, 2 usage error (including out-of-range values of
--qmax, --steps, --trials, --seed and --trials-seed, ``run --steps``
without ``--grover``, ``--trials-seed`` without ``--trials``, and any two of
``-f``, ``-o``, ``run --snapshot`` and ``analyze --table`` naming the same
file, which is checked before anything is read or written), 3 invalid
instance or formula (any bytes that do not parse as DIMACS, or a file that
cannot be read), 4 guard exceeded: ``cnf.check_enumeration``, n above
``cnf.MAX_ENUMERATION_N`` (30) for any command that enumerates, ``gen``
included, or ``cnf.check_fits``, what would not fit in physical memory: a
DIMACS file (before parsing), ``gen``'s clause count (-m, before any clause
is drawn), ``gen``'s solution list, the violation table's clause tables
(before they are built) or a curve (--qmax, --steps).

``gen`` finds the solutions of its random batch by ``cnf``'s pruned prefix
walk, on one thread; every other command builds the violation table in
``_table``, over the workers ``cnf.build_unsat_table`` picks, and hands it
on.

``run --trials 0`` (the default) takes no samples; a negative count, or one of
2**63 or more (numpy's binomial algorithm does int64 arithmetic on it), is a
usage error.  Seeds must be >= 0: ``gen --seed`` seeds numpy's PCG64, as its
``SeedSequence`` requires, and ``run --trials-seed`` Python's Mersenne
Twister, ``random.Random``, which takes |seed|; ``experiment`` runs numpy's
binomial algorithm on it, without ``numpy.random``.  Each command imports its
layers in its handler, so ``analyze`` never loads the dynamics and only
``gen`` loads the generator.  ``run --snapshot`` writes the class-state
document of ``statevector.state_snapshot``, at most 2(m+1) rows, once the
sweep has succeeded.  Curves are written here alone, row by row: column 0 as
an int, the others as repr floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import combinations

import numpy as np

from .cnf import (
    FormulaError,
    GuardError,
    InstanceError,
    UnsatTable,
    build_unsat_table,
    read_dimacs,
    serialize_dimacs,
)


class UsageError(Exception):
    """A flag value that parses but cannot be used (exit 2)."""


def _check_ranges(args) -> None:
    if getattr(args, "qmax", None) is not None and args.qmax < 1:
        raise UsageError(f"--qmax must be >= 1 or 'auto', got {args.qmax}")
    if getattr(args, "steps", None) is not None:
        if args.steps < 0:
            raise UsageError(f"--steps must be >= 0 or 'auto', got {args.steps}")
        if not getattr(args, "grover", True):
            raise UsageError("--steps needs --grover")
    if not 0 <= getattr(args, "trials", 0) < 1 << 63:
        raise UsageError(f"--trials must be >= 0 and < 2**63, got {args.trials}")
    for name, flag in (("seed", "--seed"), ("trials_seed", "--trials-seed")):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    if getattr(args, "trials_seed", None) is not None and args.trials == 0:
        raise UsageError("--trials-seed needs --trials")
    files = [
        (flag, getattr(args, name))
        for name, flag in (("formula", "-f"), ("output", "-o"), ("snapshot", "--snapshot"), ("table", "--table"))
        if getattr(args, name, None) is not None
    ]
    for (flag, path), (other, other_path) in combinations(files, 2):
        if os.path.realpath(path) == os.path.realpath(other_path):
            raise UsageError(f"{flag} and {other} name the same file: {other_path}")


def _int_or_auto(text: str):
    if text == "auto":
        return None
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsearch",
        description="Simulate and analyze amplitude-amplification search on CNF instances.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", default=None, help="write result to this file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="write a planted 3SAT instance as DIMACS")
    gen.add_argument("-n", type=int, required=True, help="variable count (>= 3)")
    gen.add_argument("-m", type=int, required=True, help="initial random clause count")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (PCG64)")

    analyze = sub.add_parser("analyze", parents=[common], help="spectral summary of an instance")
    analyze.add_argument("-f", "--formula", required=True, help="DIMACS CNF file")
    analyze.add_argument("--table", default=None, help="also write the violation table JSON here")

    sweep = sub.add_parser("sweep", parents=[common], help="success-probability curve over iterations")
    sweep.add_argument("-f", "--formula", required=True)
    sweep.add_argument("--qmax", type=_int_or_auto, default=None, help="sweep bound ('auto' = 2*q_m)")

    run = sub.add_parser("run", parents=[common], help="full run report (JSON)")
    run.add_argument("-f", "--formula", required=True)
    run.add_argument("--qmax", type=_int_or_auto, default=None)
    run.add_argument("--grover", action="store_true", help="include the Grover baseline curve")
    run.add_argument("--steps", type=_int_or_auto, default=None, help="baseline steps ('auto' = floor(pi/4*sqrt(N)))")
    run.add_argument("--trials", type=int, default=0, help="repeat-until-success sampling trials")
    run.add_argument("--trials-seed", type=int, help="sampling seed (Python's Mersenne Twister, default 0)")
    run.add_argument("--snapshot", default=None, help="write the final class-state amplitudes (JSON) here")

    grover = sub.add_parser("grover", parents=[common], help="Grover baseline curve")
    grover.add_argument("-f", "--formula", required=True)
    grover.add_argument("--steps", type=_int_or_auto, default=None)

    spectrum = sub.add_parser("spectrum", parents=[common], help="eigenphases of the search iterate (JSON)")
    spectrum.add_argument("-f", "--formula", required=True)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as handle:
            handle.write(text)


def _curve_rows(curve: np.ndarray, separator: str) -> list[str]:
    """Each row of ``curve`` as text: column 0 as an int, the others as repr floats."""
    template = separator.join(["%d"] + ["%r"] * (curve.shape[1] - 1))
    return [template % tuple(row) for row in curve.tolist()]


def _curve_csv(header: str, curve: np.ndarray) -> str:
    """CSV of curve rows under ``header``, as ``_curve_rows`` writes them."""
    return "\n".join([header, *_curve_rows(curve, ",")]) + "\n"


def _array_text(array: np.ndarray) -> str:
    """A 2-D array as ``json.dumps`` writes its list of rows at depth 1 with ``indent=2``."""
    if not np.isfinite(array).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if not len(array):
        return "[]"
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(_curve_rows(array, ",\n      ")) + "\n    ]\n  ]"


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False)`` plus a newline, for string keys.

    A 2-D array value is written as its list of rows, column 0 as ints, one
    formatted string per row rather than through the pure-Python encoder
    that ``indent`` selects; a non-finite value raises ``ValueError``.
    """
    items = []
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            text = _array_text(value)
        else:
            text = json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def _cmd_gen(args) -> int:
    from .generate import _planted_3sat

    formula, planted = _planted_3sat(args.n, args.m, args.seed)
    text = serialize_dimacs(formula, comments=[f"planted {planted}", f"seed {args.seed}"])
    _emit(text, args.output)
    return 0


def _table(args) -> UnsatTable:
    """The violation table of the DIMACS file ``-f``."""
    return build_unsat_table(read_dimacs(args.formula))


def _cmd_analyze(args) -> int:
    from .spectral import spectral_summary

    table = _table(args)
    summary = spectral_summary(table)
    if args.table is not None:
        _emit(_json_text(table.to_json_dict()), args.table)
    _emit(_json_text(summary.to_json_dict(histogram=table.histogram)), args.output)
    return 0


def _cmd_sweep(args) -> int:
    from .experiment import RunConfig, run_sweep

    report = run_sweep(_table(args), RunConfig(args.formula, args.qmax))
    _emit(_curve_csv("q,p_marginal,p_overlap", report.curve), args.output)
    return 0


def _cmd_run(args) -> int:
    from .experiment import RunConfig, repeat_until_success_stats, run_sweep

    config = RunConfig(args.formula, args.qmax, args.grover, args.steps)
    report = run_sweep(_table(args), config, args.snapshot is not None)
    if report.snapshot is not None:
        _emit(_json_text(report.snapshot), args.snapshot)
    if args.trials > 0:
        # a second read and enumeration of the same file, kept because perfbench's
        # report-n17 pins two; ROADMAP.md item 1 drops both the call and the pin
        report.repeat_stats = repeat_until_success_stats(_table(args), args.trials, args.trials_seed or 0)
    _emit(_json_text(report.to_json_dict()), args.output)
    return 0


def _cmd_grover(args) -> int:
    from .experiment import grover_optimal_steps, run_grover_baseline

    table = _table(args)
    table.unique_solution()  # rejects instances without exactly one solution
    steps = args.steps if args.steps is not None else grover_optimal_steps(table.assignment_count)
    _emit(_curve_csv("step,p_r", run_grover_baseline(table.assignment_count, steps)), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    from .spectral import spectral_summary, spectrum

    table = _table(args)
    summary = spectral_summary(table)
    payload = spectrum(table).to_json_dict()
    payload["predicted_lambda_pm"] = summary.lambda_pm
    _emit(_json_text(payload), args.output)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "run": _cmd_run,
    "grover": _cmd_grover,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse: --help or a malformed command line
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormulaError, InstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
