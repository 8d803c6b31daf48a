"""End-to-end runs: iteration sweeps, Grover baseline, sampling statistics.

Every run takes a violation table (``cnf.UnsatTable``) as given, however it
was built; the CLI reads and enumerates a DIMACS file for it.  A sweep starts
from the uniform state and applies the search iterate up to q_max times,
recording two success metrics per iteration count: the data-register
marginal probability of reading the solution (what a lab measurement gives)
and the squared overlap with the amplified state (|0,r> + |1,r>)/sqrt(2),
which is what the closed-form peak 1/B**2 bounds.  The marginal is never
smaller than the overlap, so both are kept.

Every path runs in class coordinates (see ``statevector``): the class
profile comes from the table's histogram, the solutions are its entry 0 (the
u = 0 class), and ``search_step`` advances at most 2(m+1) class amplitudes.
``success_curve``, ``state_after`` and ``measurement_success_rate`` take that
profile as given; the first and last raise ``InstanceError`` when entry 0 is
not u = 0.  The class state is exact: each of the N_0 solutions has amplitude
a_(b,0) / sqrt(N_0) on branch b, so with k solutions each reads the same
curve (Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034).  A sweep records,
then reads: each step is one ``search_step`` and one copy of the pair
(a_(0,0), a_(1,0)), and one pass after the loop turns all pairs into rows,
rounding as numpy's scalar ``abs(a) ** 2`` does, so every row is the bits a
per-step read-out gives.  The Grover baseline has the same symmetry with two
classes, the solution and the other N - 1 assignments, so it steps two real
amplitudes.  The per-assignment state vector and the textbook Grover step are
the tests' oracles, in ``tests/oracles.py``.  A curve whose rows would not fit
in physical memory is refused with ``GuardError`` before it is allocated.

The whole run report is assembled here: ``RunReport.to_json_dict`` fixes the
key order, derives ``cost``, passes the curves as arrays for the CLI's writer
to format row by row, and writes ``repeat_stats`` as
``repeat_until_success_stats`` returns it (stable key order, full-precision
floats).  Timing information is collected but excluded from the JSON by
default so that identical configurations produce byte-identical output.
All sampling uses numpy's seeded PCG64 generator, so runs are reproducible
across platforms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import MAX_ENUMERATION_N, GuardError, InstanceError, UnsatTable, memory_capacity
from .spectral import SpectralSummary, spectral_summary
from .statevector import PhaseProfile, search_step, state_snapshot

# Peak bytes per curve row: tracemalloc's peak over run_sweep plus the output
# text, toy instance, q_max 10**5 and 4 * 10**5, is about 300 for JSON and 285
# for CSV.  The guard takes 590 for every curve, Grover's included, which
# leaves room above both.
CURVE_ROW_BYTES = 590


@dataclass
class RunConfig:
    """How far to sweep, and the instance file name the report echoes; ``run_sweep`` takes the table.

    ``q_max=None`` means 2*q_m, which covers the full first oscillation lobe
    so the peak position is measurable.
    """

    formula_path: str
    q_max: int | None = None
    include_grover: bool = False
    grover_steps: int | None = None

    def __post_init__(self) -> None:
        if self.q_max is not None and self.q_max < 1:
            raise ValueError("q_max must be >= 1")

    def echo(self) -> dict:
        # the path's directory changes no emitted value, so leaving it out keeps
        # reports byte-identical across spellings of the path; guard_n echoes
        # the constant enumeration limit, so the report keeps its keys
        return {
            "formula_path": Path(self.formula_path).name,
            "q_max": self.q_max,
            "include_grover": self.include_grover,
            "grover_steps": self.grover_steps,
            "guard_n": MAX_ENUMERATION_N,
        }


@dataclass
class RunReport:
    """Everything one sweep produced, plus the predictions it is judged against."""

    config: dict
    version: str
    spectral: SpectralSummary
    histogram: list[int]
    solution: int
    curve: np.ndarray  # rows (q, p_marginal, p_overlap) for q = 0..q_max
    q_peak_measured: int
    p_peak_measured: float
    grover_curve: np.ndarray | None
    timings: dict[str, float]
    repeat_stats: dict | None = None  # see repeat_until_success_stats
    snapshot: dict | None = None  # see statevector.state_snapshot; not in the report JSON

    def to_json_dict(self, include_timings: bool = False) -> dict:
        """The run report in its key order; ``repeat_stats`` comes last when trials ran.

        ``curve`` and ``grover_curve`` stay arrays (``cli._json_text`` writes
        them as lists of rows, column 0 as ints).
        """
        s = self.spectral
        expected = None if self.p_peak_measured == 0.0 else s.q_m / self.p_peak_measured
        out = {
            "version": self.version,
            "config": self.config,
            "spectral": s.to_json_dict(),
            "histogram": self.histogram,
            "solution": self.solution,
            "predicted": {"q_m": s.q_m, "success": s.predicted_success},
            "q_peak_measured": self.q_peak_measured,
            "p_peak_measured": self.p_peak_measured,
            "curve": self.curve,
            "grover_curve": self.grover_curve,
        }
        if include_timings:
            out["timings"] = self.timings
        out["cost"] = {  # expected total: q_m per run times 1/p_peak runs on average
            "iterations_per_run": s.q_m,
            "expected_total_iterations": expected,
            "scaling_figure": math.pi * s.B**3 * math.sqrt(1 << s.n) / 4.0,
        }
        if self.repeat_stats is not None:
            out["repeat_stats"] = self.repeat_stats
        return out


def _check_solution_class(classes: PhaseProfile) -> None:
    """Entry 0 of the class profile must be the solution class u = 0."""
    if classes.u[0] != 0:
        raise InstanceError("no assignment satisfies every clause")


def _check_curve_rows(rows: int) -> None:
    """Raise ``GuardError`` when ``rows`` curve rows would not fit in physical memory."""
    if rows > memory_capacity(CURVE_ROW_BYTES):
        raise GuardError(f"a curve of {rows} rows does not fit in physical memory at {CURVE_ROW_BYTES} bytes each")


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """|z|**2 per element, rounded as numpy's scalar ``abs(z) ** 2`` is: C hypot, then C pow.

    Array ``np.abs`` and array ``** 2`` round differently in the last bit.
    """
    return np.fromiter(map(math.pow, np.hypot(z.real, z.imag).tolist(), repeat(2.0)), np.float64, len(z))


def _read_solution(classes: PhaseProfile, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginal and overlap of each solution, one per row (a_(0,0), a_(1,0)) of ``pairs``.

    Each solution has amplitude a_(b,0) / sqrt(N_0) on branch b; the
    marginal is the sum of their squared moduli and the overlap half the
    squared modulus of their sum.
    """
    a0, a1 = (pairs * (1.0 / classes.reflection_axis()[0])).T
    return _squared_moduli(a0) + _squared_moduli(a1), 0.5 * _squared_moduli(a0 + a1)


def success_curve(classes: PhaseProfile, q_max: int) -> np.ndarray:
    """Rows (q, p_marginal, p_overlap) of a solution after q = 0..q_max iterate applications.

    Steps the class profile ``classes``, records the two amplitudes of the
    solution class at every step, then reads all rows in one pass; with k
    solutions the rows are those of each one.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    _check_solution_class(classes)
    _check_curve_rows(q_max + 1)
    size = classes.size
    state = classes.uniform()
    pairs = np.empty((q_max + 1, 2), dtype=np.complex128)
    pairs[0] = state[::size]
    for q in range(1, q_max + 1):
        state = search_step(state, classes)
        pairs[q] = state[::size]
    out = np.empty((q_max + 1, 3))
    out[:, 0] = np.arange(q_max + 1)
    out[:, 1], out[:, 2] = _read_solution(classes, pairs)
    return out


def state_after(classes: PhaseProfile, iterations: int) -> np.ndarray:
    """State of the class profile ``classes`` after the given number of iterate applications."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    state = classes.uniform()
    for _ in range(iterations):
        state = search_step(state, classes)
    return state


def run_sweep(table: UnsatTable, config: RunConfig, snapshot: bool = False) -> RunReport:
    """Full pipeline from the violation table ``table``, however the caller built it: predict, sweep, compare.

    With ``snapshot``, the snapshot document of the class state at q_max
    (see ``statevector.state_snapshot``) goes on ``RunReport.snapshot``;
    computing that state is timed as ``final_state_s`` and building the
    document as ``snapshot_s``.
    """
    solution = table.unique_solution()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    summary = spectral_summary(table)
    timings["spectral_s"] = time.perf_counter() - t0

    q_max = config.q_max if config.q_max is not None else 2 * summary.q_m
    classes = PhaseProfile.from_histogram(table.m, table.histogram)
    t0 = time.perf_counter()
    curve = success_curve(classes, q_max)
    timings["sweep_s"] = time.perf_counter() - t0
    q_peak = int(np.argmax(curve[:, 2]))
    p_peak = float(curve[q_peak, 2])

    grover_curve = None
    if config.include_grover:
        steps = config.grover_steps
        if steps is None:
            steps = grover_optimal_steps(table.assignment_count)
        t0 = time.perf_counter()
        grover_curve = run_grover_baseline(table.assignment_count, steps)
        timings["grover_s"] = time.perf_counter() - t0

    report = RunReport(
        config=config.echo(),
        version=__version__,
        spectral=summary,
        histogram=[int(v) for v in table.histogram],
        solution=solution,
        curve=curve,
        q_peak_measured=q_peak,
        p_peak_measured=p_peak,
        grover_curve=grover_curve,
        timings=timings,
    )
    if snapshot:
        t0 = time.perf_counter()
        final_state = state_after(classes, q_max)
        timings["final_state_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        report.snapshot = state_snapshot(classes, final_state)
        timings["snapshot_s"] = time.perf_counter() - t0
    return report


def grover_optimal_steps(total: int) -> int:
    """floor((pi/4) * sqrt(N)), the baseline's standard iteration count."""
    return int(math.floor(math.pi / 4.0 * math.sqrt(total)))


def run_grover_baseline(total: int, steps: int) -> np.ndarray:
    """Rows (step, p_solution) for the Grover baseline over ``total`` = N assignments.

    From the uniform state the iterate keeps every non-solution amplitude
    equal, so it steps two real amplitudes: a on the solution and b on each
    of the other N - 1 assignments.  One step flips a, then subtracts twice
    the mean amplitude from both, exactly as the textbook step of
    ``tests/oracles.py`` does to the N-vector.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    _check_curve_rows(steps + 1)
    a = b = 1.0 / math.sqrt(total)
    out = np.empty((steps + 1, 2))
    out[0] = (0, a * a)
    for k in range(1, steps + 1):
        a = -a
        twice_mean = 2.0 * (a + (total - 1) * b) / total
        a -= twice_mean
        b -= twice_mean
        out[k] = (k, a * a)
    return out


def measurement_success_rate(
    classes: PhaseProfile,
    iterations: int,
    trials: int,
    rng_seed: int,
) -> float:
    """Fraction of sampled data-register measurements that read out one solution.

    Evolves the uniform state of the class profile ``classes`` for the given
    iteration count and reads one solution's data-register marginal p from the
    two amplitudes of the u = 0 class.  Each trial reads that solution with
    probability p, independently, so the number of hits is one binomial
    draw from numpy's PCG64 generator: the same law as sampling every trial
    from the full 2N-amplitude distribution, in O(1) memory for any
    ``trials``.
    """
    if not 1 <= trials < 1 << 63:  # numpy's binomial draw takes the trial count as a C long
        raise ValueError(f"trials must be >= 1 and < 2**63, got {trials}")
    _check_solution_class(classes)
    marginal, _ = _read_solution(classes, state_after(classes, iterations)[None, :: classes.size])
    rng = np.random.default_rng(rng_seed)
    # rounding can put a certain read-out a few ulp above 1
    return int(rng.binomial(trials, min(float(marginal[0]), 1.0))) / trials


def repeat_until_success_stats(
    table: UnsatTable,
    trials: int,
    rng_seed: int,
) -> dict:
    """Sample data-register measurements at q = q_m of ``table``: the run report's ``repeat_stats``.

    Returns ``trials``, ``rng_seed``, the fraction of trials that read out the
    solution and the implied geometric-distribution mean repeat count 1/rate
    (None when no trial succeeded), in that key order.  Sampling uses numpy's
    PCG64 generator seeded with ``rng_seed``.
    """
    summary = spectral_summary(table)
    classes = PhaseProfile.from_histogram(table.m, table.histogram)
    rate = measurement_success_rate(classes, summary.q_m, trials, rng_seed)
    return {
        "trials": trials,
        "rng_seed": rng_seed,
        "empirical_success_rate": rate,
        "mean_repeats": None if rate == 0.0 else 1.0 / rate,
    }


def curve_rows(curve: np.ndarray, separator: str) -> list[str]:
    """Each row of ``curve`` as text: column 0 as an int, the others as repr floats."""
    template = separator.join(["%d"] + ["%r"] * (curve.shape[1] - 1))
    return [template % tuple(row) for row in curve.tolist()]


def curve_csv(header: str, curve: np.ndarray) -> str:
    """CSV of curve rows: the first column as an int, the others as repr floats."""
    return "\n".join([header, *curve_rows(curve, ",")]) + "\n"
