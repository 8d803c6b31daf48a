"""End-to-end runs: iteration sweeps, Grover baseline, sampling statistics.

Every run takes a violation table (``cnf.UnsatTable``) as given, however it
was built; the CLI reads and enumerates a DIMACS file for it.  A sweep starts
from the uniform state and applies the search iterate up to q_max times,
recording one success probability per iteration count.  It is the
data-register marginal probability of reading the solution (what a lab
measurement gives) and equally the squared overlap with the amplified state
(|0,r> + |1,r>)/sqrt(2), which the closed-form peak 1/B**2 bounds; the
report keeps it in both columns.

Every path runs in class coordinates (see ``statevector``): the class
profile comes from the table's histogram, the solutions are its entry 0 (the
u = 0 class), and ``search_step`` advances at most m + 1 class amplitudes,
those of branch 0.  ``success_curve``, ``state_after`` and
``measurement_success_rate`` take that profile as given; the first and last
raise ``InstanceError`` when entry 0 is not u = 0.  The class state is exact:
each of the N_0 solutions has amplitude a_(b,0) / sqrt(N_0) on branch b, so
with k solutions each reads the same curve (Boyer, Brassard, Hoyer and Tapp,
quant-ph/9605034).  Branch 1 is the conjugate of branch 0, and a_(0,0) is
real, because the u = 0 phase is exactly 1 and the reflection writes real
parts only; so with a = a_(0,0) / sqrt(N_0) a solution's marginal 2|a|**2
and its overlap 2 Re(a)**2 are both 2a**2, to the bit.  A sweep records,
then reads: each step is one ``search_step`` and one copy of a_(0,0), and
one pass after the loop turns the copies' real parts into 2a**2, rounded as
the same expression on numpy scalars.  The Grover baseline has the same
symmetry with two classes, the solution and the other N - 1 assignments, so
it steps two real amplitudes.  The two-branch and per-assignment state
vectors and the textbook Grover step are the tests' oracles, in
``tests/oracles.py``.  A curve whose rows would not fit in physical memory
fails ``cnf.check_fits`` at ``CURVE_ROW_BYTES`` a row before it is allocated.

The whole run report is assembled here: ``RunReport.to_json_dict`` fixes the
key order, derives ``cost``, passes the curves as arrays for the CLI's writer
to stream in blocks of rows, and writes ``repeat_stats`` as
``repeat_until_success_stats`` returns it (stable key order, full-precision
floats).  No clock is read: identical configurations give byte-identical
reports.  The sampling draw, ``_binomial``, is one Binomial(trials, p)
variate in plain Python on the uniforms of Python's Mersenne Twister,
``random.Random(seed)`` (MT19937; Matsumoto and Nishimura, ACM TOMACS 8, 3
(1998)), which is fixed across platforms, so runs are reproducible and never
import ``numpy.random``: geometric gaps below n p = 10, Hormann's BTRS above.
Its law, not another sampler's bits, is what the tests check, for n up
to 2**63 - 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import MAX_ENUMERATION_N, InstanceError, UnsatTable, check_fits
from .spectral import SpectralSummary, spectral_summary
from .statevector import PhaseProfile, search_step, state_snapshot

# Peak bytes per curve row: tracemalloc's peak over run_sweep plus the streamed
# write of its report, toy instance, q_max 10**5 and 4 * 10**5, is about 56
# for JSON and for CSV: the sweep's 16 bytes a row of recorded amplitudes, the
# 24-byte rows and the read-out's temporaries.  The write streams blocks of
# ``cli.BLOCK_ROWS`` rows, so its own peak (about 0.4 MiB) does not grow with
# the curve.  The guard takes 590 for every curve, Grover's included, which
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
    curve: np.ndarray  # rows (q, p_marginal, p_overlap) for q = 0..q_max; the two probabilities are equal
    q_peak_measured: int
    p_peak_measured: float
    grover_curve: np.ndarray | None
    repeat_stats: dict | None = None  # see repeat_until_success_stats
    snapshot: dict | None = None  # see statevector.state_snapshot; not in the report JSON

    def to_json_dict(self) -> dict:
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
            "cost": {  # expected total: q_m per run times 1/p_peak runs on average, over N = sum(histogram)
                "iterations_per_run": s.q_m,
                "expected_total_iterations": expected,
                "scaling_figure": math.pi * s.B**3 * math.sqrt(sum(self.histogram)) / 4.0,
            },
        }
        if self.repeat_stats is not None:
            out["repeat_stats"] = self.repeat_stats
        return out


def _check_solution_class(classes: PhaseProfile) -> None:
    """Entry 0 of the class profile must be the solution class u = 0."""
    if classes.u[0] != 0:
        raise InstanceError("no assignment satisfies every clause")


def _solution_probability(classes: PhaseProfile, real: np.ndarray) -> np.ndarray:
    """2a**2 for each real solution amplitude a_(0,0) in ``real``, with a = a_(0,0) / sqrt(N_0).

    A solution has amplitude a on both branches, so this is both its marginal
    and its overlap.
    """
    a = real * (1.0 / classes.axis[0])
    return 2.0 * (a * a)


def success_curve(classes: PhaseProfile, q_max: int) -> np.ndarray:
    """Rows (q, p_marginal, p_overlap) of a solution after q = 0..q_max iterate applications.

    Steps the class profile ``classes``, records the solution class's
    amplitude a_(0,0) at every step, then reads all rows in one pass; with k
    solutions the rows are those of each one.  The two probability columns
    are equal, since a_(0,0) is real.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    _check_solution_class(classes)
    check_fits(q_max + 1, CURVE_ROW_BYTES, "curve rows")
    state = classes.uniform()
    amplitudes = np.empty(q_max + 1, dtype=np.complex128)
    amplitudes[0] = state[0]
    for q in range(1, q_max + 1):
        state = search_step(state, classes)
        amplitudes[q] = state[0]
    out = np.empty((q_max + 1, 3))
    out[:, 0] = np.arange(q_max + 1)
    out[:, 1] = out[:, 2] = _solution_probability(classes, amplitudes.real)
    return out


def state_after(classes: PhaseProfile, iterations: int) -> np.ndarray:
    """State of the class profile ``classes`` after the given number of iterate applications.

    The state is branch 0, as ``search_step`` holds it; branch 1 is its conjugate.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    state = classes.uniform()
    for _ in range(iterations):
        state = search_step(state, classes)
    return state


def run_sweep(table: UnsatTable, config: RunConfig, snapshot: bool = False) -> RunReport:
    """Full pipeline from the violation table ``table``, however the caller built it: predict, sweep, compare.

    With ``snapshot``, the snapshot document of the class state at q_max
    (see ``statevector.state_snapshot``) goes on ``RunReport.snapshot``.
    """
    solution = table.unique_solution()
    summary = spectral_summary(table)
    q_max = config.q_max if config.q_max is not None else 2 * summary.q_m
    classes = PhaseProfile.from_histogram(table.m, table.histogram)
    curve = success_curve(classes, q_max)
    q_peak = int(np.argmax(curve[:, 2]))
    p_peak = float(curve[q_peak, 2])

    grover_curve = run_grover_baseline(table.assignment_count, config.grover_steps) if config.include_grover else None

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
    )
    if snapshot:
        report.snapshot = state_snapshot(classes, state_after(classes, q_max))
    return report


def grover_optimal_steps(total: int) -> int:
    """floor((pi/4) * sqrt(N)), the baseline's standard iteration count."""
    return int(math.floor(math.pi / 4.0 * math.sqrt(total)))


def run_grover_baseline(total: int, steps: int | None = None) -> np.ndarray:
    """Rows (step, p_solution) for the Grover baseline over ``total`` = N assignments.

    ``steps=None`` takes ``grover_optimal_steps(total)``.  From the uniform
    state the iterate keeps every non-solution amplitude equal, so it steps
    two real amplitudes: a on the solution and b on each of the other N - 1
    assignments.  One step flips a, then subtracts twice the mean amplitude
    from both, exactly as the textbook step of ``tests/oracles.py`` does to
    the N-vector.
    """
    if total < 1:
        raise ValueError(f"empty search domain: N = {total} assignments")
    steps = grover_optimal_steps(total) if steps is None else steps
    if steps < 0:
        raise ValueError("steps must be >= 0")
    check_fits(steps + 1, CURVE_ROW_BYTES, "curve rows")
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
    u = 0 class's real amplitude a_(0,0).  Each trial
    reads that solution with probability p, independently, so the number of
    hits is one binomial draw, ``_binomial``: the same law as sampling every trial from the full
    2N-amplitude distribution, in O(1) memory for any ``trials``.  A negative
    ``rng_seed``, which ``random.Random`` would take as |rng_seed|, raises ``ValueError``.
    """
    if not 1 <= trials < 1 << 63:  # the range over which the tests check the draw's law
        raise ValueError(f"trials must be >= 1 and < 2**63, got {trials}")
    _check_solution_class(classes)
    p = _solution_probability(classes, state_after(classes, iterations)[:1].real)
    # rounding can put a certain read-out a few ulp above 1
    return _binomial(trials, min(float(p[0]), 1.0), rng_seed) / trials


def repeat_until_success_stats(
    table: UnsatTable,
    trials: int,
    rng_seed: int,
) -> dict:
    """Sample data-register measurements at q = q_m of ``table``: the run report's ``repeat_stats``.

    Returns ``trials``, ``rng_seed``, the fraction of trials that read out the
    solution and the implied geometric-distribution mean repeat count 1/rate
    (None when no trial succeeded), in that key order.  The number of hits is
    one ``_binomial`` draw on ``random.Random(rng_seed)``.
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


def _log_factorial_ratio(a: int, b: int) -> float:
    """log(a! / b!) for a, b >= 0, to a few ulp of its term d log(b + 1), d = a - b.

    Near 2**63 a factorial's log is about 4e20, whose float spacing is 65536,
    so ``lgamma(a + 1) - lgamma(b + 1)`` keeps no digit of the log f(k)/f(mode)
    of order 1 that BTRS tests.  Stirling's series for both (Abramowitz and
    Stegun 6.1.41) gives d log(b + 1) + (a + 1/2) log1p(d / (b + 1)) - d plus
    three tail terms each; the first left out is below 1.5e-12 from 16 up, and
    below 16 ``lgamma`` is exact enough.
    """
    if min(a, b) < 16:
        return math.lgamma(a + 1) - math.lgamma(b + 1)
    d = a - b
    tail_a, tail_b = ((1 / 12 - (1 / 360 - 1 / (1260 * z * z)) / (z * z)) / z for z in (a + 1.0, b + 1.0))
    return d * math.log(b + 1) + (a + 0.5) * math.log1p(d / (b + 1)) - d + tail_a - tail_b


def _binomial(n: int, p: float, seed: int) -> int:
    """A Binomial(n, p) draw for 0 <= n < 2**63 and 0 <= p <= 1, on a fresh ``random.Random(seed)``.

    A fresh generator, not the module-global one, so the draw depends on ``seed`` alone.  ``Random`` seeds with
    |seed|, so a negative seed, which would repeat a positive one, raises ``ValueError``.  Above p = 1/2 the draw
    is n minus the draw at 1 - p.  Below n p = 10 it walks the geometric gaps between successes (Devroye,
    *Non-Uniform Random Variate Generation*, Springer (1986), ch. X), about n p + 1 uniforms; above, it is
    Hormann's BTRS, transformed rejection with a squeeze (J. Statist. Comput. Simul. 46, 101 (1993)), about two
    uniforms at any n.  A uniform of 0.0 reaches no log and no division.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, seed)
    if p == 0.0:
        return 0
    rng = random.Random(seed)
    if n * p < 10.0:
        log_q, hits, left = math.log1p(-p), 0, n
        while True:
            # floor(gap) + 1 trials to the next success; gap is compared as a float, as it is inf at subnormal p
            gap = math.log(1.0 - rng.random()) / log_q
            if gap >= left:
                return hits
            hits, left = hits + 1, left - math.floor(gap) - 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    log_odds = math.log(p / (1.0 - p))
    mode = math.floor((n + 1) * p)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if not 0 <= k <= n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= v_r:
            return k
        # log f(k) / f(mode), f the binomial pmf
        log_ratio = _log_factorial_ratio(mode, k) + _log_factorial_ratio(n - mode, n - k) + (k - mode) * log_odds
        if math.log(v * alpha / (a / (us * us) + b)) <= log_ratio:
            return k
