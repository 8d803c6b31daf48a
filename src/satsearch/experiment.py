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
to format row by row, and writes ``repeat_stats`` as
``repeat_until_success_stats`` returns it (stable key order, full-precision
floats).  No clock is read: identical configurations give byte-identical
reports.  The sampling draw is numpy's binomial algorithm in plain Python on
the uniforms of Python's Mersenne Twister, ``random.Random(seed)``; both are
fixed across platforms, so runs are reproducible and never import
``numpy.random``.  The tests feed the algorithm numpy's own uniforms and
check it against ``np.random.default_rng(seed).binomial`` bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .cnf import MAX_ENUMERATION_N, InstanceError, UnsatTable, check_fits
from .spectral import SpectralSummary, spectral_summary
from .statevector import PhaseProfile, search_step, state_snapshot

# Peak bytes per curve row: tracemalloc's peak over run_sweep plus the output
# text, toy instance, q_max 10**5 and 4 * 10**5, is about 300 for JSON and 285
# for CSV.  The sweep's own 16 bytes a row of recorded amplitudes are freed
# before the text is built, so they do not reach that peak.  The guard takes
# 590 for every curve, Grover's included, which leaves room above both.
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
            "cost": {  # expected total: q_m per run times 1/p_peak runs on average
                "iterations_per_run": s.q_m,
                "expected_total_iterations": expected,
                "scaling_figure": math.pi * s.B**3 * math.sqrt(1 << s.n) / 4.0,
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

    grover_curve = None
    if config.include_grover:
        steps = config.grover_steps
        if steps is None:
            steps = grover_optimal_steps(table.assignment_count)
        grover_curve = run_grover_baseline(table.assignment_count, steps)

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
    if not 1 <= trials < 1 << 63:  # the binomial algorithm's arithmetic on the trial count is int64
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
    (None when no trial succeeded), in that key order.  The draw is
    ``_binomial``'s: numpy's binomial algorithm on ``random.Random(rng_seed)``.
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


# The binomial draw: numpy's algorithm, random_binomial, on the uniforms of
# Python's Mersenne Twister (MT19937; Matsumoto and Nishimura, ACM TOMACS 8, 3
# (1998)), which importing numpy 2.4 already loads, so a run never imports
# numpy.random.  numpy draws by inversion when min(p, 1 - p) * n <= 30, else by
# BTPE (Kachitvichyanukul and Schmeiser, CACM 31(2), 216 (1988)).  Floats
# follow the C expressions operation by operation, and the two integer
# expressions that can pass 2**63, n + 1 and -k * k, wrap as numpy's int64
# arithmetic does, so numpy's own uniforms give numpy's draw bit for bit.

_MASK64 = (1 << 64) - 1


def _int64(value: int) -> int:
    """``value`` wrapped to a two's-complement int64, as C's int64 arithmetic leaves it."""
    return ((value + (1 << 63)) & _MASK64) - (1 << 63)


def _log(x: float) -> float:
    """C's log: -inf at 0 and NaN below, where ``math.log`` raises."""
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _binomial_inversion(doubles: Iterator[float], n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion``: walk the probabilities up from 0, restarting past a bound."""
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    px = qn
    u = next(doubles)
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next(doubles)
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _stirling_tail(x: float) -> float:
    """The correction terms of Stirling's series for log x!, as BTPE's final bound writes them."""
    x2 = x * x
    return (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0


def _binomial_btpe(doubles: Iterator[float], n: int, p: float) -> int:
    """numpy's ``random_binomial_btpe`` for p <= 0.5: triangle, parallelograms and exponential tails, then squeezes."""
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        u = next(doubles) * p4
        v = next(doubles)
        if u <= p1:  # the triangle: accepted at once
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k <= 20 or float(k) >= nrq / 2.0 - 1:
            # the exact ratio f(y) / f(m), one factor per step from m to y
            s = r / q
            a = s * _int64(n + 1)
            f = 1.0
            for i in range(m + 1, y + 1):
                f *= a / i - s
            for i in range(y + 1, m + 1):
                f /= a / i - s
            if v > f:
                continue
            return y
        # squeeze on log f(y) / f(m), then Stirling's bound on it; numpy
        # computes x1, f1, z and w in floating point
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _int64(-k * k) / (2 * nrq)
        big_a = _log(v)
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = float(y) + 1.0
        f1 = float(m) + 1.0
        z = float(n) + 1.0 - m
        w = float(n) - y + 1.0
        if big_a > (
            xm * _log(f1 / x1)
            + (n - m + 0.5) * _log(z / w)
            + (y - m) * _log(w * r / (x1 * q))
            + _stirling_tail(f1)
            + _stirling_tail(z)
            + _stirling_tail(x1)
            + _stirling_tail(w)
        ):
            continue
        return y


def _draw_binomial(doubles: Iterator[float], n: int, p: float) -> int:
    """numpy's ``random_binomial`` for 0 <= n < 2**63 and 0 <= p <= 1, on the uniforms in [0, 1) from ``doubles``.

    Draws nothing when n or p is 0; above p = 1/2 it returns n minus the draw at 1 - p.
    """
    if n == 0 or p == 0.0:
        return 0
    r = p if p <= 0.5 else 1.0 - p
    x = (_binomial_inversion if r * n <= 30.0 else _binomial_btpe)(doubles, n, r)
    return x if p <= 0.5 else n - x


def _binomial(n: int, p: float, seed: int) -> int:
    """A Binomial(n, p) draw for 0 <= n < 2**63 and 0 <= p <= 1: numpy's algorithm on a fresh ``random.Random(seed)``.

    A fresh generator, not the module-global one, so the draw depends on ``seed`` alone.  ``Random`` seeds with
    |seed|, so a negative seed, which would repeat a positive one, raises ``ValueError``.

    Near n = 2**63 the draw inherits the algorithm's departure from Binomial(n, p).  Over seeds 0..3999, numpy's
    own ``default_rng(s).binomial`` gives a mean z of -5.5 at (2**63 - 1, 1e-17), and variance ratios of 1.19 at
    (2**63 - 1, 0.5) and 1.08 at (2**62, 0.5); this draw gives -5.9, 1.14 and 1.05.  No fix is made: it would
    depart from numpy's algorithm, against which the tests check this one bit for bit.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _draw_binomial(iter(random.Random(seed).random, None), n, p)
