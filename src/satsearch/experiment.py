"""End-to-end runs: iteration sweeps, Grover baseline, sampling statistics.

A sweep starts from the uniform state and applies the search iterate up to
q_max times, recording two success metrics per iteration count: the
data-register marginal probability of reading the solution (what a lab
measurement gives) and the squared overlap with the amplified state
(|0,r> + |1,r>)/sqrt(2), which is what the closed-form peak 1/B**2 bounds.
The marginal is never smaller than the overlap, so both are kept.

Every production path runs in class coordinates (see ``statevector``): the
class profile comes from the table's histogram, the solutions are its entry
0 (the u = 0 class), and ``search_step`` advances at most 2(m+1) class
amplitudes.  The class state is exact: each of the N_0 solutions has
amplitude a_(b,0) / sqrt(N_0) on branch b, so with k solutions each reads
the same curve (Boyer, Brassard, Hoyer and Tapp, quant-ph/9605034).
``success_curve`` reads that pair at every step and
``measurement_success_rate`` once; both raise ``InstanceError`` when there
is no u = 0 class.  ``state_after`` returns the class state, which
``state_snapshot`` streams to a file without lifting it to 2N amplitudes
(only the tests call ``PhaseProfile.lift``) and without the table's
per-assignment counts.  The Grover baseline has the same symmetry with two
classes, the solution and the other N - 1 assignments, so it steps two real
amplitudes.  Stepping the full vector remains the oracle path of the tests,
criterion 3's ``dense_eigencheck(PhaseProfile.from_table(...))`` among them.

Reports serialize to JSON (stable key order, full-precision floats) or to CSV
for the curves.  Timing information is collected but excluded from the JSON
by default so that identical configurations produce byte-identical output.
All sampling uses numpy's seeded PCG64 generator, so runs are reproducible
across platforms.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cnf import DEFAULT_GUARD_N, InstanceError, build_unsat_table, read_dimacs
from .spectral import SpectralSummary, spectral_summary
from .statevector import (
    DEFAULT_SNAPSHOT_THRESHOLD,
    PhaseProfile,
    measure_distribution,
    search_step,
    state_snapshot,
)


@dataclass
class RunConfig:
    """Which DIMACS file to read and how far to sweep.

    ``q_max=None`` means 2*q_m, which covers the full first oscillation lobe
    so the peak position is measurable.
    """

    formula_path: str
    q_max: int | None = None
    include_grover: bool = False
    grover_steps: int | None = None
    guard_n: int = DEFAULT_GUARD_N
    threads: int = 1

    def __post_init__(self) -> None:
        if self.q_max is not None and self.q_max < 1:
            raise ValueError("q_max must be >= 1")

    def echo(self) -> dict:
        # threads and the path's directory have no effect on any emitted value;
        # leaving them out keeps reports byte-identical across thread counts
        # and across spellings of the path
        return {
            "formula_path": Path(self.formula_path).name,
            "q_max": self.q_max,
            "include_grover": self.include_grover,
            "grover_steps": self.grover_steps,
            "guard_n": self.guard_n,
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

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "version": self.version,
            "config": self.config,
            "spectral": self.spectral.to_json_dict(),
            "histogram": self.histogram,
            "solution": self.solution,
            "predicted": {
                "q_m": self.spectral.q_m,
                "success": self.spectral.predicted_success,
            },
            "q_peak_measured": self.q_peak_measured,
            "p_peak_measured": self.p_peak_measured,
            "curve": [[int(q), float(pm), float(po)] for q, pm, po in self.curve],
            "grover_curve": None
            if self.grover_curve is None
            else [[int(k), float(p)] for k, p in self.grover_curve],
        }
        if include_timings:
            out["timings"] = self.timings
        return out


def _solution_classes(profile: PhaseProfile) -> PhaseProfile:
    """``profile.classes()``, whose entry 0 must be the solution class u = 0."""
    classes = profile.classes()
    if classes.u[0] != 0:
        raise InstanceError("no assignment satisfies every clause")
    return classes


def _read_solution(classes: PhaseProfile, state: np.ndarray) -> tuple[float, float]:
    """Marginal and overlap of each solution: a_(b,0) / sqrt(N_0) on branch b."""
    return measure_distribution(state[[0, classes.size]] * (1.0 / classes.reflection_axis()[0]), 0)


def success_curve(profile: PhaseProfile, q_max: int) -> np.ndarray:
    """Rows (q, p_marginal, p_overlap) of a solution after q = 0..q_max iterate applications.

    Steps in class coordinates and reads the two amplitudes of the solution
    class at every step; with k solutions the rows are those of each one.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    classes = _solution_classes(profile)
    state = classes.uniform()
    out = np.empty((q_max + 1, 3))
    for q in range(q_max + 1):
        if q:
            state = search_step(state, classes)
        out[q] = (q, *_read_solution(classes, state))
    return out


def state_after(profile: PhaseProfile, iterations: int) -> np.ndarray:
    """Class state reached from uniform after the given number of iterate applications.

    The amplitudes are in ``profile.classes()`` coordinates; ``profile.lift``
    maps them to the full 2N-amplitude state.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    classes = profile.classes()
    state = classes.uniform()
    for _ in range(iterations):
        state = search_step(state, classes)
    return state


def run_sweep(
    config: RunConfig,
    snapshot_path: str | None = None,
    snapshot_threshold: float = DEFAULT_SNAPSHOT_THRESHOLD,
) -> RunReport:
    """Full pipeline: read, enumerate, predict, sweep, compare.

    With a ``snapshot_path``, once the sweep has succeeded, the snapshot
    document of the class state at q_max is written to that file (see
    ``statevector.state_snapshot``) and timed as ``snapshot_s``.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    formula = read_dimacs(config.formula_path)
    table = build_unsat_table(formula, guard_n=config.guard_n, threads=config.threads)
    solution = table.unique_solution()
    timings["enumerate_s"] = time.perf_counter() - t0

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
    # Last, so the file is opened only once everything else has succeeded.
    # Building the report after the snapshot's large temporaries instead
    # measured 2 MiB more peak RSS for `run --trials 1000 --snapshot` at n = 17.
    if snapshot_path is not None:
        t0 = time.perf_counter()
        final_state = state_after(classes, q_max)
        timings["final_state_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        with open(snapshot_path, "w") as handle:
            state_snapshot(handle, formula, classes, final_state, snapshot_threshold)
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
    the mean amplitude from both, exactly as ``statevector.grover_step`` does
    to the N-vector.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
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


def grover_closed_form(total: int, steps: int) -> np.ndarray:
    """sin^2((2k+1) * theta / 2) with theta = 2*arcsin(1/sqrt(N)), k = 0..steps."""
    theta = 2.0 * math.asin(1.0 / math.sqrt(total))
    k = np.arange(steps + 1, dtype=np.float64)
    return np.sin((2.0 * k + 1.0) * theta / 2.0) ** 2


def measurement_success_rate(
    profile: PhaseProfile,
    iterations: int,
    trials: int,
    rng_seed: int,
) -> float:
    """Fraction of sampled data-register measurements that read out one solution.

    Evolves the uniform state for the given iteration count in class
    coordinates and reads one solution's data-register marginal p from the
    two amplitudes of the u = 0 class.  Each trial reads that solution with
    probability p, independently, so the number of hits is one binomial
    draw from numpy's PCG64 generator: the same law as sampling every trial
    from the full 2N-amplitude distribution, in O(1) memory for any
    ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    classes = _solution_classes(profile)
    marginal, _ = _read_solution(classes, state_after(classes, iterations))
    rng = np.random.default_rng(rng_seed)
    # rounding can put a certain read-out a few ulp above 1
    return int(rng.binomial(trials, min(marginal, 1.0))) / trials


def repeat_until_success_stats(
    config: RunConfig,
    trials: int,
    rng_seed: int,
) -> tuple[float, float | None]:
    """Sample data-register measurements at q = q_m.

    Returns the fraction of trials that read out the solution and the implied
    geometric-distribution mean repeat count 1/rate (None when no trial
    succeeded).  Sampling uses numpy's PCG64 generator seeded with
    ``rng_seed``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    formula = read_dimacs(config.formula_path)
    table = build_unsat_table(formula, guard_n=config.guard_n, threads=config.threads)
    summary = spectral_summary(table)
    classes = PhaseProfile.from_histogram(table.m, table.histogram)
    rate = measurement_success_rate(classes, summary.q_m, trials, rng_seed)
    mean_repeats = None if rate == 0.0 else 1.0 / rate
    return rate, mean_repeats


@dataclass(frozen=True)
class CostReport:
    """Iteration budget: one run, expected total, and the B**3 scaling figure."""

    iterations_per_run: int
    expected_total_iterations: float | None
    scaling_figure: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def total_cost_report(report: RunReport) -> CostReport:
    """Expected iteration cost from the measured peak, plus pi*B**3*sqrt(N)/4."""
    summary = report.spectral
    sqrt_n = math.sqrt(1 << summary.n)
    expected = None if report.p_peak_measured == 0.0 else summary.q_m / report.p_peak_measured
    return CostReport(
        iterations_per_run=summary.q_m,
        expected_total_iterations=expected,
        scaling_figure=math.pi * summary.B**3 * sqrt_n / 4.0,
    )


def curve_csv(header: str, curve: np.ndarray) -> str:
    """CSV of curve rows: the first column as an int, the others as repr floats."""
    lines = [header]
    for first, *rest in curve:
        lines.append(",".join([str(int(first)), *(repr(float(v)) for v in rest)]))
    return "\n".join(lines) + "\n"
