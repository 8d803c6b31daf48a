"""Correctness checks on the files one ``satsearch`` command wrote.

Each check returns a list of failure messages; an empty list means the output
is correct.  The spectral quantities are recomputed here from the emitted
histogram, independently of ``satsearch.spectral``, and the reported solution
is checked clause by clause with the scalar ``Clause.satisfied_by``.
Tolerances are those of acceptance criterion 4: the overlap at q_m within 25%
of 1/B**2, and the peak position within max(2, 0.1*q_m) of q_m.  Like that
criterion, the peak check applies where the closed form is valid, at a
validity ratio (2/(B*sqrt(N)) over pi/m, recomputed here) of at most 0.05.
Every workload at full size is well inside that; the n = 10 smoke instances
are not.
"""

from __future__ import annotations

import json
import math

from satsearch import CnfFormula

PEAK_HEIGHT_TOL = 0.25
PEAK_VALIDITY_RATIO = 0.05
TRIALS_SIGMAS = 6.0
NORM_TOL = 1e-6
GROVER_TOL = 1e-9


def _b_from_histogram(formula: CnfFormula, histogram: list) -> float:
    m = formula.m
    lambda2 = sum(
        count / math.tan(math.pi * u / (2 * m)) ** 2 for u, count in enumerate(histogram) if u
    ) / formula.assignment_count
    return math.sqrt(1.0 + lambda2)


def _validity_ratio(formula: CnfFormula, histogram: list) -> float:
    """Principal eigenphase 2/(B*sqrt(N)) over the smallest clause phase pi/m."""
    b = _b_from_histogram(formula, histogram)
    return 2.0 / (b * math.sqrt(formula.assignment_count)) / (math.pi / formula.m)


def _spectral_failures(formula: CnfFormula, histogram: list, spectral: dict) -> list[str]:
    total = formula.assignment_count
    if len(histogram) != formula.m + 1:
        return [f"histogram has {len(histogram)} bins, expected m+1 = {formula.m + 1}"]
    if sum(histogram) != total:
        return [f"histogram sums to {sum(histogram)}, expected 2**n = {total}"]
    failures = []
    if histogram[0] != 1:
        failures.append(f"histogram[0] = {histogram[0]}, expected one solution")
    if (spectral["n"], spectral["m"]) != (formula.n, formula.m):
        failures.append(f"spectral n, m = {spectral['n']}, {spectral['m']} do not match the instance")
    b = _b_from_histogram(formula, histogram)
    if abs(spectral["B"] - b) > 1e-9 * b:
        failures.append(f"B = {spectral['B']!r}, recomputed {b!r}")
    if abs(spectral["predicted_success"] - 1.0 / b**2) > 1e-9:
        failures.append("predicted_success differs from 1/B**2")
    if abs(spectral["q_m"] - math.pi * b * math.sqrt(total) / 4.0) > 0.5 + 1e-6:
        failures.append(f"q_m = {spectral['q_m']} is not round(pi*B*sqrt(N)/4)")
    return failures


def _solution_failures(formula: CnfFormula, solutions: list) -> list[str]:
    if len(solutions) != 1:
        return [f"{len(solutions)} solutions reported, expected exactly one"]
    solution = solutions[0]
    unsatisfied = [k for k, clause in enumerate(formula.clauses) if not clause.satisfied_by(solution)]
    if unsatisfied:
        return [f"solution {solution} violates clauses {unsatisfied[:5]}"]
    return []


def check_summary(formula: CnfFormula, summary: dict, table: dict) -> list[str]:
    """``analyze`` output: the summary and the ``--table`` export."""
    failures = _spectral_failures(formula, summary["histogram"], summary)
    if table["histogram"] != summary["histogram"]:
        failures.append("table histogram differs from summary histogram")
    return failures + _solution_failures(formula, table["solutions"])


def check_report(formula: CnfFormula, report: dict) -> list[str]:
    """``run`` output: spectral prediction, solution, sweep peak, trials and baseline."""
    spectral = report["spectral"]
    failures = _spectral_failures(formula, report["histogram"], spectral)
    failures += _solution_failures(formula, [report["solution"]])
    if failures:
        return failures

    q_m, predicted = spectral["q_m"], spectral["predicted_success"]
    curve = report["curve"]
    if [row[0] for row in curve] != list(range(2 * q_m + 1)):
        return [f"curve rows are not q = 0..2*q_m = {2 * q_m}"]
    if any(row[2] > row[1] + 1e-12 for row in curve):
        failures.append("overlap exceeds marginal somewhere on the curve")
    q_peak = max(range(len(curve)), key=lambda q: curve[q][2])
    if report["q_peak_measured"] != q_peak:
        failures.append(f"q_peak_measured {report['q_peak_measured']} is not the curve argmax {q_peak}")
    if _validity_ratio(formula, report["histogram"]) <= PEAK_VALIDITY_RATIO:
        p_at_qm = curve[q_m][2]
        if abs(p_at_qm - predicted) > PEAK_HEIGHT_TOL * predicted:
            failures.append(f"overlap at q_m {p_at_qm!r} not within 25% of 1/B**2 = {predicted!r}")
        if abs(q_peak - q_m) > max(2, 0.1 * q_m):
            failures.append(f"peak at q = {q_peak}, q_m = {q_m}")

    stats = report.get("repeat_stats")
    if stats is not None:
        p, trials = curve[q_m][1], stats["trials"]
        band = TRIALS_SIGMAS * math.sqrt(p * (1 - p) / trials) + 1.0 / trials
        rate = stats["empirical_success_rate"]
        if abs(rate - p) > band:
            failures.append(f"trials rate {rate} outside {p:.4f} +/- {band:.4f}")
        if rate > 0 and abs(stats["mean_repeats"] - 1.0 / rate) > 1e-9 / rate:
            failures.append("mean_repeats is not 1/rate")

    grover = report.get("grover_curve")
    if grover is not None:
        total = formula.assignment_count
        theta = 2.0 * math.asin(1.0 / math.sqrt(total))
        if len(grover) != math.floor(math.pi / 4.0 * math.sqrt(total)) + 1:
            failures.append(f"grover curve has {len(grover)} rows")
        worst = max(abs(p - math.sin((2 * k + 1) * theta / 2.0) ** 2) for k, p in grover)
        if worst > GROVER_TOL:
            failures.append(f"grover curve off its closed form by {worst:.3e}")
    return failures


def check_snapshot(snapshot: dict) -> list[str]:
    norm = sum(re * re + im * im for _, re, im in snapshot["amplitudes"])
    if abs(norm - 1.0) > NORM_TOL:
        return [f"snapshot norm {norm!r}, expected 1"]
    return []


def check_outputs(formula: CnfFormula, outputs: dict[str, bytes]) -> list[str]:
    """Check every file a workload writes; unparseable or missing output fails."""
    try:
        docs = {name: json.loads(data) for name, data in outputs.items()}
        if "summary.json" in docs:
            failures = check_summary(formula, docs["summary.json"], docs["table.json"])
        else:
            failures = check_report(formula, docs["report.json"])
        if "snapshot.json" in docs:
            failures += check_snapshot(docs["snapshot.json"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output does not parse as expected: {type(exc).__name__}: {exc}"]
    return failures
