"""Closed-form spectral predictions for the search iterate, plus a dense oracle.

For a unique-solution instance the iterate's two principal eigenphases sit at
+/- 2/(B*sqrt(N)) with B = sqrt(1 + lambda2), where lambda2 is the quadratic
cotangent moment of the violation histogram:

    lambda2 = (1/N) * sum_{u=1..m} N_u * cot^2(pi*u / (2m))

The linear moment lambda1 cancels identically between the two conjugate
ancilla branches (cot is odd), so it is pinned to exact zero instead of being
reported as float residue.  The two-eigenphase picture needs the principal
phases well separated from the smallest clause phase pi/m; ``validity_ratio``
measures that separation and a summary is flagged once it exceeds 0.1.

``dense_eigencheck`` materializes the iterate column by column through
``search_step`` and hands it to a dense eigensolver.  ``spectrum`` runs it on
the class profile of the histogram.  An entry of weight w also stands for
w - 1 directions per branch that sum to zero over its assignments: orthogonal
to the uniform state, they keep D's phases +pi*u/m and -pi*u/m exactly, and
the report adds them to the matrix's own.  A phase within ZERO_PHASE_FLOOR
of zero is reported as 0.0, so the row of the zero-phase spectator
(|0,r> - |1,r>)/sqrt(2) does not carry the eigensolver's last bits.  The
kernel takes any profile, so on the per-assignment profile of
``tests/oracles.py`` (every weight 1) it is the dense oracle the class
spectrum is checked against.  The matrix dimension 2 * profile.size is
guarded at 2048: 64 MiB, n <= 10 per assignment.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cnf import GuardError, InstanceError, UnsatTable
from .statevector import PhaseProfile, search_step

VALIDITY_WARNING_RATIO = 0.1
MAX_EIGENCHECK_DIM = 2048
# dense_eigencheck: eigenphases at or below ZERO_PHASE_FLOOR count as zero and
# are reported as 0.0, and eigenvectors whose squared overlap with the
# amplified state is at or below OVERLAP_FLOOR are spectators of the search
# dynamics
ZERO_PHASE_FLOOR = 1e-9
OVERLAP_FLOOR = 1e-6


@dataclass(frozen=True)
class SpectralSummary:
    """Closed-form predictions derived from a violation histogram."""

    n: int
    m: int
    lambda1: float
    lambda2: float
    B: float
    lambda_pm: float
    q_m: int
    predicted_success: float
    validity_ratio: float
    alpha: float
    validity_warning: bool

    def to_json_dict(self, histogram=None) -> dict:
        out = asdict(self)
        if histogram is not None:
            out["histogram"] = [int(v) for v in histogram]
        return out


def lambda2_from_histogram(histogram, m: int) -> float:
    """Quadratic cotangent moment of a violation histogram (the u = 0 bin is excluded).

    Defined for any histogram, including multi-solution instances; only the
    closed-form summary requires uniqueness.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if hist.shape[0] != m + 1:
        raise ValueError(f"histogram must have m+1 = {m + 1} bins, got {hist.shape[0]}")
    total = hist.sum()
    u = np.arange(1, m + 1, dtype=np.float64)
    half_angle = np.pi * u / (2.0 * m)
    cot_sq = (np.cos(half_angle) / np.sin(half_angle)) ** 2
    return float(np.dot(hist[1:], cot_sq) / total)


def spectral_summary(table: UnsatTable) -> SpectralSummary:
    """All closed-form predictions for a unique-solution instance."""
    table.unique_solution()
    total = table.assignment_count
    sqrt_n = math.sqrt(total)
    lam2 = lambda2_from_histogram(table.histogram, table.m)
    b = math.sqrt(1.0 + lam2)
    lambda_pm = 2.0 / (b * sqrt_n)
    q_m = max(1, round(math.pi * b * sqrt_n / 4.0))
    ratio = lambda_pm / (math.pi / table.m)
    return SpectralSummary(
        n=table.n,
        m=table.m,
        lambda1=0.0,
        lambda2=lam2,
        B=b,
        lambda_pm=lambda_pm,
        q_m=q_m,
        predicted_success=1.0 / (b * b),
        validity_ratio=ratio,
        alpha=1.0 / sqrt_n,
        validity_warning=ratio > VALIDITY_WARNING_RATIO,
    )


@dataclass
class EigenPairReport:
    """Principal eigenphase pair, and every eigenphase in (-pi, pi] once with its multiplicity."""

    eigenphases: np.ndarray
    multiplicities: np.ndarray
    lambda_plus: float
    lambda_minus: float
    span_weight: float

    def to_json_dict(self) -> dict:
        return {
            "lambda_plus": self.lambda_plus,
            "lambda_minus": self.lambda_minus,
            "span_weight": self.span_weight,
            "eigenphases": [
                [float(p), int(k)] for p, k in zip(self.eigenphases, self.multiplicities)
            ],
        }


def iterate_matrix(profile: PhaseProfile) -> np.ndarray:
    """Materialize the search iterate column by column through ``search_step``."""
    dim = 2 * profile.size
    matrix = np.empty((dim, dim), dtype=np.complex128)
    basis = np.zeros(dim, dtype=np.complex128)
    for k in range(dim):
        basis[k] = 1.0
        matrix[:, k] = search_step(basis, profile)
        basis[k] = 0.0
    return matrix


def dense_eigencheck(profile: PhaseProfile) -> EigenPairReport:
    """Full eigendecomposition of the iterate; extracts the principal pair.

    The principal pair is the conjugate eigenphase pair of smallest nonzero
    magnitude with nonzero overlap against the amplified state (|0,r> +
    |1,r>)/sqrt(2); the overlap floor filters the exact zero-phase spectator
    (|0,r> - |1,r>)/sqrt(2), which is orthogonal to everything the search
    dynamics touches.  The u = 0 entries must hold one assignment r.
    """
    dim = 2 * profile.size
    if dim > MAX_EIGENCHECK_DIM:
        raise GuardError(
            f"dense eigencheck limited to matrix dimension {MAX_EIGENCHECK_DIM}, got {dim}"
        )
    solution = np.flatnonzero(profile.u == 0)
    found = int(profile.weights[solution].sum())
    if found != 1:
        raise InstanceError(f"expected exactly one satisfying assignment, found {found}")
    values, vectors = np.linalg.eig(iterate_matrix(profile))
    if np.max(np.abs(np.abs(values) - 1.0)) > 1e-8:
        raise RuntimeError("eigensolver returned non-unimodular eigenvalues for a unitary")

    phases = np.angle(values)
    target = np.zeros(dim, dtype=np.complex128)
    target[solution] = target[profile.size + solution] = 1.0 / math.sqrt(2.0)
    overlaps = np.abs(vectors.conj().T @ target) ** 2

    eligible = np.flatnonzero((np.abs(phases) > ZERO_PHASE_FLOOR) & (overlaps > OVERLAP_FLOOR))
    if eligible.size < 2:
        raise RuntimeError("no principal eigenphase pair found above the overlap floor")
    eligible = eligible[np.argsort(np.abs(phases[eligible]))]
    first = eligible[0]
    opposite = [k for k in eligible[1:] if phases[k] * phases[first] < 0]
    if not opposite:
        raise RuntimeError("principal eigenphases do not form a conjugate pair")
    second = opposite[0]
    plus, minus = (first, second) if phases[first] > 0 else (second, first)

    # the matrix's phases once each, then each entry's w - 1 spectators per branch
    every = np.concatenate([phases, np.angle(profile.phase_vector())])
    count = np.concatenate([np.ones(dim, dtype=np.int64), np.tile(profile.weights - 1, 2)])
    every[every == -np.pi] = np.pi
    every[np.abs(every) <= ZERO_PHASE_FLOOR] = 0.0  # e.g. the exact spectator's LAPACK noise
    kept = count > 0
    distinct, position = np.unique(every[kept], return_inverse=True)
    return EigenPairReport(
        eigenphases=distinct,
        multiplicities=np.bincount(position, weights=count[kept]).astype(np.int64),
        lambda_plus=float(phases[plus]),
        lambda_minus=float(phases[minus]),
        span_weight=float(overlaps[plus] + overlaps[minus]),
    )
