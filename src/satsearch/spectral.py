"""Closed-form spectral predictions for the search iterate, and its exact spectrum.

For a unique-solution instance the iterate's two principal eigenphases sit at
+/- 2/(B*sqrt(N)) with B = sqrt(1 + lambda2), where N is the histogram's sum,
the table's ``assignment_count`` (2**n when the table is enumerated), and
lambda2 is the quadratic cotangent moment of the violation histogram:

    lambda2 = (1/N) * sum_{u=1..m} N_u * cot^2(pi*u / (2m))

Every quantity here, and the iterate in ``statevector``, depends on the
clauses only through the phase theta_u = pi*u/m of violation class u.
``class_phases`` is its one definition, and ``histogram_classes`` the one
checked step from a histogram to its occupied classes (u, N_u): it raises
``ValueError`` unless the histogram has m + 1 bins, none negative, counting
N > 0 assignments.

The linear moment lambda1 cancels identically between the two conjugate
ancilla branches (cot is odd), so it is pinned to exact zero instead of being
reported as float residue.  The two-eigenphase picture needs the principal
phases well separated from the smallest clause phase pi/m; ``validity_ratio``
measures that separation and a summary is flagged once it exceeds 0.1.

``spectrum`` gives every eigenphase from the histogram alone.  The iterate
(I - 2ss^T)D is a rank-one change of the diagonal unitary D of class phases
(Golub, SIAM Rev. 15, 318 (1973); Bunch, Nielsen and Sorensen, Numer. Math.
31, 31 (1978)), so its eigenphases lambda off D's own solve the secular
equation sum_c s_c^2 cot((lambda - theta_c)/2) = 0, with s_c^2 = N_u / 2N
on each branch.  Pairing the conjugate branches with cot(x - p) + cot(x + p)
= sin 2x / (sin^2 x - sin^2 p) and writing t = sin^2(lambda/2) and
sigma_u = sin^2(theta_u/2), the roots off 0 and pi solve

    N_0 = sum_{u >= 1, N_u > 0} N_u * t / (sigma_u - t).

The right side increases between consecutive poles, so there is exactly one
root in each of (0, sigma_1), (sigma_1, sigma_2), ... over the occupied u,
and each gives the pair +/- 2*asin(sqrt(t)); the first is the principal
pair.  The phases 0 and pi come once each: the spectator (|0,r> - |1,r>)/
sqrt(2) at 0, and at pi either the root that sin(lambda) = 0 leaves when
u = m is empty or the one of D's two -1 entries that the rank-one change
keeps.  Class u also keeps N_u - 1 directions per branch that sum to zero
over its assignments, at +pi*u/m and -pi*u/m exactly.  The eigenvector of
mu = exp(i*lambda) is v ~ (D - mu)^-1 s; its squared overlap with the
amplified state over its squared norm, doubled for the pair, is

    span_weight = 2 / (t * sum_u N_u * (sigma_u + t - 2*sigma_u*t) / (sigma_u - t)^2),

u = 0 included.  The roots are bisected in float64 until each midpoint is
one of its ends.  A file has K = min(m + 1, 2**n) occupied classes at most,
and each bisection pass costs O(K^2): K = 2048 takes 0.35-0.42 s and
K = 8192 3.2-3.8 s, with a tracemalloc peak of 1.2 and 1.9 MiB (2 vCPUs,
numpy 2.4).  The dense eigensolver it is checked against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cnf import UnsatTable

VALIDITY_WARNING_RATIO = 0.1
# Most terms of the secular sums that spectrum evaluates at once: 512 KiB per
# float64 temporary, whatever the number of occupied classes.
SECULAR_TERMS = 1 << 16


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


def class_phases(m: int, u) -> np.ndarray:
    """The clause phase theta_u = pi*u/m of violation class u, in float64.

    The one definition of the phase: the iterate's D, lambda2, the validity
    ratio and the spectrum all read it from here.
    """
    return (np.pi / m) * np.asarray(u, dtype=np.float64)


def _checked_histogram(histogram, m: int) -> np.ndarray:
    """``histogram`` as an array, once it has m + 1 bins, none negative, counting N > 0 assignments."""
    hist = np.asarray(histogram)
    if hist.shape[0] != m + 1:
        raise ValueError(f"histogram must have m+1 = {m + 1} bins, got {hist.shape[0]}")
    total = hist.sum()
    if total <= 0:
        raise ValueError(f"empty search domain: the histogram counts N = {total} assignments")
    if np.any(hist < 0):
        raise ValueError("histogram bins must be >= 0")
    return hist


def histogram_classes(histogram, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupied classes of a violation histogram: (u, N_u), in increasing u."""
    hist = _checked_histogram(histogram, m)
    u = np.flatnonzero(hist)
    return u, hist[u]


def lambda2_from_histogram(histogram, m: int) -> float:
    """Quadratic cotangent moment of a violation histogram (the u = 0 bin is excluded).

    Defined for any histogram, including multi-solution instances; only the
    closed-form summary requires uniqueness.
    """
    hist = np.asarray(_checked_histogram(histogram, m), dtype=np.float64)
    total = hist.sum()
    half_angle = class_phases(m, np.arange(1, m + 1)) / 2.0
    cot_sq = (np.cos(half_angle) / np.sin(half_angle)) ** 2
    return float(np.dot(hist[1:], cot_sq) / total)


def spectral_summary(table: UnsatTable) -> SpectralSummary:
    """All closed-form predictions for a unique-solution instance."""
    table.unique_solution()
    sqrt_n = math.sqrt(table.assignment_count)
    lam2 = lambda2_from_histogram(table.histogram, table.m)
    b = math.sqrt(1.0 + lam2)
    lambda_pm = 2.0 / (b * sqrt_n)
    q_m = max(1, round(math.pi * b * sqrt_n / 4.0))
    ratio = lambda_pm / float(class_phases(table.m, 1))
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


def _secular_roots(solutions: int, counts: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The root t of N_0 = sum_u N_u * t / (sigma_u - t) in each of (0, sigma_1), (sigma_1, sigma_2), ...

    Each chunk of intervals is bisected until every midpoint is one of its
    ends, with at most ``SECULAR_TERMS`` terms of the sums at a time.
    """
    lo, hi = np.concatenate([[0.0], sigma[:-1]]), sigma.copy()
    chunk = max(1, SECULAR_TERMS // sigma.size)
    for start in range(0, sigma.size, chunk):
        low, high = lo[start : start + chunk], hi[start : start + chunk]
        while True:
            mid = 0.5 * (low + high)
            active = np.flatnonzero((low < mid) & (mid < high))
            if not active.size:
                break
            t = mid[active]
            terms = np.subtract(sigma, t[:, None])
            np.divide(counts, terms, out=terms)
            below = t * terms.sum(axis=1) < solutions
            low[active[below]] = t[below]
            high[active[~below]] = t[~below]
    return 0.5 * (lo + hi)


def spectrum(table: UnsatTable) -> EigenPairReport:
    """Every eigenphase of the iterate with its multiplicity, from the histogram alone (see the module docstring).

    Raises ``InstanceError`` unless the table has exactly one solution.
    """
    table.unique_solution()
    u, counts = histogram_classes(table.histogram, table.m)
    solutions, u, counts = counts[0], u[1:], counts[1:]  # class 0 holds the one solution
    theta = class_phases(table.m, u)
    sigma = np.sin(theta / 2.0) ** 2
    roots = _secular_roots(solutions, counts, sigma)
    phases = 2.0 * np.arcsin(np.sqrt(roots))

    # 0 and pi once each, the roots as conjugate pairs, then each class's
    # N_u - 1 spectators per branch; -pi is written pi
    every = np.concatenate([[0.0, np.pi], phases, -phases, theta, -theta])
    one = np.ones(u.size, dtype=np.int64)
    count = np.concatenate([[1, 1], one, one, counts - 1, counts - 1])
    every[every == -np.pi] = np.pi
    kept = count > 0
    distinct, position = np.unique(every[kept], return_inverse=True)

    t = roots[0]
    norm = solutions / t + np.sum(counts * (sigma + t - 2.0 * sigma * t) / (sigma - t) ** 2)
    return EigenPairReport(
        eigenphases=distinct,
        multiplicities=np.bincount(position, weights=count[kept]).astype(np.int64),
        lambda_plus=float(phases[0]),
        lambda_minus=float(-phases[0]),
        span_weight=float(2.0 / (t * norm)),
    )
