"""The search iterate in violation-class coordinates, and the amplitude snapshot.

The register is one ancilla qubit plus n data qubits.  An assignment violating
u of the m clauses picks up exp(+i*pi*u/m) on the b=0 branch and the conjugate
on b=1; the phase pi*u/m is ``spectral.class_phases``, its one definition.
Assignments satisfying everything (u = 0) are untouched; the search iterate
amplifies exactly that fixed fiber.

Class coordinates.  Each clause adds its own phase, with no AND over clauses,
so the iterate treats all assignments with the same violation count alike.
A ``PhaseProfile`` entry therefore carries a multiplicity: entry k stands for
``weights[k]`` assignments that each violate ``u[k]`` clauses.  Production
builds the class profile, one entry per occupied violation count with weight
N_u, from the histogram (``from_histogram``, through ``spectral``'s checked
``histogram_classes``); entry 0 is the solution class u = 0.  The unit vector
of class (b, u) is the normalized indicator of its N_u assignments, the
uniform state is s with s_(b,u) = sqrt(N_u / 2N), and the iterate is exactly
(I - 2ss^T)D on 2(m+1) amplitudes at most, with D the class phases.

One branch.  A state holds branch b = 0 only, ``size`` amplitudes a_(0,u);
branch 1 is their conjugate, a_(1,u) = conj(a_(0,u)).  The symmetry is
exact: the uniform state is real and equal on both branches, D multiplies
branch 1 by the conjugates of branch 0's phases, and the reflection axis s is
real and the same on both branches, so each factor maps a state (a, conj a)
to another one.  On such a state s.(a, conj a) = 2 s.Re(a) is real, so the
reflection changes real parts only.  The step is therefore real-linear, not
complex-linear, and ``search_step`` computes no branch-1 amplitude and no
imaginary part of the sum.  Its sum over the axis is one BLAS dot,
``axis.dot``, as ``spectral``'s lambda2 is, and its scale 2/N is derived
once per profile.  The solution amplitude a_(0,0) stays real, its
imaginary part exactly 0.0: the u = 0 phase is exactly 1+0j, and the
reflection writes real parts only.  The two-branch kernel, the per-assignment
profile, its fold and lift, and the other per-assignment oracles live in
``tests/oracles.py``.

One kernel per job.  ``search_step`` is the only implementation of the
iterate; its diagonal pass ``state * profile.phases`` is the clause phase
operator D on branch 0, and on a profile whose every count is 0 it is the
bare reflection about the uniform state.  ``PhaseProfile.uniform()`` is the
only start state.

Snapshots.  ``state_snapshot`` returns the class state itself as a JSON-ready
document: one row [b*(m+1) + u, re, im] per occupied class u on each branch b,
at most 2(m+1) rows, the branch-1 rows the exact conjugates of the branch-0
ones.  Each of the N_u assignments of class u has amplitude a_(b,u) / sqrt(N_u),
so the rows and the histogram hold the whole 2N-amplitude state, and nothing
grows with 2**n.  ``tests/oracles.py`` lifts a snapshot back to
per-assignment rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import class_phases, histogram_classes


@dataclass
class PhaseProfile:
    """Violation counts with multiplicities plus clause count; caches derived vectors.

    Entry k stands for ``weights[k]`` assignments.  ``total`` is N, the
    assignments the entries stand for, ``size`` the number of entries,
    which is also the number of amplitudes a state holds: one per entry, on
    branch 0, and ``scale`` the reflection's 2/N.  All three are derived
    once, and ``phases`` and ``axis`` on first read, so that ``search_step``
    derives nothing per call.
    """

    m: int
    u: np.ndarray
    weights: np.ndarray
    total: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("clause count m must be >= 1")
        self.u = np.asarray(self.u)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.shape != self.u.shape or np.any(self.weights < 1):
            raise ValueError("weights must be positive, one per violation count")
        self.total = int(self.weights.sum())
        self.size = int(self.u.shape[0])
        self.scale = 2.0 / self.total

    @classmethod
    def from_histogram(cls, m: int, histogram) -> "PhaseProfile":
        """Class profile: one entry per occupied bin u, weight N_u.

        Entries come in increasing u, so the solutions (u = 0) are entry 0.
        Raises ``ValueError`` unless the histogram has m + 1 bins, none
        negative, counting N > 0 assignments.
        """
        u, counts = histogram_classes(histogram, m)
        return cls(m, u, counts.astype(np.int64))

    @cached_property
    def phases(self) -> np.ndarray:
        """The clause phases D on branch 0, exp(+i*pi*u/m) per entry; branch 1 has their conjugates."""
        return np.exp(1j * class_phases(self.m, self.u))

    @cached_property
    def axis(self) -> np.ndarray:
        """sqrt(weight) per entry: the uniform state times sqrt(2N), on either branch."""
        return np.sqrt(self.weights.astype(np.float64))

    def uniform(self) -> np.ndarray:
        """Branch 0 of the equal superposition over all 2N basis states: ``size`` amplitudes of squared norm 1/2."""
        return self.axis * (1.0 / math.sqrt(2 * self.total)) + 0j


def _check_dimension(state: np.ndarray, size: int) -> None:
    if state.shape[0] != size:
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected {size}")


def search_step(state: np.ndarray, profile: PhaseProfile) -> np.ndarray:
    """One search iteration on branch 0: clause phases D, then the reflection I - 2ss^T.

    ``state`` holds a_(0,u), and branch 1 is its conjugate, so the reflection
    changes real parts only.  With the axis r = sqrt(weight) = sqrt(2N) * s,
    2s(s.(out, conj out)) on branch 0 is r(r.Re(out) * 2/N), with 2/N read
    from ``profile.scale``, derived once.  Returns a new array; ``state`` is
    not written.
    """
    if state.shape[0] != profile.size:  # checked inline: one call fewer per step
        _check_dimension(state, profile.size)
    out = state * profile.phases
    real = out.real
    axis = profile.axis
    real -= axis * (axis.dot(real) * profile.scale)
    return out


def state_snapshot(classes: PhaseProfile, state: np.ndarray) -> dict:
    """The snapshot document ``{"m": m, "amplitudes": rows}`` of a class state.

    ``state`` is branch 0 in the coordinates of the class profile ``classes``,
    whose entries come in increasing u.  There is one row [u, re, im] per
    entry with a_(0,u) as it is, then one row [m + 1 + u, re, -im] per entry
    with its exact conjugate a_(1,u), so the keys increase and the rows'
    squared moduli sum to the norm of the two-branch state.
    """
    _check_dimension(state, classes.size)
    rows = [[u, a.real, a.imag] for u, a in zip(classes.u.tolist(), state.tolist())]
    shift = classes.m + 1
    rows += [[u + shift, re, -im] for u, re, im in rows]
    return {"m": classes.m, "amplitudes": rows}
