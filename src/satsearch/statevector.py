"""The search iterate in violation-class coordinates, and the amplitude snapshot.

The register is one ancilla qubit plus n data qubits.  An assignment violating
u of the m clauses picks up exp(+i*pi*u/m) on the b=0 branch and the conjugate
on b=1.  Assignments satisfying everything (u = 0) are untouched; the search
iterate amplifies exactly that fixed fiber.

Class coordinates.  Each clause adds its own phase, with no AND over clauses,
so the iterate treats all assignments with the same violation count alike.
A ``PhaseProfile`` entry therefore carries a multiplicity: entry k stands for
``weights[k]`` assignments that each violate ``u[k]`` clauses.  Production
builds the class profile, one entry per occupied violation count with weight
N_u, from the histogram (``from_histogram``); entry 0 is the solution class
u = 0.  The unit vector of class (b, u) is the normalized indicator of its N_u
assignments, the uniform state is s with s_(b,u) = sqrt(N_u / 2N), and the
iterate is exactly (I - 2ss^T)D on 2(m+1) amplitudes at most, with D the class
phases.  The weighted reflection out -= 2s(s.out) is written with the
unnormalized axis sqrt(weight), so on a profile whose every weight is 1 it is
the plain out.sum()/N of the per-assignment state vector, bit for bit.  A
state holds 2 * size amplitudes, entry k of branch b at b * size + k, and the
reflection's sum is numpy's fixed pairwise reduction, so results do not
depend on threading.  The per-assignment profile, its fold and lift, and the
other per-assignment oracles live in ``tests/oracles.py``.

One kernel per job.  ``search_step`` is the only implementation of the
iterate; its diagonal pass ``state * profile.phases`` is the clause phase
operator D, and on a profile whose every count is 0 it is the bare
reflection about the uniform state.  ``PhaseProfile.uniform()`` is the only
start state.

Snapshots.  ``state_snapshot`` returns the class state itself as a JSON-ready
document: one row [b*(m+1) + u, re, im] per occupied class u on each branch b,
at most 2(m+1) rows.  Each of the N_u assignments of class u has amplitude
a_(b,u) / sqrt(N_u), so the rows and the histogram hold the whole 2N-amplitude
state, and nothing grows with 2**n.  ``tests/oracles.py`` lifts a snapshot
back to per-assignment rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass
class PhaseProfile:
    """Violation counts with multiplicities plus clause count; caches derived vectors.

    Entry k stands for ``weights[k]`` assignments.  ``total`` is N, the
    assignments the entries stand for, and ``size`` the entries per ancilla
    branch: a state holds 2 * size amplitudes.  Both are computed once, and
    ``phases`` and ``axis`` on first read, so that ``search_step`` derives
    nothing per call.
    """

    m: int
    u: np.ndarray
    weights: np.ndarray
    total: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("clause count m must be >= 1")
        self.u = np.asarray(self.u)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.shape != self.u.shape or np.any(self.weights < 1):
            raise ValueError("weights must be positive, one per violation count")
        self.total = int(self.weights.sum())
        self.size = int(self.u.shape[0])

    @classmethod
    def from_histogram(cls, m: int, histogram) -> "PhaseProfile":
        """Class profile: one entry per occupied bin u, weight N_u.

        Entries come in increasing u, so the solutions (u = 0) are entry 0.
        """
        histogram = np.asarray(histogram)
        occupied = np.flatnonzero(histogram)
        return cls(m, occupied, histogram[occupied].astype(np.int64))

    @cached_property
    def phases(self) -> np.ndarray:
        """The clause phases D per amplitude: exp(+i*pi*u/m) on branch 0, the conjugate on branch 1."""
        theta = (np.pi / self.m) * self.u.astype(np.float64)
        upper = np.exp(1j * theta)
        return np.concatenate([upper, upper.conj()])

    @cached_property
    def axis(self) -> np.ndarray:
        """sqrt(weight) per amplitude: the uniform state times sqrt(2N)."""
        root = np.sqrt(self.weights.astype(np.float64))
        return np.concatenate([root, root])

    def uniform(self) -> np.ndarray:
        """Equal superposition over all 2N basis states, in this profile's coordinates."""
        return self.axis * (1.0 / math.sqrt(2 * self.total)) + 0j


def _check_dimension(state: np.ndarray, data_dim: int) -> None:
    if state.shape[0] != 2 * data_dim:
        raise ValueError(
            f"state has {state.shape[0]} amplitudes, expected {2 * data_dim}"
        )


def search_step(state: np.ndarray, profile: PhaseProfile) -> np.ndarray:
    """One search iteration: clause phases D, then the reflection I - 2ss^T.

    With the axis r = sqrt(weight) = sqrt(2N) * s, 2s(s.out) = r(r.out)/N.
    The one scratch array holds r*out, then r times its sum over N.
    """
    if state.shape[0] != 2 * profile.size:  # checked inline: one call fewer per step
        _check_dimension(state, profile.size)
    out = state * profile.phases
    axis = profile.axis
    tmp = axis * out
    np.multiply(axis, np.add.reduce(tmp) / profile.total, out=tmp)
    out -= tmp
    return out


def state_snapshot(classes: PhaseProfile, state: np.ndarray) -> dict:
    """The snapshot document ``{"m": m, "amplitudes": rows}`` of a class state.

    ``state`` is in the coordinates of the class profile ``classes``, whose
    entries come in increasing u.  There is one row [b*(m+1) + u, re, im] per
    entry on each branch b, in increasing key, with the amplitude a_(b,u) as
    it is: the rows' squared moduli sum to the state's norm.
    """
    _check_dimension(state, classes.size)
    keys = np.concatenate([classes.u, classes.u + (classes.m + 1)]).tolist()
    rows = [[k, a.real, a.imag] for k, a in zip(keys, state.tolist())]
    return {"m": classes.m, "amplitudes": rows}
