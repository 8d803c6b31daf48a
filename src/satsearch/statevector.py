"""State-vector kernels over the ancilla-extended search space.

The register is one ancilla qubit plus n data qubits.  Amplitude (b, i) lives
at flat index b*N + i with N = 2**n, so each ancilla branch is a contiguous
block: the clause-phase operator becomes a stride-1 elementwise multiply and
the reflection needs a single global sum.  That sum uses numpy's fixed
pairwise reduction, so results are reproducible and independent of threading.

Phase convention: an assignment violating u of the m clauses picks up
exp(+i*pi*u/m) on the b=0 branch and the conjugate on b=1.  Assignments
satisfying everything (u = 0) are untouched; the search iterate amplifies
exactly that fixed fiber.

Class coordinates.  Each clause adds its own phase, so the iterate treats all
assignments with the same violation count alike.  A ``PhaseProfile`` entry
therefore carries a multiplicity: entry k stands for ``weights[k]``
assignments that each violate ``u[k]`` clauses.  Production paths build the
class profile, one entry per occupied violation count with weight N_u, from
the histogram (``from_histogram``); entry 0 is the solution class u = 0.
The per-assignment profile (every weight 1, one entry per assignment) is the
oracle; its ``classes()`` folds it into the same class profile.  In class
coordinates the unit vector of class (b, u)
is the normalized indicator of its N_u assignments, the uniform state is s
with s_(b,u) = sqrt(N_u / 2N), and the iterate is exactly (I - 2ss^T)D on
2(m+1) amplitudes at most, with D the class phases.  ``search_step`` is one
kernel for both coordinate systems: the weighted reflection out -= 2s(s.out)
is written with the unnormalized axis sqrt(weight), so for all-ones weights
it is the plain out.sum()/N of the per-assignment path, bit for bit.  The
tests alone map a class state back to the 2N amplitudes with ``lift``.

One kernel per job.  ``search_step`` is the only implementation of the
iterate; its diagonal pass ``state * profile.phase_vector()`` is the clause
phase operator D, and on a profile whose every count is 0 it is the bare
reflection about the uniform state.  ``PhaseProfile.uniform()`` is the only
start state.  Two independent paths stay as oracles: ``grover_step``, the
textbook iterate on the bare N-dimensional register (the oracle of acceptance
criterion 5 and of the two-amplitude Grover baseline in ``experiment``; no
production path calls it), and ``apply_clause_phases_factored``, which
evaluates clauses one by one instead of reading a violation table.

The per-assignment path stays as the oracle of the class engine: the tests,
acceptance criterion 3 through ``dense_eigencheck(PhaseProfile.from_table(...))``
and criteria 2 and 8 step or multiply the full 2**(n+1)-amplitude vector.

Snapshots.  ``state_snapshot`` writes the JSON document of the lifted
state's (index, re, im) rows straight from the class state: each assignment
of class c has amplitude a_(b,c) / sqrt(N_c), so it formats those at most
2(m+1) values once and gives each row the text of its assignment's class.
It streams the rows to an open file, branch by branch and enumeration block
by block.  Each block's violation counts are computed again, one matrix
product each, by the block counter ``cnf.build_unsat_table`` uses; the
counter's per-clause set-up is made once per snapshot.  Only the file grows
with 2**n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .cnf import CnfFormula, _block_counter, _blocks, violation_mask

# Rows of a snapshot formatted and written at a time.
_ROWS_PER_WRITE = 1 << 12

# Modulus at or below which a snapshot leaves an amplitude out.
DEFAULT_SNAPSHOT_THRESHOLD = 1e-6


@dataclass
class PhaseProfile:
    """Violation counts with multiplicities plus clause count; caches derived vectors.

    Entry k stands for ``weights[k]`` assignments, each of weight 1 in the
    per-assignment profile.  ``total`` is N, the assignments the entries
    stand for.
    """

    m: int
    u: np.ndarray
    weights: np.ndarray
    total: int = field(init=False, repr=False, compare=False)
    _phases: np.ndarray | None = field(default=None, repr=False, compare=False)
    _axis: np.ndarray | None = field(default=None, repr=False, compare=False)
    _classes: "PhaseProfile | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("clause count m must be >= 1")
        self.u = np.asarray(self.u)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.shape != self.u.shape or np.any(self.weights < 1):
            raise ValueError("weights must be positive, one per violation count")
        self.total = int(self.weights.sum())

    @classmethod
    def from_histogram(cls, m: int, histogram) -> "PhaseProfile":
        """Class profile, its own ``classes()``: one entry per occupied bin u, weight N_u.

        Entries come in increasing u, so the solutions (u = 0) are entry 0.
        """
        histogram = np.asarray(histogram)
        occupied = np.flatnonzero(histogram)
        profile = cls(m, occupied, histogram[occupied].astype(np.int64))
        profile._classes = profile
        return profile

    @classmethod
    def from_table(cls, table) -> "PhaseProfile":
        """Per-assignment profile of a violation table (the oracle coordinates)."""
        return cls(table.m, table.counts, np.ones(table.assignment_count, dtype=np.int64))

    @classmethod
    def all_violated(cls, n: int, solution: int) -> "PhaseProfile":
        """Profile with m = 1 where every non-solution violates the one clause.

        All non-solution phases are exp(+/- i*pi) = -1, which turns the search
        iterate into a plain Grover iterate on the doubled register.  This
        regime is not realizable as a CNF formula for n > 1 (a single
        OR-clause can only be violated on a subcube), so it is constructed
        directly as a table.
        """
        u = np.ones(1 << n, dtype=np.int32)
        u[solution] = 0
        return cls(1, u, np.ones(1 << n, dtype=np.int64))

    @property
    def size(self) -> int:
        """Entries per ancilla branch: amplitudes of a state are 2 * size."""
        return int(self.u.shape[0])

    def phase_vector(self) -> np.ndarray:
        if self._phases is None:
            theta = (np.pi / self.m) * self.u.astype(np.float64)
            upper = np.exp(1j * theta)
            self._phases = np.concatenate([upper, upper.conj()])
        return self._phases

    def reflection_axis(self) -> np.ndarray:
        """sqrt(weight) per amplitude: the uniform state times sqrt(2N)."""
        if self._axis is None:
            root = np.sqrt(self.weights.astype(np.float64))
            self._axis = np.concatenate([root, root])
        return self._axis

    def uniform(self) -> np.ndarray:
        """Equal superposition over all 2N basis states, in this profile's coordinates."""
        return self.reflection_axis() * (1.0 / math.sqrt(2 * self.total)) + 0j

    def classes(self) -> "PhaseProfile":
        """One entry per occupied violation count, weighted by its multiplicity."""
        if self._classes is None:
            counts = np.bincount(self.u, weights=self.weights, minlength=self.m + 1)
            self._classes = PhaseProfile.from_histogram(self.m, counts)
        return self._classes

    def entries(self, counts) -> np.ndarray:
        """Entry of this class profile that holds each violation count in ``counts``."""
        return np.searchsorted(self.u, counts)

    def lift(self, class_state: np.ndarray) -> np.ndarray:
        """Amplitudes per entry of a state given in ``classes()`` coordinates.

        Each of the N_c assignments of class c gets a_c / sqrt(N_c) on each
        branch; for a per-assignment profile this is the full state vector.
        """
        classes = self.classes()
        _check_dimension(class_state, classes.size)
        per_assignment = class_state / classes.reflection_axis()
        position = classes.entries(self.u)
        return np.concatenate(
            [per_assignment[: classes.size][position], per_assignment[classes.size :][position]]
        )


def _check_dimension(state: np.ndarray, data_dim: int) -> None:
    if state.shape[0] != 2 * data_dim:
        raise ValueError(
            f"state has {state.shape[0]} amplitudes, expected {2 * data_dim}"
        )


def apply_clause_phases_factored(state: np.ndarray, formula: CnfFormula) -> np.ndarray:
    """Apply the m per-clause phase factors sequentially.

    Each clause multiplies branch b=0 by exp(i*pi/m) on the assignments it
    leaves unsatisfied, and branch b=1 by the conjugate.  This path evaluates
    clauses directly instead of using a precomputed violation table, so it
    cross-checks the diagonal pass ``state * profile.phase_vector()`` that
    ``search_step`` makes, as an independent implementation.
    Being diagonal, the factors commute and clause order is irrelevant.
    """
    data_dim = 1 << formula.n
    _check_dimension(state, data_dim)
    indices = np.arange(data_dim, dtype=np.int64)
    out = np.array(state, dtype=np.complex128, copy=True)
    factor = np.exp(1j * np.pi / formula.m)
    for clause in formula.clauses:
        violated = violation_mask(clause, indices)
        out[:data_dim][violated] *= factor
        out[data_dim:][violated] *= factor.conjugate()
    return out


def search_step(state: np.ndarray, profile: PhaseProfile) -> np.ndarray:
    """One search iteration: clause phases D, then the reflection I - 2ss^T.

    With the axis r = sqrt(weight) = sqrt(2N) * s, 2s(s.out) = r(r.out)/N.
    """
    _check_dimension(state, profile.size)
    out = state * profile.phase_vector()
    axis = profile.reflection_axis()
    out -= axis * ((axis * out).sum() / profile.total)
    return out


def grover_step(state: np.ndarray, solution: int) -> np.ndarray:
    """Textbook Grover iterate on a bare N-dim data register.

    The baseline flips the known solution's phase directly (the oracle answer
    is injected), then reflects about the uniform state.  The sign convention
    matches the reflection in ``search_step``; it differs from the
    inversion-about-mean form only by a global phase.
    """
    out = np.array(state, dtype=np.complex128, copy=True)
    out[solution] = -out[solution]
    out -= 2.0 * out.sum() / out.shape[0]
    return out


def measure_distribution(state: np.ndarray, solution: int) -> tuple[float, float]:
    """Success statistics of a joint-register state for a known solution.

    Returns the data-register marginal probability of reading the solution
    and the squared overlap with the state (|0,r> + |1,r>)/sqrt(2).  The
    marginal can never be smaller than the overlap: the overlap picks one
    direction out of the two-dimensional ancilla fiber the marginal sums over.
    """
    data_dim = state.shape[0] // 2
    if not 0 <= solution < data_dim:
        raise ValueError(f"solution index {solution} out of range for N={data_dim}")
    a0 = state[solution]
    a1 = state[data_dim + solution]
    marginal = abs(a0) ** 2 + abs(a1) ** 2
    overlap = 0.5 * abs(a0 + a1) ** 2
    return float(marginal), float(overlap)


def state_snapshot(
    handle: TextIO,
    formula: CnfFormula,
    classes: PhaseProfile,
    state: np.ndarray,
    threshold: float = DEFAULT_SNAPSHOT_THRESHOLD,
) -> None:
    """Write the JSON document of the (index, re, im) rows above the magnitude threshold.

    ``state`` is in the coordinates of ``classes``, the class profile of
    ``formula``'s histogram.  The bytes written to the text file ``handle``
    are those of ``json.dumps({"threshold": threshold, "amplitudes": rows},
    indent=2)`` plus a final newline, one row per amplitude of the lifted
    state whose modulus exceeds ``threshold``.  Each enumeration block's
    counts are computed again and its rows written in slices of
    ``_ROWS_PER_WRITE``, so neither the counts of all assignments nor the
    whole document is ever held in memory.
    """
    _check_dimension(state, classes.size)
    amplitudes = state / classes.reflection_axis()
    kept = np.abs(amplitudes) > threshold
    tails = [
        f",\n      {json.dumps(a.real)},\n      {json.dumps(a.imag)}\n    ]"
        for a in amplitudes.tolist()
    ]
    block_counts = _block_counter(formula)
    handle.write(f'{{\n  "threshold": {json.dumps(threshold)},\n  "amplitudes": ')
    lead = "[\n"
    for branch in (0, 1):
        offset = branch * classes.size
        for top in _blocks(formula):
            counts = block_counts(top)
            entry = classes.entries(counts)
            entry += offset
            index = np.flatnonzero(kept[entry])
            start = branch * formula.assignment_count + top * counts.size
            for first in range(0, index.size, _ROWS_PER_WRITE):
                part = index[first : first + _ROWS_PER_WRITE]
                rows = [
                    f"    [\n      {i}{tails[c]}"
                    for i, c in zip((part + start).tolist(), entry[part].tolist())
                ]
                handle.writelines((lead, ",\n".join(rows)))
                lead = ",\n"
    handle.write("[]\n}\n" if lead == "[\n" else "\n  ]\n}\n")
