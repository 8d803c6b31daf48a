"""Per-assignment oracles the class-coordinate package is checked against.

The per-assignment ``PhaseProfile`` has one entry of weight 1 per assignment,
so the same ``search_step`` kernel steps the full 2**(n+1)-amplitude vector.
"""

import json
import math

import numpy as np

import satsearch as ss
from satsearch.cnf import violation_blocks, violation_mask
from satsearch.statevector import _check_dimension


def unsat_count(formula, assignment):
    """Number of clauses the assignment leaves unsatisfied, one clause at a time."""
    return sum(not clause.satisfied_by(assignment) for clause in formula.clauses)


def violation_counts(formula):
    """Violation count of every assignment, in index order: the enumeration blocks joined."""
    return np.concatenate([block_counts for _, block_counts in violation_blocks(formula)])


def profile_for(formula):
    """Per-assignment profile of a formula: one entry of weight 1 per assignment."""
    weights = np.ones(formula.assignment_count, dtype=np.int64)
    return ss.PhaseProfile(formula.m, violation_counts(formula), weights)


def all_violated(n, solution):
    """Profile with m = 1 where every non-solution violates the one clause.

    Every non-solution phase is -1, so the iterate is Grover's on the doubled
    register.  No CNF formula with n > 1 realizes it.
    """
    u = np.ones(1 << n, dtype=np.int32)
    u[solution] = 0
    return ss.PhaseProfile(1, u, np.ones(1 << n, dtype=np.int64))


def fold_classes(profile):
    """One entry per occupied violation count, weighted by its multiplicity."""
    folded = np.bincount(profile.u, weights=profile.weights, minlength=profile.m + 1)
    return ss.PhaseProfile.from_histogram(profile.m, folded)


def class_entries(classes, counts):
    """Entry of the class profile ``classes`` that holds each violation count in ``counts``."""
    return np.searchsorted(classes.u, counts)


def lift(profile, class_state):
    """Per-entry amplitudes of ``profile`` for a state in ``fold_classes(profile)`` coordinates.

    Each of the N_c assignments of class c gets a_c / sqrt(N_c) on each
    branch; for a per-assignment profile this is the full state vector.
    """
    folded = fold_classes(profile)
    _check_dimension(class_state, folded.size)
    per_assignment = class_state / folded.reflection_axis()
    position = class_entries(folded, profile.u)
    return np.concatenate(
        [per_assignment[: folded.size][position], per_assignment[folded.size :][position]]
    )


def apply_clause_phases_factored(state, formula):
    """Apply the m per-clause phase factors one clause at a time.

    Each clause multiplies branch b=0 by exp(i*pi/m) on the assignments it
    leaves unsatisfied, and branch b=1 by the conjugate, with no violation
    table: the independent check of ``state * profile.phase_vector()``.
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


def expression_search_step(state, profile):
    """``search_step`` as one numpy expression, with a temporary for each operation.

    ``search_step`` must equal it bit for bit: the same products, the same
    pairwise sum and the same scalar division.
    """
    _check_dimension(state, profile.size)
    out = state * profile.phase_vector()
    axis = profile.reflection_axis()
    out -= axis * ((axis * out).sum() / profile.total)
    return out


def scalar_read_out(classes, state):
    """Marginal and overlap of one solution, from numpy scalars: a_(b,0) / sqrt(N_0) on branch b."""
    scale = 1.0 / classes.reflection_axis()[0]
    a0 = state[0] * scale
    a1 = state[classes.size] * scale
    return float(abs(a0) ** 2 + abs(a1) ** 2), float(0.5 * abs(a0 + a1) ** 2)


def scalar_curve(classes, q_max):
    """Rows (q, p_marginal, p_overlap), one state stepped by ``expression_search_step`` and read per row."""
    state = classes.uniform()
    rows = [(0, *scalar_read_out(classes, state))]
    for q in range(1, q_max + 1):
        state = expression_search_step(state, classes)
        rows.append((q, *scalar_read_out(classes, state)))
    return np.array(rows, dtype=np.float64)


def grover_step(state, solution):
    """Textbook Grover iterate on a bare N-dim data register.

    Flips the known solution's phase, then reflects about the uniform state
    with the sign convention of ``search_step``.
    """
    out = np.array(state, dtype=np.complex128, copy=True)
    out[solution] = -out[solution]
    out -= 2.0 * out.sum() / out.shape[0]
    return out


def grover_closed_form(total, steps):
    """sin^2((2k+1) * theta / 2) with theta = 2*arcsin(1/sqrt(N)), k = 0..steps."""
    theta = 2.0 * math.asin(1.0 / math.sqrt(total))
    k = np.arange(steps + 1, dtype=np.float64)
    return np.sin((2.0 * k + 1.0) * theta / 2.0) ** 2


def measure_distribution(state, solution):
    """Data-register marginal of the solution, and squared overlap with (|0,r> + |1,r>)/sqrt(2)."""
    data_dim = state.shape[0] // 2
    if not 0 <= solution < data_dim:
        raise ValueError(f"solution index {solution} out of range for N={data_dim}")
    a0 = state[solution]
    a1 = state[data_dim + solution]
    marginal = abs(a0) ** 2 + abs(a1) ** 2
    overlap = 0.5 * abs(a0 + a1) ** 2
    return float(marginal), float(overlap)


def two_branch_lambda1(formula):
    """Explicit signed cot(theta/2) sum over both ancilla branches, every non-solution assignment."""
    u = violation_counts(formula).astype(np.float64)
    half = np.pi * u[u > 0] / (2.0 * formula.m)
    plus_branch = float(np.sum(np.cos(half) / np.sin(half)))
    minus_branch = float(np.sum(np.cos(-half) / np.sin(-half)))
    return (plus_branch + minus_branch) / (2.0 * formula.assignment_count)


def zero_profile(total):
    """Per-assignment profile of ``total`` assignments that violate nothing.

    Its clause phases are all 1, so ``search_step`` on it is the bare
    reflection about the uniform state.
    """
    return ss.PhaseProfile(m=1, u=np.zeros(total, dtype=np.int32), weights=np.ones(total, dtype=np.int64))


def lifted_marginal(profile, solution, iterations):
    """Data-register marginal of solution, read from the full 2N-amplitude state."""
    state = lift(profile, ss.state_after(fold_classes(profile), iterations))
    return measure_distribution(state, solution)[0]


def full_vector_states(profile, iterations):
    """Per-assignment states after q = 0..iterations applications of the iterate."""
    state = profile.uniform()
    states = [state]
    for _ in range(iterations):
        state = ss.search_step(state, profile)
        states.append(state)
    return states


def full_vector_curve(states, index):
    """Rows (q, p_marginal, p_overlap) of index over per-assignment states q = 0, 1, ..."""
    return np.asarray([(q, *measure_distribution(state, index)) for q, state in enumerate(states)])


def oracle_snapshot(state, threshold):
    """Snapshot document built row by row and written by ``json.dumps``."""
    keep = np.flatnonzero(np.abs(state) > threshold)
    triples = list(zip(keep.tolist(), state.real[keep].tolist(), state.imag[keep].tolist()))
    return json.dumps({"threshold": threshold, "amplitudes": triples}, indent=2) + "\n"


def lift_snapshot(formula, snapshot, threshold):
    """Per-assignment snapshot document of ``formula`` rebuilt from its class snapshot.

    Row [b*(m+1) + u, re, im] holds a_(b,u); each of the N_u assignments of
    class u gets a_(b,u) / sqrt(N_u) on branch b, and ``oracle_snapshot``
    writes those 2N amplitudes at ``threshold``.
    """
    m = snapshot["m"]
    counts = violation_counts(formula).astype(np.int64)
    sizes = np.tile(np.bincount(counts, minlength=m + 1), 2)
    keys = np.array([key for key, _, _ in snapshot["amplitudes"]], dtype=np.int64)
    values = np.empty(keys.size, dtype=complex)
    values.real = [re for _, re, _ in snapshot["amplitudes"]]
    values.imag = [im for _, _, im in snapshot["amplitudes"]]
    per_class = np.zeros(2 * (m + 1), dtype=complex)
    per_class[keys] = values / np.sqrt(sizes[keys].astype(np.float64))
    return oracle_snapshot(np.concatenate([per_class[counts], per_class[m + 1 + counts]]), threshold)
