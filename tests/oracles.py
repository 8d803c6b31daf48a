"""Two-branch and per-assignment oracles the class-coordinate package is checked against.

``FullKernel`` is the search iterate on both ancilla branches: its own phase
vector (D, conj D) and axis (r, r) over 2 * profile.size amplitudes, built here
from the profile's counts and weights, and a reflection whose sum is complex.
In float64 it is, bit for bit, the two-branch ``search_step`` that the
package's one-branch kernel replaced; in ``np.clongdouble`` it is the
extended-precision stepping reference.  The per-assignment ``PhaseProfile``
has one entry of weight 1 per assignment, so the same kernel steps the full
2**(n+1)-amplitude vector.

``dense_eigencheck`` materializes the iterate column by column through
``FullKernel`` (the package's step is only real-linear, so it has no matrix
over the complex numbers) and hands it to a dense eigenvalue solver, with
inverse iteration for the principal eigenvectors: the oracle of
``satsearch.spectrum``'s secular roots.  An entry of weight w also stands for
w - 1 directions per branch that sum to zero over its assignments: orthogonal
to the uniform state, they keep D's phases +pi*u/m and -pi*u/m exactly, and
the report adds them to the matrix's own.  A phase within ZERO_PHASE_FLOOR
of zero is reported as 0.0, so the row of the zero-phase spectator
(|0,r> - |1,r>)/sqrt(2) does not carry the eigensolver's last bits.  The
kernel takes any profile, the per-assignment one (every weight 1) and the
class profile alike.  The matrix dimension 2 * profile.size is guarded at
2048: 64 MiB, n <= 10 per assignment.
"""

import json
import math

import numpy as np

import satsearch as ss
from satsearch.cnf import violation_mask
from satsearch.statevector import _check_dimension

MAX_EIGENCHECK_DIM = 2048
# dense_eigencheck: eigenphases at or below ZERO_PHASE_FLOOR count as zero and
# are reported as 0.0, and eigenvectors whose squared overlap with the
# amplified state is at or below OVERLAP_FLOOR are spectators of the search
# dynamics
ZERO_PHASE_FLOOR = 1e-9
OVERLAP_FLOOR = 1e-6


def _check_two_branch(state, size):
    if state.shape[0] != 2 * size:
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected {2 * size}")


class FullKernel:
    """The search iterate on both branches of ``profile``, in the real type ``real``.

    Entry k of branch b is amplitude b * size + k.  ``step`` is
    ``out = state * phases`` then ``out -= axis * ((axis * out).sum() / N)``.
    """

    def __init__(self, profile, real=np.float64):
        pi = 4 * np.arctan(real(1))  # np.pi itself in float64
        upper = np.exp(1j * ((pi / profile.m) * profile.u.astype(real)))
        root = np.sqrt(profile.weights.astype(real))
        self.phases = np.concatenate([upper, upper.conj()])
        self.axis = np.concatenate([root, root])
        self.real = real
        self.total = profile.total
        self.size = profile.size

    def uniform(self):
        """Equal superposition over all 2N basis states."""
        return self.axis * (1 / np.sqrt(self.real(2 * self.total))) + 0j

    def step(self, state):
        _check_two_branch(state, self.size)
        out = state * self.phases
        out -= self.axis * ((self.axis * out).sum() / self.total)
        return out


def two_branch(state):
    """The two-branch state (a, conj a) of a one-branch state a."""
    return np.concatenate([state, state.conj()])


def unsat_count(formula, assignment):
    """Number of clauses the assignment leaves unsatisfied, one clause at a time."""
    return sum(not clause.satisfied_by(assignment) for clause in formula.clauses)


def violation_counts(formula):
    """Violation count of every assignment, in index order, summed one clause mask at a time.

    It uses none of the block kernel's layout or pruning, and comes in the
    kernel's dtype, the smallest unsigned one that holds m.
    """
    indices = np.arange(formula.assignment_count)
    counts = np.zeros(formula.assignment_count, dtype=np.min_scalar_type(formula.m))
    for clause in formula.clauses:
        counts += violation_mask(clause, indices)
    return counts


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
    """Two-branch per-entry amplitudes of ``profile`` for a state in ``fold_classes(profile)`` coordinates.

    ``class_state`` is branch 0, as the package holds it.  Each of the N_c
    assignments of class c gets a_c / sqrt(N_c) on branch 0 and its conjugate
    on branch 1; for a per-assignment profile this is the full state vector.
    """
    folded = fold_classes(profile)
    _check_dimension(class_state, folded.size)
    per_assignment = class_state / np.sqrt(folded.weights.astype(np.float64))
    return two_branch(per_assignment[class_entries(folded, profile.u)])


def apply_clause_phases_factored(state, formula):
    """Apply the m per-clause phase factors one clause at a time.

    Each clause multiplies branch b=0 by exp(i*pi/m) on the assignments it
    leaves unsatisfied, and branch b=1 by the conjugate, with no violation
    table: the independent check of the diagonal pass.
    """
    data_dim = 1 << formula.n
    _check_two_branch(state, data_dim)
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
    dot and the same scalar factor.
    """
    _check_dimension(state, profile.size)
    out = state * profile.phases
    out.real -= profile.axis * (np.dot(profile.axis, out.real) * (2.0 / profile.total))
    return out


def scalar_read_out(classes, state):
    """Marginal and overlap of one solution, from numpy scalars: a = a_(0,0) / sqrt(N_0) and its conjugate."""
    a = state[0] * (1.0 / classes.axis[0])
    return float(2.0 * (a.real * a.real + a.imag * a.imag)), float(2.0 * (a.real * a.real))


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


def full_vector_states(profile, iterations, real=np.float64):
    """Two-branch states of ``profile`` after q = 0..iterations applications of ``FullKernel``, one at a time."""
    kernel = FullKernel(profile, real)
    state = kernel.uniform()
    yield state
    for _ in range(iterations):
        state = kernel.step(state)
        yield state


def full_vector_curve(states, index):
    """Rows (q, p_marginal, p_overlap) of index over two-branch states q = 0, 1, ..."""
    return np.asarray([(q, *measure_distribution(state, index)) for q, state in enumerate(states)])


def lifted_marginal(profile, solution, iterations):
    """Data-register marginal of solution, read from the per-assignment state that ``FullKernel`` steps."""
    for state in full_vector_states(profile, iterations):
        pass
    return measure_distribution(state, solution)[0]


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


def iterate_matrix(profile):
    """Materialize the two-branch search iterate column by column through ``FullKernel``."""
    kernel = FullKernel(profile)
    dim = 2 * profile.size
    matrix = np.empty((dim, dim), dtype=np.complex128)
    basis = np.zeros(dim, dtype=np.complex128)
    for k in range(dim):
        basis[k] = 1.0
        matrix[:, k] = kernel.step(basis)
        basis[k] = 0.0
    return matrix


def _eigenvector_overlap(matrix, value, target):
    """|<v|target>|**2 for the unit eigenvector v of ``matrix`` at the eigenvalue ``value``.

    Inverse iteration: one solve of (matrix - value) x = b from a fixed random
    b.  The iterate is unitary, so normal, and ``value`` is within a few ulp
    of an eigenvalue; the solve scales v's part of b by the inverse of that
    distance, and each other eigenvector's by the inverse of its eigenvalue's
    distance from ``value``.
    """
    dim = matrix.shape[0]
    shifted = matrix.copy()
    shifted.flat[:: dim + 1] -= value
    rng = np.random.default_rng(0)
    vector = np.linalg.solve(shifted, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return abs(np.vdot(vector, target)) ** 2 / np.vdot(vector, vector).real


def dense_eigencheck(profile):
    """Dense eigenvalues of the iterate; extracts the principal pair.

    The principal pair is the conjugate eigenphase pair of smallest nonzero
    magnitude with nonzero overlap against the amplified state (|0,r> +
    |1,r>)/sqrt(2); the overlap floor filters the exact zero-phase spectator
    (|0,r> - |1,r>)/sqrt(2), which is orthogonal to everything the search
    dynamics touches.  The u = 0 entries must hold one assignment r.  The
    phases come from the eigenvalues alone; an eigenvector is found, by
    inverse iteration, only for each candidate phase, in order of magnitude,
    until the pair is complete.
    """
    dim = 2 * profile.size
    if dim > MAX_EIGENCHECK_DIM:
        raise ss.GuardError(
            f"dense eigencheck limited to matrix dimension {MAX_EIGENCHECK_DIM}, got {dim}"
        )
    solution = np.flatnonzero(profile.u == 0)
    found = int(profile.weights[solution].sum())
    if found != 1:
        raise ss.InstanceError(f"expected exactly one satisfying assignment, found {found}")
    matrix = iterate_matrix(profile)
    values = np.linalg.eigvals(matrix)
    if np.max(np.abs(np.abs(values) - 1.0)) > 1e-8:
        raise RuntimeError("eigensolver returned non-unimodular eigenvalues for a unitary")

    phases = np.angle(values)
    target = np.zeros(dim, dtype=np.complex128)
    target[solution] = target[profile.size + solution] = 1.0 / math.sqrt(2.0)

    # the smallest-magnitude phase of each sign whose eigenvector is above the overlap floor
    overlaps = {}
    candidates = np.flatnonzero(np.abs(phases) > ZERO_PHASE_FLOOR)
    for k in candidates[np.argsort(np.abs(phases[candidates]))]:
        if not any(phases[j] * phases[k] > 0 for j in overlaps):
            overlap = _eigenvector_overlap(matrix, values[k], target)
            if overlap > OVERLAP_FLOOR:
                overlaps[k] = overlap
                if len(overlaps) == 2:
                    break
    if len(overlaps) < 2:
        raise RuntimeError("no conjugate principal eigenphase pair found above the overlap floor")
    plus, minus = sorted(overlaps, key=lambda k: -phases[k])

    # the matrix's phases once each, then each entry's w - 1 spectators per branch
    every = np.concatenate([phases, np.angle(FullKernel(profile).phases)])
    count = np.concatenate([np.ones(dim, dtype=np.int64), np.tile(profile.weights - 1, 2)])
    every[every == -np.pi] = np.pi
    every[np.abs(every) <= ZERO_PHASE_FLOOR] = 0.0  # e.g. the exact spectator's LAPACK noise
    kept = count > 0
    distinct, position = np.unique(every[kept], return_inverse=True)
    return ss.EigenPairReport(
        eigenphases=distinct,
        multiplicities=np.bincount(position, weights=count[kept]).astype(np.int64),
        lambda_plus=float(phases[plus]),
        lambda_minus=float(phases[minus]),
        span_weight=float(overlaps[plus] + overlaps[minus]),
    )
