"""Wootters concurrence, one-vs-rest tangles, and CKW monogamy accounting.

For the |1> system / |0> reservoir start the pairwise concurrences have
simple closed forms: once both partners of a reservoir pair (j, k) have
collided, C_jk = 2 s^2 c^(j+k-2) and never changes again, while the
system-reservoir value C_0k = 2 s c^(n+k-1) decays with every further
collision n.  The CKW monogamy bound holds with equality throughout, and
the total pairwise tangle approaches 2 under the best-homogenization
schedule.  Everything here is either a numeric measure on simulator
states or one of those closed forms, so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision import CollisionState
from .homogenizer import SwapAngle
from .linalg import SY, hermitian_eig, is_hermitian, psd_sqrt, tensor_product

SIGMA_YY = tensor_product(SY, SY)

_ROUNDOFF = 1e-10
# how far from Hermitian and from unit trace a concurrence input may be
_STATE_TOL = 1e-8


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Uses the Hermitian form: the eigenvalues of
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho) are the squares of the
    usual spin-flip singular values lambda_i, which keeps the spectrum
    real and non-negative by construction.

    Eigenvalues below 1e-14 are read as exact zeros, so every lambda_i
    below 1e-7 is 0: a concurrence whose lambda_1 lies below 1e-7 (for a
    pure state, any concurrence below 1e-7) reads as exactly 0.0.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not is_hermitian(rho, _STATE_TOL):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _STATE_TOL:
        raise ValueError("density matrix does not have unit trace")
    root = psd_sqrt(rho, _STATE_TOL)
    m = root @ SIGMA_YY @ rho.conj() @ SIGMA_YY @ root
    vals, _ = hermitian_eig(m)
    if float(vals[-1]) < -_ROUNDOFF:
        raise ValueError("spin-flip spectrum came out negative; input is not a state")
    # eigenvalues at roundoff scale are exact zeros of the rank-deficient
    # product; the square root would blow their noise up to ~1e-8
    vals = np.where(vals < 1e-14, 0.0, np.clip(vals, 0.0, None))
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def spin_flip_lambdas_reference(rho) -> np.ndarray:
    """Square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).

    Independent route to the same lambdas through the non-Hermitian
    product matrix; kept for cross-checking the Hermitian form.
    """
    rho = np.asarray(rho, dtype=complex)
    r = rho @ SIGMA_YY @ rho.conj() @ SIGMA_YY
    vals = np.linalg.eigvals(r)
    vals = np.clip(vals.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])


def _tangle(rho) -> float:
    """4 det of a one-qubit reduced state, clipped to [0, 1]."""
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    return float(min(1.0, max(0.0, 4.0 * det)))


def tangle_one_vs_rest(state: CollisionState, j: int) -> float:
    """Tangle between qubit j and everything else: 4 det of its reduced state."""
    return _tangle(state.reduced(j))


def ckw_sum(state: CollisionState, j: int) -> float:
    """Sum of squared pairwise concurrences between qubit j and each other qubit."""
    total = 0.0
    for k in range(state.num_qubits):
        if k == j:
            continue
        total += concurrence(state.reduced([j, k])) ** 2
    return total


def _closed_columns(closed, key, name: str) -> dict:
    """The columns ``name`` and residual of row ``key``; none without closed forms."""
    return {} if closed is None else dict(zip((name, "residual"), closed[key]))


def _csv(columns: list[str], records: list[dict]) -> str:
    # '.17g' prints the integer indices j, k as they are
    lines = [",".join(columns)] + [",".join(f"{r[c]:.17g}" for c in columns) for r in records]
    return "\n".join(lines) + "\n"


@dataclass
class ConcurrenceTable:
    """Pairwise concurrences C_jk (j < k, qubit 0 = system) after n collisions.

    ``closed`` maps each pair to (C_closed, |C - C_closed|) when the closed
    forms apply to the run, else is None; both formats then add those columns.
    """

    n: int
    entries: dict[tuple[int, int], float]
    closed: dict[tuple[int, int], tuple[float, float]] | None

    def pairs(self):
        return sorted(self.entries)

    def max_residual(self) -> float | None:
        return None if self.closed is None else max(r for _, r in self.closed.values())

    def to_csv(self) -> str:
        closed = [] if self.closed is None else ["C_closed", "residual"]
        return _csv(["j", "k", "C", *closed], self.to_json_records())

    def to_json_records(self) -> list[dict]:
        return [{"j": j, "k": k, "C": self.entries[(j, k)],
                 **_closed_columns(self.closed, (j, k), "C_closed")} for j, k in self.pairs()]


@dataclass
class TangleRecord:
    """Per-qubit one-vs-rest tangle tau_j and CKW pair sum S_j.

    ``closed`` maps each qubit to (S_closed, max(|tau - S_closed|, |S - S_closed|))
    when the closed forms apply to the run, else is None; both formats then
    add those columns.  The closed form is the value of tau_j and of S_j.
    """

    entries: dict[int, tuple[float, float]]
    closed: dict[int, tuple[float, float]] | None

    def max_residual(self) -> float | None:
        return None if self.closed is None else max(r for _, r in self.closed.values())

    def to_csv(self) -> str:
        closed = [] if self.closed is None else ["S_closed", "residual"]
        return _csv(["j", "tau", "S", *closed], self.to_json_records())

    def to_json_records(self) -> list[dict]:
        return [{"j": j, "tau": self.entries[j][0], "S": self.entries[j][1],
                 **_closed_columns(self.closed, j, "S_closed")} for j in sorted(self.entries)]


# exchanging the two qubits of a pair state swaps the |01> and |10> rows and columns
_EXCHANGE = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])


def pair_states(state: CollisionState) -> dict[tuple[int, int], np.ndarray]:
    """Reduced density matrix of every pair (j, k), j < k: one reduction each."""
    n = state.num_qubits
    return {(j, k): state.reduced([j, k]) for j in range(n) for k in range(j + 1, n)}


def concurrence_table(state: CollisionState, rhos) -> ConcurrenceTable:
    """Numeric concurrence of every pair state ``rhos`` (see :func:`pair_states`) of ``state``."""
    return ConcurrenceTable(
        len(state.log), {pair: concurrence(rho) for pair, rho in rhos.items()}, None
    )


def tangle_record(state: CollisionState, rhos, table: ConcurrenceTable) -> TangleRecord:
    """tau_j and the CKW sum S_j of every qubit, from one reduction per pair.

    ``rhos`` and ``table`` are the pair states and their concurrence table.
    S_j adds C(rho_jk)^2 in k order, as :func:`ckw_sum` does; for k < j the
    pair state is rho_kj with its qubits exchanged, and its concurrence is
    taken anew, because the numeric concurrence is not symmetric under the
    exchange to the last bit.
    """
    n = state.num_qubits
    entries = {}
    for j in range(n):
        total = 0.0
        for k in range(n):
            if k < j:
                total += concurrence(rhos[(k, j)][_EXCHANGE]) ** 2
            elif k > j:
                total += table.entries[(j, k)] ** 2
        entries[j] = (_tangle(state.reduced(j)), total)
    return TangleRecord(entries, None)


def one_zero_start(system, reservoir) -> bool:
    """Whether the kets are system |1> and reservoir |0> to 1e-12."""
    one = np.allclose(np.asarray(system, dtype=complex), [0.0, 1.0], atol=1e-12)
    return one and np.allclose(np.asarray(reservoir, dtype=complex), [1.0, 0.0], atol=1e-12)


def entanglement_tables(
    state: CollisionState, system, reservoir
) -> tuple[ConcurrenceTable, TangleRecord]:
    """Concurrence table and tangle record of a run from the kets ``system`` and ``reservoir``.

    Every pair is reduced once.  For a |1>/|0> start collided in the order
    1..n, where the closed forms apply, both carry them with their residuals.
    """
    rhos = pair_states(state)
    table = concurrence_table(state, rhos)
    record = tangle_record(state, rhos, table)
    n, angle = table.n, state.angle
    if one_zero_start(system, reservoir) and state.log == list(range(1, n + 1)):
        table.closed, record.closed = {}, {}
        for pair, c in table.entries.items():
            w = closed_pair_concurrence(*pair, n, angle)
            table.closed[pair] = (w, abs(c - w))
        for j, (tau, s) in record.entries.items():
            w = closed_tangle(j, n, angle)
            record.closed[j] = (w, max(abs(tau - w), abs(s - w)))
    return table, record


def closed_pair_concurrence(j: int, k: int, n: int, angle: SwapAngle) -> float:
    """Closed-form C_jk after n collisions for the |1>/|0> initial condition."""
    if not 0 <= j < k:
        raise ValueError(f"need 0 <= j < k, got ({j}, {k})")
    s, c = angle.s, angle.c
    if n < k:
        return 0.0
    if j == 0:
        return 2.0 * s * c ** (n + k - 1)
    return 2.0 * s**2 * c ** (j + k - 2)


def closed_form_concurrences(n: int, n_reservoir: int, angle: SwapAngle) -> ConcurrenceTable:
    """Full closed-form table for all pairs 0 <= j < k <= N after n collisions.

    The forms hold for the |1>/|0> start only; :func:`entanglement_tables`
    attaches them to a run after checking that with :func:`one_zero_start`.
    """
    if not 0 <= n <= n_reservoir:
        raise ValueError(f"collision count {n} out of range 0..{n_reservoir}")
    entries = {}
    for j in range(n_reservoir + 1):
        for k in range(j + 1, n_reservoir + 1):
            entries[(j, k)] = closed_pair_concurrence(j, k, n, angle)
    return ConcurrenceTable(n, entries, None)


def closed_tangle(j: int, n: int, angle: SwapAngle) -> float:
    """Closed-form one-vs-rest tangle (= CKW sum, the bound is saturated)."""
    s, c = angle.s, angle.c
    if j == 0:
        return 4.0 * c ** (2 * n) * (1.0 - c ** (2 * n))
    if n < j:
        return 0.0
    a = s**2 * c ** (2 * (j - 1))
    return 4.0 * a * (1.0 - a)


def total_tangle_sum(n_reservoir: int, angle: SwapAngle) -> float:
    """Sum of squared concurrences over all pairs after the full N-collision run.

    Half the sum of the per-qubit CKW sums, each of which is its closed
    tangle, so O(N); approaches 2 as N grows along the best-homogenization
    schedule.
    """
    return 0.5 * sum(closed_tangle(j, n_reservoir, angle) for j in range(n_reservoir + 1))
