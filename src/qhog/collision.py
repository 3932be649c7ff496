"""Exact pure-state simulation of the system qubit plus N reservoir qubits.

The joint state is a flat vector of 2**(N+1) amplitudes with qubit 0 (the
system) on the most significant bit.  Collisions apply the partial swap
between qubit 0 and one reservoir qubit in place, in cache-sized blocks;
reduced density matrices come straight from the amplitudes without ever
forming the global density matrix.

The system meets each reservoir qubit once, so before its collision a
reservoir qubit is still exactly in the reservoir state and the joint
state is (system + collided qubits) x xi^(uncollided).  ``run_pure``
therefore grows the state in one buffer of 2**(N+1) amplitudes: it
inserts each reservoir qubit just before that qubit's collision and
collides on the live prefix only.  A full run costs about two passes
over the final vector instead of one per collision.  A mixed system
runs through ``run_mixed_system``, which returns the system qubit alone,
the qubit the homogenizer delivers, and holds no large vector: the state
without the last m collided qubits takes 2**(N+1-m) amplitudes, and
parts of the final state are built from it one after another and
reduced block by block as they come.

For the |1> system / |0> reservoir initial condition the dynamics never
leaves the one-excitation subspace, so the same evolution can be tracked
with just N+1 amplitudes f_j (one per possible location of the
excitation), in any collision order.  That sector run makes the
exhaustive unwinding sweeps cheap, and it covers every pure reservoir:
the partial swap commutes with U x U, so in the frame where the
reservoir ket xi is |0> a run keeps the vacuum plus <xi_perp|psi> times
the f_j of the same order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bloch import QubitState
from .homogenizer import SwapAngle
from .linalg import hermitian_eig, num_qubits_of

MAX_QUBITS_DEFAULT = 22
_ENV_CAP = "QHOG_MAX_QUBITS"


def max_qubits() -> int:
    """Total-qubit cap for the global state vector (env QHOG_MAX_QUBITS)."""
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return MAX_QUBITS_DEFAULT
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 2:
        raise ValueError(f"{_ENV_CAP} must be at least 2, got {cap}")
    return cap


class QubitCapError(ValueError):
    """A run of more qubits than ``max_qubits()`` allows."""


# amplitudes per quarter of the state in one step of the collision kernel:
# the four quarter blocks and their temporaries fit a 1-2 MB L2 cache
_BLOCK = 1 << 14


def _blocks(shape, size):
    """Index tuples cutting an (A, B, C) array into pieces of at most ``size`` entries."""
    a, b, c = shape
    if c >= size:
        for i in range(a):
            for j in range(b):
                for k in range(0, c, size):
                    yield i, j, slice(k, k + size)
    elif b * c >= size:
        step = size // c
        for i in range(a):
            for j in range(0, b, step):
                yield i, slice(j, j + step)
    else:
        step = size // (b * c)
        for i in range(0, a, step):
            yield (slice(i, i + step),)


def _quarters(vec: np.ndarray, keep) -> np.ndarray:
    """``vec`` viewed with the bits of the one or two qubits ``keep`` as leading axes.

    Entry [x] or [x, y] (in ``keep`` order) is the (A, B, C) view of the
    amplitudes with those qubits in |x> or |xy>.
    """
    lo, hi = min(keep), max(keep)
    if len(keep) == 1:
        return vec.reshape(1 << lo, 2, 1, -1).transpose(1, 0, 2, 3)
    v = vec.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
    return v.transpose((1, 3, 0, 2, 4) if keep[0] < keep[1] else (3, 1, 0, 2, 4))


def apply_two_qubit(
    vec: np.ndarray, num_qubits: int, angle: SwapAngle, a: int, b: int, inverse: bool = False
) -> None:
    """Apply the partial swap P (P^dagger if ``inverse``) to qubits (a, b) of ``vec`` in place.

    P multiplies |00> and |11> by (c + is) and mixes (|01>, |10>) through
    [[c, is], [is, c]]; the inverse flips the sign of s.  Every new amplitude
    is c times an old one plus is times an old one, c and is as complex numbers.
    """
    if a == b or not (0 <= a < num_qubits and 0 <= b < num_qubits):
        raise ValueError(f"need two distinct qubits in 0..{num_qubits - 1}, got ({a}, {b})")
    if vec.shape != (2**num_qubits,) or not vec.flags.c_contiguous:
        raise ValueError(f"expected a contiguous vector of 2**{num_qubits} amplitudes")
    (q00, q01), (q10, q11) = _quarters(vec, (a, b))
    c = angle.c
    i_s = 1j * (-angle.s if inverse else angle.s)
    for idx in _blocks(q00.shape, _BLOCK):
        for d in (q00[idx], q11[idx]):
            tmp = i_s * d
            d *= c
            d += tmp
        x, y = q01[idx], q10[idx]
        new_x = c * x + i_s * y
        y[...] = i_s * x + c * y
        x[...] = new_x


def reduced_from_vector(vec: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Reduced density matrix of the one or two qubits ``keep`` (in the given order).

    For the amplitudes regrouped as the rows M = X + iY of the kept qubits'
    basis states, rho = M M^dagger = X X^T + Y Y^T + i (Y X^T - (Y X^T)^T).
    Block by block, X and Y go side by side into one small buffer and numpy's
    einsum sums the products without BLAS, so the bits do not depend on the
    BLAS kernel; the result is exactly Hermitian with a real diagonal.
    """
    keep = [int(q) for q in keep]
    bad = len(keep) not in (1, 2) or len(set(keep)) != len(keep)
    if bad or min(keep) < 0 or max(keep) >= num_qubits:
        raise ValueError(f"need one or two distinct qubits in 0..{num_qubits - 1}, got {keep}")
    quarters = _quarters(vec, keep)
    d = 2 ** len(keep)
    rows = np.empty((d, 2, min(_BLOCK, vec.size // d)))
    return _summed([_block_terms(quarters[(slice(None),) * len(keep) + idx], rows)
                    for idx in _blocks(quarters.shape[-3:], _BLOCK)], d)


def _block_terms(part, rows) -> tuple:
    """The einsum terms of M M^dagger from the d rows of one block, via a (d, 2, size) buffer."""
    x, y, xy = rows[:, 0], rows[:, 1], rows.reshape(len(rows), -1)
    np.copyto(x.reshape(part.shape), part.real)
    np.copyto(y.reshape(part.shape), part.imag)
    return np.einsum("ik,jk->ij", xy, xy), np.einsum("ik,jk->ij", y, x)


def _summed(terms, d: int) -> np.ndarray:
    """M M^dagger from the ``_block_terms`` of every block, added in block order."""
    re, yx = np.zeros((d, d)), np.zeros((d, d))
    for a, b in terms:
        re += a
        yx += b
    rho = np.empty((d, d), dtype=complex)
    rho.real, rho.imag = re, yx - yx.T
    return rho


def _checked_ket(name: str, ket) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    if ket.shape != (2,):
        raise ValueError(f"{name} ket must have two components")
    if abs(np.vdot(ket, ket).real - 1.0) > 1e-9:
        raise ValueError(f"{name} ket is not normalized")
    return ket


def _checked_order(order, n_reservoir: int) -> list[int]:
    """``order`` (default 1..N) as a list of distinct reservoir indices."""
    if order is None:
        order = range(1, n_reservoir + 1)
    order = [int(k) for k in order]
    if len(set(order)) != len(order):
        raise ValueError(f"collision order contains repeats: {order}")
    for k in order:
        if not 1 <= k <= n_reservoir:
            raise ValueError(f"reservoir index {k} out of range 1..{n_reservoir}")
    return order


@dataclass
class CollisionState:
    """Joint pure state of the system (qubit 0) and N reservoir qubits."""

    vector: np.ndarray
    angle: SwapAngle
    log: list[int]

    @property
    def num_qubits(self) -> int:
        return num_qubits_of(self.vector.shape[0])

    def run(self, order=None) -> "CollisionState":
        """Collide with reservoir qubits in ``order`` (default 1..N).

        The input state is left as it is: its vector is copied once and the
        copy evolved in place.
        """
        order = _checked_order(order, self.num_qubits - 1)
        vec = self.vector.copy()
        for k in order:
            apply_two_qubit(vec, self.num_qubits, self.angle, 0, k)
        return CollisionState(vec, self.angle, self.log + order)

    def reduced(self, qubits) -> np.ndarray:
        return reduced_from_vector(self.vector, self.num_qubits, np.atleast_1d(qubits))


def _insert_qubit(buf: np.ndarray, live: list[int], k: int, ket: np.ndarray) -> int:
    """Add qubit ``k`` in state ``ket`` to the state of the ``live`` qubits, in place.

    ``buf[:2**len(live)]`` holds the state of the qubits in ``live``, kept in
    increasing order; afterwards ``buf[:2**(len(live) + 1)]`` holds it times
    ``ket`` on qubit ``k``.  Returns the position of ``k`` among the live
    qubits.  Row r of the old state (the amplitudes sharing one value of the
    live qubits before ``k``) becomes rows 2r (``k`` = 0) and 2r + 1 (``k`` = 1)
    of the new one, so the upper half of the rows lands wholly past the old
    state: halving chunks of rows, from the top down, never overwrite a row
    before it is read, and no second copy of the state is made.  numpy
    rounds an in-place product of one amplitude without FMA, unlike any
    other product here, so a row 0 of one amplitude is always read from a
    copy: the bits then do not depend on where the row lies in the state.
    """
    pos = sum(q < k for q in live)
    rows, low = 1 << pos, 1 << (len(live) - pos)
    src = buf[: rows * low].reshape(rows, low)
    dst = buf[: 2 * rows * low].reshape(rows, 2, low)
    top = rows
    while top:
        bottom = top // 2
        # in row 0, the |1> half lies past the source and the |0> half overwrites it
        old = src[bottom:top] if bottom or low > 1 else src[:1].copy()
        for bit in (1, 0):
            np.multiply(old, ket[bit], out=dst[bottom:top, bit])
        top = bottom
    live.insert(pos, k)
    return pos


def _collide_in(buf, live: list[int], qubits, reservoir, angle: SwapAngle) -> None:
    """Insert each of ``qubits`` in state ``reservoir`` into ``buf`` and collide it, in order."""
    for k in qubits:
        pos = _insert_qubit(buf, live, k, reservoir)
        apply_two_qubit(buf[: 2 ** len(live)], len(live), angle, 0, pos)


def _checked_run(system, reservoir, n: int, order):
    """The checked kets and order of a run of ``n`` reservoir qubits within the qubit cap."""
    system = _checked_ket("system", system)
    reservoir = _checked_ket("reservoir", reservoir)
    if n < 1:
        raise ValueError("need at least one reservoir qubit")
    cap = max_qubits()
    if n + 1 > cap:
        raise QubitCapError(f"{n + 1} qubits exceeds the configured cap of {cap} ({_ENV_CAP})")
    return system, reservoir, _checked_order(order, n)


def _grow(buf, system, reservoir, n: int, angle: SwapAngle, order, steps: int) -> None:
    """Grow in ``buf`` the state after the first ``steps`` collisions of ``order``.

    Qubits the order never touches are inserted first, then the system, and
    each reservoir qubit of the first ``steps`` just before its collision,
    which then acts on the live prefix only.  The later qubits of ``order``
    are left out, so ``buf`` needs 2**(n + 1 - len(order) + steps) amplitudes.
    """
    buf[0] = 1.0
    live = []
    # the reservoir factors multiply together before the system ket does, as in
    # np.kron(system, reservoir^(x)u); with a |0> or |1> reservoir the start
    # state then equals that product bit for bit, signs of zeros included
    for k in sorted(set(range(1, n + 1)).difference(order)):
        _insert_qubit(buf, live, k, reservoir)
    _insert_qubit(buf, live, 0, system)
    _collide_in(buf, live, order[:steps], reservoir, angle)


def run_pure(system, reservoir, n: int, angle: SwapAngle, order=None) -> CollisionState:
    """(system ket) x (reservoir ket)^n collided with reservoir qubits in ``order`` (default 1..n).

    Every input is checked before the 2**(n+1)-amplitude buffer is
    allocated.  The state then grows in that buffer (see ``_grow``).
    """
    system, reservoir, order = _checked_run(system, reservoir, n, order)
    buf = np.empty(2 ** (n + 1), dtype=complex)
    _grow(buf, system, reservoir, n, angle, order, len(order))
    return CollisionState(buf, angle, order)


def _tail_length(n: int, order) -> tuple[int, int, list[int]]:
    """The m <= 8 with h <= 3 of least prefix plus part, ``high`` and the part's fixed qubits.

    Qubits 1..``high`` lie above the reduction's blocks.  A part of the
    final state fixes every one of them but the h in the tail, the last m
    qubits of ``order``, so with 2**14-amplitude blocks it holds 2**(15 + h)
    amplitudes.
    """
    high = n + 1 - min(_BLOCK, 1 << n).bit_length()
    best = (np.inf,)
    # m = 0 can tie with m = 1, so it is offered to the empty order only
    for m in range(min(1, len(order)), min(8, len(order)) + 1):
        fixed = [q for q in range(1, high + 1) if q not in order[len(order) - m:]]
        if high - len(fixed) > 3:
            break
        best = min(best, ((1 << (n + 1 - m)) + (1 << (n + 1 - len(fixed))), m, high, fixed))
    return best[1:]


def _system_states(systems, reservoir, n: int, angle: SwapAngle, order):
    """Yield ``run_pure(system, reservoir, n, angle, order).reduced(0)`` of each of ``systems``.

    Bit for bit.  The inputs must be checked.  Every qubit but the tail,
    the last m collided (``_tail_length``; none for the empty order), grows
    in one prefix of 2**(n+1-m) amplitudes, for each system in turn.  Each
    part of the final state starts as a slice of the prefix in one part
    buffer, and the tail is inserted and collided in it in order
    (``_collide_in``), one part after another.  Each block's terms go into
    a list by block index and are added in block order, as
    ``reduced_from_vector`` adds them.
    """
    m, high, fixed = _tail_length(n, order)
    tail, size = order[len(order) - m:], min(_BLOCK, 1 << n)
    # block index of (part, block within the part): qubit 1 is its top bit
    index = np.arange(1 << high).reshape((2,) * high).transpose(
        [q - 1 for q in fixed] + [q - 1 for q in range(1, high + 1) if q not in fixed])
    index = index.reshape(1 << len(fixed), -1)
    prefix = np.empty(2 ** (n + 1 - m), dtype=complex)
    src = prefix.reshape(2, len(index), -1)
    live = [q for q in range(n + 1) if q not in tail and q not in fixed]
    for system in systems:
        _grow(prefix, system, reservoir, n, angle, order, len(order) - m)
        buf = np.empty(2 * index.shape[1] * size, dtype=complex)
        rows = np.empty((2, 2, size))
        terms = [None] * (1 << high)
        for j in range(len(index)):
            np.copyto(buf[: 2 * src.shape[2]].reshape(2, -1), src[:, j])
            _collide_in(buf, list(live), tail, reservoir, angle)
            for i, block in enumerate(index[j]):
                terms[block] = _block_terms(buf.reshape(2, -1, size)[:, i], rows)
        del buf, rows  # each system allocates its own part once the last one's is freed
        yield _summed(terms, 2)


def run_mixed_system(
    rho0: QubitState, reservoir, n: int, angle: SwapAngle, order=None
) -> np.ndarray:
    """The system qubit's 2x2 state after a run from a (possibly mixed) system state.

    The global map is linear in the initial system operator, so the
    result is the same convex combination of the eigen-components' system
    states.  The reservoir must be pure.  No component holds a large
    vector: ``_system_states`` streams the last collisions of each from
    one small prefix.  At 22 qubits that is 0.25 to 8 MiB of prefix and
    one part of 0.5 to 4 MiB; the empty order's prefix is the whole
    product state.
    """
    vals, vecs = hermitian_eig(rho0.density())
    _, reservoir, order = _checked_run(vecs[:, 0], reservoir, n, order)
    weights = [float(vals[i]) for i in range(2) if float(vals[i]) >= 1e-14]
    kets = [vecs[:, i] for i in range(2) if float(vals[i]) >= 1e-14]
    out = None
    for weight, rho in zip(weights, _system_states(kets, reservoir, n, angle, order)):
        out = weight * rho if out is None else out + weight * rho
    return out


@dataclass(frozen=True)
class ExcitationState:
    """Amplitudes over the one-excitation basis: entry j = qubit j excited."""

    amplitudes: np.ndarray

    @classmethod
    def initial(cls, num_qubits: int) -> "ExcitationState":
        """|1> on the system qubit, |0> everywhere else."""
        amps = np.zeros(num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps)


def excitation_collide(es: ExcitationState, k: int, angle: SwapAngle) -> ExcitationState:
    """Collision between the system slot (0) and slot k inside the sector.

    The pair (a_0, a_k) mixes through [[c, is], [is, c]] while every other
    amplitude picks up the spectator phase (c + is) coming from the
    partial swap acting on its |00> component.
    """
    if not 1 <= k < es.amplitudes.size:
        raise ValueError(f"slot {k} out of range 1..{es.amplitudes.size - 1}")
    c, s = angle.c, angle.s
    amps = es.amplitudes * complex(c, s)
    a0, ak = es.amplitudes[0], es.amplitudes[k]
    amps[0] = c * a0 + 1j * s * ak
    amps[k] = 1j * s * a0 + c * ak
    return ExcitationState(amps)


def excitation_forward_run(n_reservoir: int, angle: SwapAngle, order=None) -> ExcitationState:
    """|1> against |0>^N collided in ``order`` (default 1..N), inside the sector."""
    es = ExcitationState.initial(n_reservoir + 1)
    for k in _checked_order(order, n_reservoir):
        es = excitation_collide(es, k, angle)
    return es
