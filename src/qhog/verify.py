"""Runnable property suites covering every documented invariant.

Each check is a named function that raises CheckFailure with a diagnostic
when its property is violated and otherwise returns a short detail
string.  The CLI ``verify`` command runs them all and exits nonzero on
any failure; the pytest suite runs the same functions one by one.
Checks draw their randomness from a seeded generator, so runs are
reproducible.

The stepwise suites check the code the CLI runs: their states come from
``collision.run_pure`` after each prefix of a collision order, their tables
from ``entanglement.pair_states``, ``concurrence_table`` and
``entanglement_tables``, and their iterates from ``homogenizer.run_trajectory``.
``collision.grown_product`` ties ``run_pure`` to the reference engine,
``CollisionState.run``, and ``collision.marginal_consistency`` runs a mixed
``simulate``'s ``collision.run_mixed_system`` too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import collision as col
from . import entanglement as ent
from . import homogenizer as hmg
from . import linalg as la
from . import safe
from .bloch import (
    QubitState,
    random_pure_state,
    random_state,
    trace_distance,
)

KET_ZERO = np.array([1.0, 0.0], dtype=complex)
KET_ONE = np.array([0.0, 1.0], dtype=complex)


class CheckFailure(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


def _random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_ket(rng, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return g / np.linalg.norm(g)


def _random_angle(rng) -> hmg.SwapAngle:
    return hmg.SwapAngle(rng.uniform(0.0, math.pi / 2))


def _prefix_runs(system, reservoir, n: int, angle, order=None) -> list:
    """``run_pure`` after each prefix of ``order`` (default 1..n), the empty prefix first."""
    order = range(1, n + 1) if order is None else order
    return [col.run_pure(system, reservoir, n, angle, order[:i]) for i in range(len(order) + 1)]


def _pair_tables(n: int, angle) -> list[dict]:
    """The concurrence table of the |1>/|0> run after each of its collisions 0..n."""
    runs = _prefix_runs(KET_ONE, KET_ZERO, n, angle)
    return [ent.concurrence_table(ent.pair_states(state)) for state in runs]


def _step_by_conjugation(rho: QubitState, xi: QubitState, angle) -> np.ndarray:
    """Brute-force one-step map: conjugate rho x xi by the partial swap and trace."""
    p = hmg.partial_swap_unitary(angle)
    joint = p @ la.tensor_product(rho.density(), xi.density()) @ p.conj().T
    return la.partial_trace(joint, [0])


# ---------------------------------------------------------------------------
# core linear algebra
# ---------------------------------------------------------------------------


def check_core_trace_preservation(rng, quick) -> str:
    worst = 0.0
    for _ in range(100 if quick else 400):
        dim = int(rng.choice([2, 4]))
        rho = _random_density(rng, dim)
        u = _random_unitary(rng, dim)
        out = u @ rho @ u.conj().T
        worst = max(worst, abs(np.trace(out) - np.trace(rho)))
    _require(worst <= 1e-12, f"trace changed by {worst:.3e} under conjugation")
    return f"max trace drift {worst:.2e}"


def check_core_partial_trace_composition(rng, quick) -> str:
    worst = 0.0
    for _ in range(20 if quick else 60):
        rho = _random_density(rng, 16)
        direct = la.partial_trace(rho, [0, 1])
        via_32 = la.partial_trace(la.partial_trace(rho, [0, 1, 2]), [0, 1])
        via_23 = la.partial_trace(la.partial_trace(rho, [0, 1, 3]), [0, 1])
        worst = max(
            worst,
            float(np.max(np.abs(direct - via_32))),
            float(np.max(np.abs(direct - via_23))),
        )
    _require(worst <= 1e-12, f"partial traces disagree by {worst:.3e}")
    return f"max composition mismatch {worst:.2e}"


def check_core_eig_reconstruction(rng, quick) -> str:
    worst_rec, worst_res = 0.0, 0.0
    for _ in range(50 if quick else 200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        vals, vecs = la.hermitian_eig(h)
        _require(all(vals[i] >= vals[i + 1] for i in range(3)), "eigenvalues not descending")
        rec = (vecs * vals) @ vecs.conj().T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - h))))
        for i in range(4):
            worst_res = max(worst_res, float(np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i])))
    _require(worst_rec <= 1e-9, f"eigendecomposition reconstruction off by {worst_rec:.3e}")
    _require(worst_res <= 1e-10, f"eigenpair residual {worst_res:.3e}")
    return f"reconstruction {worst_rec:.2e}, residual {worst_res:.2e}"


def check_core_trace_norm_bound(rng, quick) -> str:
    for _ in range(100 if quick else 400):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g + g.conj().T
        tn = la.trace_norm(h)
        _require(tn >= abs(np.trace(h).real) - 1e-12, "trace norm below |trace|")
    return "trace_norm(A) >= |tr A| held"


# ---------------------------------------------------------------------------
# Bloch model
# ---------------------------------------------------------------------------


def check_bloch_metric(rng, quick) -> str:
    for _ in range(300 if quick else 1000):
        a, b, c = (random_state(rng) for _ in range(3))
        dab = trace_distance(a, b)
        _require(abs(dab - trace_distance(b, a)) <= 1e-15, "distance not symmetric")
        _require(trace_distance(a, a) <= 1e-12, "self-distance nonzero")
        _require(
            trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-12,
            "triangle inequality violated",
        )
        _require(0.0 <= dab <= 2.0 + 1e-12, f"distance {dab} out of range")
    return "metric axioms held"


def check_bloch_trace_norm_agreement(rng, quick) -> str:
    worst = 0.0
    for _ in range(300 if quick else 1000):
        a, b = random_state(rng), random_state(rng)
        direct = trace_distance(a, b)
        via_core = la.trace_norm(a.density() - b.density())
        worst = max(worst, abs(direct - via_core))
    _require(worst <= 1e-12, f"Bloch vs matrix trace distance differ by {worst:.3e}")
    return f"max mismatch {worst:.2e}"


# ---------------------------------------------------------------------------
# homogenizer
# ---------------------------------------------------------------------------


def check_homogenizer_fixed_point(rng, quick) -> str:
    worst = 0.0
    edges = [hmg.SwapAngle(0.0), hmg.SwapAngle(math.pi / 2)]
    for i in range(300 if quick else 1000):
        xi = random_state(rng)
        angle = edges[i] if i < len(edges) else _random_angle(rng)
        out = hmg.step_system(xi, xi, angle)
        worst = max(worst, float(np.max(np.abs(out.w - xi.w))))
    _require(worst <= 1e-12, f"fixed point violated by {worst:.3e}")
    return f"max deviation {worst:.2e}"


def check_homogenizer_contraction(rng, quick) -> str:
    edges = [hmg.SwapAngle(0.0), hmg.SwapAngle(math.pi / 2)]
    for i in range(300 if quick else 1000):
        rho, omega, xi = random_state(rng), random_state(rng), random_state(rng)
        angle = edges[i] if i < len(edges) else _random_angle(rng)
        before = trace_distance(rho, omega)
        after = trace_distance(
            hmg.step_system(rho, xi, angle), hmg.step_system(omega, xi, angle)
        )
        _require(
            after <= angle.c * before + 1e-12,
            f"contraction violated: {after} > cos(eta) * {before}",
        )
    return "contraction factor cos(eta) held"


def check_homogenizer_three_way_agreement(rng, quick) -> str:
    worst = 0.0
    for _ in range(300 if quick else 1000):
        rho, xi = random_state(rng), random_state(rng)
        angle = _random_angle(rng)
        direct = hmg.step_system(rho, xi, angle)
        via_matrix = QubitState((hmg.superoperator(xi, angle) @ rho.affine())[1:])
        via_unitary = QubitState.from_density(_step_by_conjugation(rho, xi, angle))
        worst = max(
            worst,
            float(np.max(np.abs(direct.w - via_matrix.w))),
            float(np.max(np.abs(direct.w - via_unitary.w))),
        )
    _require(worst <= 1e-12, f"step implementations disagree by {worst:.3e}")
    return f"max disagreement {worst:.2e}"


def check_homogenizer_closed_form(rng, quick) -> str:
    worst = 0.0
    for _ in range(5 if quick else 20):
        rho0, xi = random_state(rng), random_state(rng)
        angle = _random_angle(rng)
        system = hmg.run_trajectory(rho0, xi, angle, 200).system
        for n in (0, 1, 2, 3, 5, 10, 25, 50, 100, 137, 200):
            closed = hmg.closed_form_system(rho0, xi, angle, n)
            worst = max(worst, float(np.max(np.abs(closed.w - system[n]))))
    _require(worst <= 1e-10, f"closed form deviates from iteration by {worst:.3e}")
    return f"max deviation {worst:.2e}"


def check_homogenizer_monotone_reservoir(rng, quick) -> str:
    for _ in range(20 if quick else 80):
        rho0, xi = random_state(rng), random_state(rng)
        angle = _random_angle(rng)
        d = hmg.run_trajectory(rho0, xi, angle, 40).d_reservoir[1:].tolist()
        for a, b in zip(d, d[1:]):
            _require(b <= a + 1e-12, f"reservoir distance grew: {a} -> {b}")
    return "outgoing reservoir distances non-increasing"


def check_homogenizer_worst_case_step(rng, quick) -> str:
    # 2 s^2 bounds the one-step reservoir displacement only for eta >= pi/4;
    # below that the commutator term lets perpendicular pure pairs exceed it
    for s2 in (0.5, 0.7, 0.9):
        angle = hmg.SwapAngle.from_sin_squared(s2)
        bound = 2.0 * angle.s**2
        worst = 0.0
        for _ in range(100 if quick else 400):
            rho0, xi = random_state(rng), random_state(rng)
            d = trace_distance(hmg.step_reservoir(rho0, xi, angle), xi)
            _require(d <= bound + 1e-12, f"s2={s2}: step distance {d} above 2 s^2 = {bound}")
            worst = max(worst, d)
        for _ in range(10):
            xi = random_pure_state(rng)
            rho0 = QubitState(-xi.w)
            worst = max(worst, trace_distance(hmg.step_reservoir(rho0, xi, angle), xi))
        _require(abs(worst - bound) <= 1e-9, f"s2={s2}: worst case {worst} misses {bound}")
    # the antipodal pure pair lands exactly at 2 s^2 for any angle
    for s2 in (0.05, 0.1, 0.3):
        angle = hmg.SwapAngle.from_sin_squared(s2)
        xi = random_pure_state(rng)
        d = trace_distance(hmg.step_reservoir(QubitState(-xi.w), xi, angle), xi)
        _require(abs(d - 2.0 * angle.s**2) <= 1e-9, f"antipodal distance {d} != 2 s^2")
    return "worst one-step displacement equals 2 s^2 at antipodal pure inputs"


def check_homogenizer_budget_soundness(rng, quick) -> str:
    details = []
    for delta in (0.5, 0.2, 0.1, 0.01):
        budget = hmg.budget_from_delta(delta)
        angle = hmg.SwapAngle(budget.eta_max)
        _require(
            abs(angle.s - math.sqrt(delta / 2.0)) <= 1e-12,
            f"budget angle for delta={delta} has sin {angle.s}",
        )
        xi = QubitState([0.0, 0.0, 0.5])
        rho0 = QubitState([0.0, 0.0, -0.5])
        d_at = trace_distance(hmg.closed_form_system(rho0, xi, angle, budget.n_delta), xi)
        d_before = trace_distance(
            hmg.closed_form_system(rho0, xi, angle, budget.n_delta - 1), xi
        )
        _require(d_at <= delta, f"delta={delta}: D after N_delta is {d_at} > {delta}")
        _require(
            d_before > delta * (1.0 - 1e-6),
            f"delta={delta}: D after N_delta - 1 is {d_before}, budget not tight",
        )
        details.append(f"{delta}:{budget.n_delta}")
    return "N_delta " + " ".join(details)


# ---------------------------------------------------------------------------
# collision simulator
# ---------------------------------------------------------------------------


def check_collision_norm_conservation(rng, quick) -> str:
    worst = 0.0
    for _ in range(5 if quick else 15):
        kets = _random_ket(rng), _random_ket(rng)
        for state in _prefix_runs(*kets, 6, _random_angle(rng), rng.permutation(6) + 1)[1:]:
            worst = max(worst, abs(float(np.sum(np.abs(state.vector) ** 2)) - 1.0))
    _require(worst <= 1e-12, f"norm drifted by {worst:.3e}")
    return f"max norm drift {worst:.2e}"


def check_collision_marginal_consistency(rng, quick) -> str:
    worst = 0.0
    n = 8 if quick else 12
    for _ in range(2 if quick else 3):
        sys_ket, res_ket = _random_ket(rng), _random_ket(rng)
        angle = _random_angle(rng)
        rho0, xi = (QubitState.from_density(np.outer(k, k.conj())) for k in (sys_ket, res_ket))
        runs = [(state.reduced(0), rho0, step)
                for step, state in enumerate(_prefix_runs(sys_ket, res_ket, n, angle)[1:], 1)]
        # a mixed simulate's path: two qubits above the blocks, a random partial order
        mixed, order = random_state(rng), rng.permutation(16)[: rng.integers(1, 17)] + 1
        runs.append((col.run_mixed_system(mixed, res_ket, 16, angle, order), mixed, len(order)))
        for rho, start, step in runs:
            want = hmg.closed_form_system(start, xi, angle, step)
            worst = max(worst, float(np.max(np.abs(QubitState.from_density(rho).w - want.w))))
    _require(worst <= 1e-10, f"simulator marginal deviates from closed form by {worst:.3e}")
    return f"max marginal deviation {worst:.2e}"


def check_collision_sector(rng, quick) -> str:
    """The |1>/|0> sector run f_j against the full vector, from every start.

    In the frame where the pure reservoir ket xi is |0>, a run from psi keeps
    the vacuum plus beta = <xi_perp|psi> times the f_j of the same order, so
    C_jk = 2|f_j||f_k|(1 - <xi|rho|xi>) from any system state rho, and
    tau_j = 4 p_j (|beta|^2 - p_j) with p_j = |beta f_j|^2 from a pure one.
    """
    n = 8 if quick else 12
    angle = _random_angle(rng)
    one_hot = [1 << (n - j) for j in range(n + 1)]
    worst_amp = worst_z = 0.0
    for step, state in enumerate(_prefix_runs(KET_ONE, KET_ZERO, n, angle)[1:], 1):
        rest = state.vector.copy()
        rest[one_hot] = 0.0
        _require(not rest.any(), f"weight outside the sector after collision {step}")
        f = col.excitation_forward_run(n, angle, range(1, step + 1)).amplitudes
        worst_amp = max(worst_amp, float(np.max(np.abs(state.vector[one_hot] - f))))
        for j in range(n + 1):
            rho = state.reduced(j)
            z_full = float((rho[0, 0] - rho[1, 1]).real)
            worst_z = max(worst_z, abs(z_full - (1.0 - 2.0 * abs(f[j]) ** 2)))
    _require(worst_amp <= 1e-12, f"sector amplitudes deviate by {worst_amp:.3e}")
    _require(worst_z <= 1e-12, f"sector z deviates from the full vector by {worst_z:.3e}")

    n = 9
    angle = hmg.SwapAngle.from_sin_squared(0.1)
    forward = col.run_pure(KET_ONE, KET_ZERO, n, angle)
    f = col.excitation_forward_run(n, angle).amplitudes
    orders = [[int(q) + 1 for q in rng.permutation(n)] for _ in range(200 if quick else 1000)]
    z_sector = safe.unwind_z_excitation(f, 0, orders, angle)
    worst_unwind = worst_off = 0.0
    for trial, order in enumerate(orders):
        z = safe.unwind(forward, 0, order)
        _require(-1.0 - 1e-12 <= z <= 1.0 + 1e-12, f"z out of range: {z}")
        worst_unwind = max(worst_unwind, abs(z - z_sector[trial]))
        if trial < 10:
            vec = forward.vector.copy()
            for q in order:
                col.apply_two_qubit(vec, n + 1, angle, 0, q, inverse=True)
            for j in range(n + 1):
                worst_off = max(worst_off, abs(col.reduced_from_vector(vec, n + 1, [j])[0, 1]))
    _require(worst_unwind <= 1e-12, f"sector unwinding deviates by {worst_unwind:.3e}")
    _require(worst_off <= 1e-12, f"unwound states not diagonal: off-diag {worst_off:.3e}")

    worst_c = worst_tau = 0.0
    for draw in range(4 if quick else 6):
        n = int(rng.integers(1, 7))
        angle, xi = _random_angle(rng), _random_ket(rng)
        order = [int(k) + 1 for k in rng.permutation(n)[: rng.integers(0, n + 1)]]
        f = np.abs(col.excitation_forward_run(n, angle, order).amplitudes)
        # an uncollided qubit is still xi, in a product with the rest (uncollided_product)
        touched = [0, *sorted(order)]
        pairs = [(j, k) for j in touched for k in touched if j < k]
        if draw % 2:
            rho0 = random_state(rng)
            weight = 1.0 - float(np.vdot(xi, rho0.density() @ xi).real)
            # the eigen-mixture of pure runs is what a mixed system's run means
            vals, vecs = la.hermitian_eig(rho0.density())
            states = [col.run_pure(vecs[:, i], xi, n, angle, order) for i in range(2)]
            rhos = [sum(v * s.reduced(pair) for v, s in zip(vals, states)) for pair in pairs]
        else:
            psi = _random_ket(rng)
            weight = 1.0 - abs(np.vdot(xi, psi)) ** 2
            state = col.run_pure(psi, xi, n, angle, order)
            rhos = [state.reduced(pair) for pair in pairs]
            for j, p in enumerate(weight * f**2):
                tau = ent.tangle_one_vs_rest(state, j)
                worst_tau = max(worst_tau, abs(tau - 4.0 * p * (weight - p)))
        for (j, k), rho in zip(pairs, rhos):
            c, want = ent.concurrence(rho), 2.0 * f[j] * f[k] * weight
            # the reading is 0.0 below the floor, and either value right at it
            err = min(abs(c - want), c) if want < 1.01 * ent.CONCURRENCE_FLOOR else abs(c - want)
            worst_c = max(worst_c, err)
    _require(worst_c <= 1e-8, f"pair concurrence deviates from the sector form by {worst_c:.3e}")
    _require(worst_tau <= 1e-8, f"tangle deviates from the sector form by {worst_tau:.3e}")
    return (f"amplitude {worst_amp:.2e}, z {worst_z:.2e}, unwind {worst_unwind:.2e}, "
            f"off-diag {worst_off:.2e}, C {worst_c:.2e}, tau {worst_tau:.2e}")


def check_collision_uncollided_product(rng, quick) -> str:
    n = 6
    angle = _random_angle(rng)
    state = col.run_pure(_random_ket(rng), _random_ket(rng), n, angle, []).run([1, 2])
    table = ent.concurrence_table(ent.pair_states(state))
    worst = max(c for (j, k), c in table.items() if j >= 3)
    _require(worst <= 1e-10, f"uncollided qubits entangled: concurrence {worst:.3e}")
    return f"max uncollided concurrence {worst:.2e}"


def check_collision_grown_product(rng, quick) -> str:
    worst = 0.0
    for _ in range(5 if quick else 15):
        n = int(rng.integers(1, 8))
        sys_ket, res_ket, angle = _random_ket(rng), _random_ket(rng), _random_angle(rng)
        order = [int(k) + 1 for k in rng.permutation(n)[: rng.integers(0, n + 1)]]
        grown = col.run_pure(sys_ket, res_ket, n, angle, order)
        full = col.run_pure(sys_ket, res_ket, n, angle, []).run(order)
        _require(grown.log == order, f"run_pure logged {grown.log} for order {order}")
        worst = max(worst, float(np.max(np.abs(grown.vector - full.vector))))
    _require(worst <= 1e-12, f"grown state deviates from the full-vector run by {worst:.3e}")
    return f"max amplitude deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# entanglement
# ---------------------------------------------------------------------------


def check_entanglement_ckw_saturation(rng, quick) -> str:
    runs = _prefix_runs(KET_ONE, KET_ZERO, 6 if quick else 10, hmg.SwapAngle.from_sin_squared(0.1))
    # the tangle rows {j, tau, S} of each run
    worst = max(abs(row["S"] - row["tau"]) for state in runs
                for row in ent.entanglement_tables(state, KET_ONE, KET_ZERO)[1])
    _require(worst <= 1e-8, f"CKW bound not saturated, gap {worst:.3e}")
    return f"max |S_j - tau_j| = {worst:.2e}"


def check_entanglement_closed_form_match(rng, quick) -> str:
    n = 6 if quick else 10
    worst = 0.0
    for s2 in ((0.1,) if quick else (0.05, 0.1, 0.5)):
        angle = hmg.SwapAngle.from_sin_squared(s2)
        for step, got in enumerate(_pair_tables(n, angle)):
            want = ent.closed_form_concurrences(step, n, angle)
            worst = max(worst, *(abs(c - want[pair]) for pair, c in got.items()))
    _require(worst <= 1e-8, f"closed-form concurrence deviates by {worst:.3e}")
    return f"max deviation {worst:.2e}"


def check_entanglement_persistence(rng, quick) -> str:
    tables = _pair_tables(6, hmg.SwapAngle.from_sin_squared(0.2))
    # each reservoir pair (j, k) after collision k and later, against its value at k
    worst = max(abs(c - tables[k][(j, k)]) for step, table in enumerate(tables)
                for (j, k), c in table.items() if j and k <= step)
    _require(worst <= 1e-9, f"reservoir pair concurrence drifted by {worst:.3e}")
    return f"max drift {worst:.2e}"


def check_entanglement_decay(rng, quick) -> str:
    tables = _pair_tables(6, hmg.SwapAngle.from_sin_squared(0.2))
    for step in range(2, len(tables)):
        for k in range(1, step):
            old, new = tables[step - 1][(0, k)], tables[step][(0, k)]
            _require(new < old, f"C_0{k} did not decay: {old} -> {new}")
    return "system-reservoir concurrences strictly decay"


def check_entanglement_vanishing(rng, quick) -> str:
    maxima = []
    for delta in (0.5, 0.2, 0.1, 0.05):
        budget = hmg.budget_from_delta(delta)
        angle = hmg.SwapAngle(budget.eta_max)
        table = ent.closed_form_concurrences(budget.n_delta, budget.n_delta, angle)
        maxima.append(max(table.values()))
    for a, b in zip(maxima, maxima[1:]):
        _require(b < a, f"pairwise concurrence maxima not vanishing: {maxima}")
    _require(maxima[-1] < 0.06, f"residual concurrence {maxima[-1]} too large")
    return "max pair concurrence " + " > ".join(f"{m:.4f}" for m in maxima)


def check_entanglement_local_unitary_invariance(rng, quick) -> str:
    worst = 0.0
    for _ in range(20 if quick else 60):
        rho = _random_density(rng, 4)
        u = la.tensor_product(_random_unitary(rng, 2), _random_unitary(rng, 2))
        c1 = ent.concurrence(rho)
        c2 = ent.concurrence(u @ rho @ u.conj().T)
        worst = max(worst, abs(c1 - c2))
    _require(worst <= 1e-9, f"concurrence changed by {worst:.3e} under local unitaries")
    return f"max change {worst:.2e}"


# ---------------------------------------------------------------------------
# unwinding
# ---------------------------------------------------------------------------


def check_safe_reversibility(rng, quick) -> str:
    n = 6
    angle = _random_angle(rng)
    initial = col.run_pure(_random_ket(rng), _random_ket(rng), n, angle, [])
    forward = initial.run()
    vec = forward.vector.copy()
    for k in range(n, 0, -1):
        col.apply_two_qubit(vec, n + 1, angle, 0, k, inverse=True)
    worst = float(np.max(np.abs(vec - initial.vector)))
    _require(worst <= 1e-9, f"exact reverse failed to restore the state ({worst:.3e})")
    return f"max amplitude error {worst:.2e}"


def check_safe_determinism(rng, quick) -> str:
    angle = hmg.SwapAngle.from_sin_squared(0.1)
    a = safe.sweep_correct(5, angle)
    b = safe.sweep_correct(5, angle)
    _require(a == b, "exhaustive sweep not reproducible")
    c = safe.sweep_incorrect(4, angle, sample=500, seed=7)
    d = safe.sweep_incorrect(4, angle, sample=500, seed=7)
    _require(c == d, "sampled sweep not reproducible for a fixed seed")
    # the sampled trials read safe's own PCG64 stream: its first three rounds
    # must be numpy's, from a seed of one to five 32-bit words
    seed = int.from_bytes(rng.bytes(int(rng.integers(1, 21))), "little")
    stream = safe._PCG64(seed)
    got = np.concatenate([next(stream) for _ in range(3)])
    want = np.random.default_rng(seed).bit_generator.random_raw(3 * safe._LANES)
    _require(np.array_equal(got, want),
             f"PCG64 stream of seed {seed} differs from numpy's at word "
             f"{int(np.argmax(got != want))}")
    return f"sweeps bit-identical across runs; PCG64 stream of seed {seed} equals numpy's"


def check_safe_full_swap(rng, quick) -> str:
    """Exact reversals at the ends of the angle range, where the safe does not hold.

    Unwinding is b_j <- u b_j + v b_k with u = c^2 + ics and v = s^2 - ics.
    At a full swap c = 0, so u = 0 and v = 1: the unwound qubit ends holding
    the forward amplitude of the last slot of the order, and the forward
    run left the excitation in slot 1 alone.  So an order reverses exactly
    when it ends on slot 1: (N-1)! of the N! orders in correct mode, and
    (N-1) (N-1)! of the N N! in incorrect mode, where the wrong choice is
    not slot 1.  At eta = 0, u = 1 and v = 0, so nothing moves, and the
    forward run moved nothing either: the system still holds the
    excitation, so all N! orders reverse in correct mode and none in
    incorrect mode.
    """
    full, still = hmg.SwapAngle(math.pi / 2), hmg.SwapAngle(0.0)
    f, cases = math.factorial, []
    for n in (3, 4, 5):
        cases += [("correct", n, full, f(n - 1), f(n)), ("correct", n, still, f(n), f(n))]
    for n in (3, 4):
        total = n * f(n)
        cases += [("incorrect", n, full, (n - 1) * f(n - 1), total),
                  ("incorrect", n, still, 0, total)]
    for mode, n, angle, exact, total in cases:
        sweep = safe.sweep_correct if mode == "correct" else safe.sweep_incorrect
        hist = sweep(n, angle)
        _require((hist.exact_reversals, hist.total_trials) == (exact, total),
                 f"{mode} N={n} eta={angle.eta:.4f}: {hist.exact_reversals} of "
                 f"{hist.total_trials} orders reversed, want {exact} of {total}")
    return f"{len(cases)} sweeps: (N-1)! and (N-1) (N-1)! at a full swap, N! and 0 at eta = 0"


# "core.trace_preservation" -> check_core_trace_preservation, in definition order
ALL_CHECKS = {name[len("check_"):].replace("_", ".", 1): fn
              for name, fn in list(globals().items()) if name.startswith("check_")}


def run_check(name: str, seed: int, quick: bool) -> CheckResult:
    fn = ALL_CHECKS[name]
    # mix the check name into the seed so suites draw independent streams
    rng = np.random.default_rng([seed, *name.encode()])
    start = time.perf_counter()
    try:
        detail = fn(rng, quick=quick)
        ok = True
    except CheckFailure as exc:
        detail = str(exc)
        ok = False
    return CheckResult(name, ok, detail, time.perf_counter() - start)


def run_checks(names, seed: int, quick: bool) -> list[CheckResult]:
    """Run the checks ``names`` (None for all); bad names raise before any check runs."""
    if names is None:
        names = list(ALL_CHECKS)
    if not all(names):
        raise ValueError(f"empty check name in {','.join(names)!r}")
    unknown = [name for name in names if name not in ALL_CHECKS]
    if unknown:
        raise ValueError(f"unknown check {', '.join(unknown)}")
    return [run_check(name, seed=seed, quick=quick) for name in names]
