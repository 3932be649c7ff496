import math

import numpy as np
import pytest

from qhog import collision
from qhog.bloch import QubitState
from qhog.collision import (
    _BLOCK,
    ExcitationState,
    _system_states,
    _tail_length,
    apply_two_qubit,
    excitation_collide,
    excitation_forward_run,
    max_qubits,
    reduced_from_vector,
    run_mixed_system,
    run_pure,
)
from qhog.homogenizer import SwapAngle, closed_form_system, partial_swap_unitary, step_system
from qhog.linalg import hermitian_eig, tensor_product

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)

ANGLE = SwapAngle.from_sin_squared(0.1)


def test_init_pure_basis_placement():
    state = run_pure(KET1, KET0, 3, ANGLE, [])
    # |1> on the system (qubit 0, most significant bit) -> index 0b1000
    expected = np.zeros(16, dtype=complex)
    expected[0b1000] = 1.0
    assert np.array_equal(state.vector, expected)
    assert state.log == []

    state = run_pure(KET0, KET0, 2, ANGLE, [])
    assert state.vector[0] == 1.0 and np.count_nonzero(state.vector) == 1

    state = run_pure(PLUS, KET0, 1, ANGLE, [])
    assert state.vector[0b00] == pytest.approx(1 / math.sqrt(2))
    assert state.vector[0b10] == pytest.approx(1 / math.sqrt(2))


def test_init_pure_validation():
    with pytest.raises(ValueError):
        run_pure([1, 1], KET0, 2, ANGLE, [])  # not normalized
    with pytest.raises(ValueError):
        run_pure(KET0, KET0, 0, ANGLE, [])
    with pytest.raises(ValueError):
        run_pure(KET0, KET0, 30, ANGLE, [])  # above the qubit cap


def test_qubit_cap_env_override(monkeypatch):
    monkeypatch.setenv("QHOG_MAX_QUBITS", "5")
    assert max_qubits() == 5
    with pytest.raises(ValueError):
        run_pure(KET0, KET0, 5, ANGLE, [])
    run_pure(KET0, KET0, 4, ANGLE, [])


def _generic_ket(seed):
    g = np.random.default_rng(seed).normal(size=(2, 2)) @ [1, 1j]
    return g / np.linalg.norm(g)


def _orders(n):
    scrambled = [int(k) + 1 for k in np.random.default_rng(n).permutation(n)]
    return {"full": None, "scrambled": scrambled, "partial": scrambled[: max(1, n // 2)],
            "empty": []}


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
@pytest.mark.parametrize("reservoir", ["zero", "one"])
def test_run_pure_bitwise_matches_full_vector_run(n, reservoir):
    # with a |0> or |1> reservoir every product of the initial state is
    # exact, so growing the state one qubit at a time gives the same values;
    # the bits match too unless a system component has a negative real
    # part, when an exact zero amplitude can carry the other sign
    res_ket = KET0 if reservoir == "zero" else KET1
    # the last two are the eigenvectors run_mixed_system takes for (0.2, 0, 0.1)
    eigvecs = hermitian_eig(QubitState([0.2, 0, 0.1]).density())[1].T
    systems = (KET0, KET1, PLUS, np.array([0.6, 0.8j]), _generic_ket(n), *eigvecs)
    for i, sys_ket in enumerate(systems):
        for label, order in _orders(n).items():
            got = run_pure(sys_ket, res_ket, n, ANGLE, order)
            want = run_pure(sys_ket, res_ket, n, ANGLE, []).run(order)
            assert got.log == want.log == (list(range(1, n + 1)) if order is None else order)
            assert np.array_equal(got.vector, want.vector), (i, label)
            if np.all(sys_ket.real >= 0):
                assert np.array_equal(got.vector.view(np.uint64), want.vector.view(np.uint64)), (
                    i, label)
        reservoir_product = res_ket
        for _ in range(n - 1):
            reservoir_product = np.kron(reservoir_product, res_ket)
        start = run_pure(sys_ket, res_ket, n, ANGLE, []).vector
        assert np.array_equal(start.view(np.uint64),
                              np.kron(sys_ket, reservoir_product).view(np.uint64))


def test_run_pure_matches_full_vector_run_for_other_reservoirs():
    # products of the reservoir components round differently when the
    # uncollided qubits are multiplied in after some collisions
    reservoirs = (PLUS, np.array([0.6, 0.8j]), _generic_ket(7))
    for n in (1, 2, 5, 9):
        for res_ket in reservoirs:
            for sys_ket in (KET1, PLUS, _generic_ket(n)):
                for order in _orders(n).values():
                    got = run_pure(sys_ket, res_ket, n, ANGLE, order)
                    want = run_pure(sys_ket, res_ket, n, ANGLE, []).run(order)
                    assert np.max(np.abs(got.vector - want.vector)) <= 1e-15


def test_run_pure_validates_before_allocating(monkeypatch):
    allocations = []
    real_empty = np.empty
    monkeypatch.setattr(np, "empty", lambda *a, **k: allocations.append(a) or real_empty(*a, **k))
    for args, kwargs, message in (
        (([1, 1], KET0, 2), {}, "system ket is not normalized"),
        ((KET0, [1, 0, 0], 2), {}, "reservoir ket must have two components"),
        ((KET0, KET0, 0), {}, "need at least one reservoir qubit"),
        ((KET0, KET0, 3), {"order": [2, 1, 2]}, "collision order contains repeats"),
        ((KET0, KET0, 3), {"order": [4]}, "reservoir index 4 out of range 1..3"),
        ((KET0, KET0, 3), {"order": [0]}, "reservoir index 0 out of range 1..3"),
    ):
        with pytest.raises(ValueError, match=message):
            run_pure(*args, ANGLE, **kwargs)
    monkeypatch.setenv("QHOG_MAX_QUBITS", "4")
    with pytest.raises(ValueError, match="5 qubits exceeds the configured cap of 4"):
        run_pure(KET0, KET0, 4, ANGLE)
    assert allocations == []
    assert run_pure(KET0, KET0, 3, ANGLE).num_qubits == 4


def _elementwise_oracle(vec, num_qubits, angle, a, b, inverse):
    """apply_two_qubit's arithmetic on the regrouped rows |00>, |01>, |10>, |11> of (a, b)."""
    t = np.moveaxis(vec.reshape([2] * num_qubits), (a, b), (0, 1)).reshape(4, -1)
    c, i_s = angle.c, 1j * (-angle.s if inverse else angle.s)
    out = np.stack([t[0] * c + i_s * t[0], c * t[1] + i_s * t[2],
                    i_s * t[1] + c * t[2], t[3] * c + i_s * t[3]])
    return np.moveaxis(out.reshape((2,) * num_qubits), (0, 1), (a, b)).reshape(-1)


# quarter sizes 1, 2, 2**2, 2**11, 2**15 and 2**17 amplitudes: a single
# element, below _BLOCK, and two and eight blocks; the pairs reach every
# way the kernel cuts a quarter into blocks, with a > b as well as a < b
@pytest.mark.parametrize("n", [2, 3, 4, 13, 17, 19])
def test_apply_two_qubit_bitwise_matches_matrix_product(n):
    rng = np.random.default_rng(n)
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    pairs = {(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (n // 2, n - 1), (n - 1, n // 2 - 1)}
    assert (2 ** (n - 2) > _BLOCK) == (n >= 17)
    for eta in (0.1, 0.4636, 1.0, math.pi / 2):
        angle = SwapAngle(eta)
        p = partial_swap_unitary(angle)
        for inverse, u4 in ((False, p), (True, p.conj().T)):
            for a, b in sorted((a, b) for a, b in pairs if a != b):
                got = vec.copy()
                apply_two_qubit(got, n, angle, a, b, inverse=inverse)
                want = _elementwise_oracle(vec, n, angle, a, b, inverse)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (a, b, inverse)
                t = np.moveaxis(vec.reshape([2] * n), (a, b), (0, 1)).reshape(4, -1)
                product = np.moveaxis((u4 @ t).reshape((2,) * n), (0, 1), (a, b)).reshape(-1)
                assert np.allclose(got, product, rtol=0, atol=1e-14)


def test_apply_two_qubit_validation():
    vec = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        apply_two_qubit(vec, 3, ANGLE, 1, 1)
    with pytest.raises(ValueError):
        apply_two_qubit(vec, 3, ANGLE, 0, 3)
    with pytest.raises(ValueError):
        apply_two_qubit(np.zeros(16, dtype=complex)[::2], 3, ANGLE, 0, 1)


def test_run_and_collide_leave_the_input_unchanged():
    state = run_pure(PLUS, np.array([0.6, 0.8j]), 5, ANGLE, []).run([2])
    before = state.vector.copy()
    chained = state
    for k in (3, 1, 5):
        chained = chained.run([k])
    ran = state.run([3, 1, 5])
    assert np.array_equal(state.vector.view(np.uint64), before.view(np.uint64))
    assert state.log == [2]
    assert np.array_equal(ran.vector.view(np.uint64), chained.vector.view(np.uint64))
    assert ran.log == chained.log == [2, 3, 1, 5]
    state.run()
    assert np.array_equal(state.vector.view(np.uint64), before.view(np.uint64))


def test_collide_identity_angle():
    state = run_pure(PLUS, KET0, 2, SwapAngle(0.0), [])
    after = state.run([1])
    assert np.allclose(after.vector, state.vector, atol=1e-15)
    assert after.log == [1]


def test_collide_full_swap():
    state = run_pure(KET1, KET0, 1, SwapAngle(math.pi / 2), [])
    after = state.run([1])
    expected = np.zeros(4, dtype=complex)
    expected[0b01] = 1j  # i |01>: swapped with a global phase i
    assert np.allclose(after.vector, expected, atol=1e-15)


def test_collide_index_validation():
    state = run_pure(KET1, KET0, 2, ANGLE, [])
    with pytest.raises(ValueError):
        state.run([0])
    with pytest.raises(ValueError):
        state.run([3])


def test_single_collision_matches_bloch_step():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        sys_ket = g / np.linalg.norm(g)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        res_ket = g / np.linalg.norm(g)
        angle = SwapAngle(rng.uniform(0, math.pi / 2))
        state = run_pure(sys_ket, res_ket, 3, angle, []).run([1])
        got = QubitState.from_density(state.reduced(0))
        rho0, xi = (QubitState.from_density(np.outer(k, k.conj())) for k in (sys_ket, res_ket))
        want = step_system(rho0, xi, angle)
        assert np.allclose(got.w, want.w, atol=1e-12)


def test_run_default_order_and_errors():
    state = run_pure(KET1, KET0, 3, ANGLE, [])
    full = state.run()
    assert full.log == [1, 2, 3]
    with pytest.raises(ValueError):
        state.run([1, 1])
    custom = state.run([3, 1])
    assert custom.log == [3, 1]


def test_reduced_before_any_collision():
    state = run_pure(PLUS, KET0, 2, ANGLE, [])
    assert np.allclose(state.reduced(0), np.outer(PLUS, PLUS.conj()), atol=1e-12)
    assert np.allclose(state.reduced(1), np.outer(KET0, KET0.conj()), atol=1e-12)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_reduced_from_vector_matches_matrix_product():
    # n = 2..17 reaches every way _blocks cuts a half or a quarter of the state
    rng = np.random.default_rng(17)
    for n in range(2, 18):
        vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        vec /= np.linalg.norm(vec)
        mid = n // 2
        keeps = [[0], [mid], [n - 1], [0, 1], [1, 0], [0, n - 1], [n - 1, 0],
                 [n - 2, n - 1], [n - 1, n - 2], [mid - 1, mid], [mid, mid - 1]]
        for keep in keeps:
            if len(set(keep)) != len(keep):
                continue
            got = reduced_from_vector(vec, n, keep)
            t = np.moveaxis(vec.reshape([2] * n), keep, range(len(keep)))
            m = t.reshape(2 ** len(keep), -1)
            assert np.max(np.abs(got - m @ m.conj().T)) <= 1e-14, (n, keep)
            iu = np.triu_indices(len(got), 1)
            assert np.array_equal(_bits(got.real), _bits(got.real.T)), (n, keep)
            assert np.array_equal(_bits(got.imag[iu]), _bits(-got.imag.T[iu])), (n, keep)
            assert not _bits(np.diag(got).imag).any(), (n, keep)
    with pytest.raises(ValueError, match="one or two distinct qubits"):
        reduced_from_vector(vec, 17, [0, 1, 2])
    with pytest.raises(ValueError, match="one or two distinct qubits"):
        reduced_from_vector(vec, 17, [3, 3])
    with pytest.raises(ValueError, match="one or two distinct qubits"):
        reduced_from_vector(vec, 17, [0, 17])


def test_reduced_system_matches_closed_form():
    n = 8
    state = run_pure(KET1, KET0, n, ANGLE, [])
    rho0 = QubitState([0, 0, -0.5])
    xi = QubitState([0, 0, 0.5])
    for step in range(1, n + 1):
        state = state.run([step])
        got = QubitState.from_density(state.reduced(0))
        want = closed_form_system(rho0, xi, ANGLE, step)
        assert np.allclose(got.w, want.w, atol=1e-10)


def test_pair_state_after_joint_interaction():
    # the (system, k) pair is exactly P (rho_sys x xi) P+ because qubit k
    # was untouched before its collision
    angle = SwapAngle.from_sin_squared(0.3)
    sys_ket = np.array([0.6, 0.8j], dtype=complex)
    state = run_pure(sys_ket, KET0, 3, angle, [])
    p = partial_swap_unitary(angle)
    for k in (1, 2, 3):
        rho_before = state.reduced(0)
        state = state.run([k])
        oracle = p @ tensor_product(rho_before, np.diag([1.0, 0.0])) @ p.conj().T
        assert np.allclose(state.reduced([0, k]), oracle, atol=1e-12)


def test_pair_state_entry_magnitudes():
    # entry magnitudes of the pair after its joint interaction, written in
    # terms of the pre-collision populations a and coherence b
    angle = SwapAngle.from_sin_squared(0.3)
    c, s = angle.c, angle.s
    sys_ket = np.array([0.6, 0.8j], dtype=complex)
    state = run_pure(sys_ket, KET0, 2, angle, []).run([1])
    rho1 = state.reduced(0)
    a, b = rho1[0, 0].real, abs(rho1[0, 1])
    red = state.run([2]).reduced([0, 2])
    expected_abs = np.array(
        [
            [a, s * b, c * b, 0],
            [s * b, s**2 * (1 - a), s * c * (1 - a), 0],
            [c * b, s * c * (1 - a), c**2 * (1 - a), 0],
            [0, 0, 0, 0],
        ]
    )
    assert np.allclose(np.abs(red), expected_abs, atol=1e-12)


def test_reservoir_marginals_match_trajectory():
    # qubit k is touched only in its own collision, so its marginal after
    # the full run equals the recursion's outgoing state at step k
    from qhog.homogenizer import run_trajectory

    n = 6
    angle = SwapAngle.from_sin_squared(0.3)
    sys_ket = np.array([0.6, 0.8j], dtype=complex)
    state = run_pure(sys_ket, PLUS, n, angle, []).run()
    rho0, xi = (QubitState.from_density(np.outer(k, k.conj())) for k in (sys_ket, PLUS))
    traj = run_trajectory(rho0, xi, angle, n)
    for k in range(1, n + 1):
        got = QubitState.from_density(state.reduced(k))
        assert np.allclose(got.w, traj.steps[k].reservoir_out.w, atol=1e-12)


def test_norm_conserved_along_run():
    rng = np.random.default_rng(37)
    g = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = run_pure(g / np.linalg.norm(g), PLUS, 6, SwapAngle(0.7), [])
    for k in (3, 1, 6, 2, 5, 4):
        state = state.run([k])
        assert abs(np.sum(np.abs(state.vector) ** 2) - 1.0) <= 1e-12


def test_run_mixed_pure_input_reduces_to_run():
    state = run_pure(KET1, KET0, 4, ANGLE, []).run()
    pure = QubitState([0, 0, -0.5])
    assert np.allclose(run_mixed_system(pure, KET0, 4, ANGLE), state.reduced(0), atol=1e-12)
    start = run_pure(KET1, KET0, 4, ANGLE, []).reduced(0)
    assert np.allclose(run_mixed_system(pure, KET0, 4, ANGLE, []), start, atol=1e-12)


def test_run_mixed_maximally_mixed_is_average():
    mixed = run_mixed_system(QubitState([0, 0, 0]), KET0, 3, ANGLE)
    up = run_pure(KET0, KET0, 3, ANGLE, []).run()
    down = run_pure(KET1, KET0, 3, ANGLE, []).run()
    average = 0.5 * up.reduced(0) + 0.5 * down.reduced(0)
    assert np.allclose(mixed, average, atol=1e-12)


def test_run_mixed_diagonal_matches_closed_form():
    rho0 = QubitState([0, 0, -0.25])  # diag(1/4, 3/4)
    mixed = run_mixed_system(rho0, KET0, 3, ANGLE)
    got = QubitState.from_density(mixed)
    want = closed_form_system(rho0, QubitState([0, 0, 0.5]), ANGLE, 3)
    assert np.allclose(got.w, want.w, atol=1e-10)


def _streamed_cases(rng):
    """(n, order, log2 block) cases of the streamed run.

    With the real 2**14-amplitude blocks: every last qubit for n <= 6,
    partial orders included, then n = 14..18 with 0 to 3 of the last eight
    qubits above the blocks.  Such blocks leave a run of n <= 13 in one
    part, and a larger part sums too many amplitudes for one amplitude's
    last bit to show in the system's 2x2 state, so small blocks then cut
    n = 5..9 into many parts, where it does.  Last, the empty order, whose
    prefix is the whole product state: n = 1..16 with the real blocks and
    n = 5..9 with small ones.
    """
    yield 1, [1], 14
    for n in range(2, 7):
        for last in range(1, n + 1):
            rest = [int(k) for k in rng.permutation([k for k in range(1, n + 1) if k != last])]
            yield n, rest + [last], 14
            yield n, rest[: n // 2] + [last], 14  # leaves the other qubits untouched
    for n, high_in_tail in ((14, 0), (15, 1), (16, 2), (16, 0), (17, 3), (17, 1), (18, 2),
                            (18, 3)):
        high = n - 14  # qubits 1..high pick the block
        tops = [int(k) + 1 for k in rng.permutation(high)]
        lows = [int(k) + high + 1 for k in rng.permutation(n - high)]
        tail = [int(k) for k in rng.permutation(tops[:high_in_tail] + lows[: 8 - high_in_tail])]
        rest = [int(k) for k in rng.permutation(tops[high_in_tail:] + lows[8 - high_in_tail:])]
        yield n, rest[: len(rest) // 2 if n % 2 else None] + tail, 14
    for _ in range(40):
        n = int(rng.integers(5, 10))
        order = [int(k) + 1 for k in rng.permutation(n)]
        yield n, order[int(rng.integers(0, 2)) * n // 3:], int(rng.integers(1, 4))
    for n in range(1, 17):
        yield n, [], 14
    for n in range(5, 10):
        yield n, [], int(rng.integers(1, 4))


def test_streamed_system_state_is_run_pure_bit_for_bit(monkeypatch):
    # the last m collisions are streamed part by part from a prefix without
    # them; _insert_qubit reads every one-amplitude row 0 from a copy, so a
    # part's products round as the materialized state's do, complex kets
    # included.  Every m the chooser can pick is forced on it, with the
    # parts its blocks give
    rng = np.random.default_rng(20)
    for i, (n, order, block) in enumerate(_streamed_cases(rng)):
        monkeypatch.setattr(collision, "_BLOCK", 1 << block)
        system, reservoir = _generic_ket(2 * i), _generic_ket(2 * i + 1)
        if i % 5 == 0:  # and the |1> system against the |0> reservoir
            system, reservoir = KET1, KET0
        angle = SwapAngle(float(rng.uniform(0.1, 1.4)))
        want = run_pure(system, reservoir, n, angle, order).reduced(0).view(np.uint64)
        high = n + 1 - min(1 << block, 1 << n).bit_length()
        for m in range(min(1, len(order)), min(8, len(order)) + 1):
            fixed = [q for q in range(1, high + 1) if q not in order[len(order) - m:]]
            monkeypatch.setattr(collision, "_tail_length", lambda n, order: (m, high, fixed))
            (got,) = _system_states([system], reservoir, n, angle, order)
            assert np.array_equal(got.view(np.uint64), want), (n, order, block, m)


def test_tail_length_holds_the_least():
    # the prefix takes 2**(n+1-m) amplitudes and the one part 2**(15+h),
    # with h <= 3 tail qubits above the blocks (qubits 1..7 at 22 qubits):
    # with 7, 1, 2, 3 last, the run streams 3 collisions from 8 MiB of
    # prefix into one 4 MiB part
    low = list(range(8, 22))
    m, high, fixed = _tail_length(21, low + [4, 5, 6, 7, 1, 2, 3])
    assert (m, high, fixed) == (3, 7, [4, 5, 6, 7])
    assert _tail_length(21, [4, 5, 6, 7, 1, 2, 3] + low)[0] == 8
    # the fourth tail qubit above the blocks would double the part
    assert _tail_length(21, low[:-2] + [7, 6, 5, 4, 1, 2, 21, 20])[0] == 4
    assert _tail_length(21, [1])[0] == 1
    assert _tail_length(15, [1])[0] == 1  # m = 0 would hold as much
    assert all(_tail_length(n, [])[0] == 0 for n in range(1, 22))  # the whole product state
    assert _tail_length(3, [1, 2, 3])[0] == 3  # one part: the whole final state


def test_excitation_initial_and_collisions():
    es = ExcitationState.initial(4)
    assert np.array_equal(es.amplitudes, [1, 0, 0, 0])
    for k in (0, 4):  # slot 0 is the system, and slots 1..3 the reservoir
        with pytest.raises(ValueError, match=f"slot {k} out of range 1..3"):
            excitation_collide(es, k, ANGLE)
    n = 6
    es = excitation_forward_run(n, ANGLE)
    c, s = ANGLE.c, ANGLE.s
    assert es.amplitudes[0] == pytest.approx(c**n, abs=1e-14)
    for l in range(1, n + 1):
        expected = 1j * s * c ** (l - 1) * (c + 1j * s) ** (n - l)
        assert es.amplitudes[l] == pytest.approx(expected, abs=1e-13)


def test_excitation_matches_full_vector():
    n, order = 7, [3, 7, 1, 5]
    one_hot = [1 << (n - j) for j in range(n + 1)]
    state = run_pure(KET1, KET0, n, ANGLE, [])
    for step, k in enumerate(order, 1):
        state = state.run([k])
        es = excitation_forward_run(n, ANGLE, order[:step])
        assert np.allclose(state.vector[one_hot], es.amplitudes, atol=1e-12)
        rest = state.vector.copy()
        rest[one_hot] = 0.0
        assert not rest.any()
    with pytest.raises(ValueError):
        excitation_forward_run(n, ANGLE, [1, 1])
