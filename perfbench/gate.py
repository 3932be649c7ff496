"""Correctness gate: every command's output against public qhog references.

``check`` returns a list of problems; an empty list means the command
passed.  Tolerances are the ones the repository's acceptance tests pin:
1e-12 for amplitudes, 1e-10 for Bloch vectors, 1e-8 for concurrences.
The references are public qhog functions, imported from the checkout
under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import COLLISION_DELTA, Command

AMPLITUDE_TOL = 1e-12
BLOCH_TOL = 1e-10
CONCURRENCE_TOL = 1e-8


class GateError(Exception):
    """Output that cannot even be read as what the command promises."""


def _reject_constant(name):
    raise GateError(f"non-JSON constant {name} in output")


def strict_json(data: bytes):
    """Parse JSON, refusing NaN and Infinity literals."""
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GateError(f"output is not JSON: {exc}") from None


def _angle(delta: str):
    from qhog.homogenizer import SwapAngle, budget_from_delta

    return SwapAngle(budget_from_delta(float(delta)).eta_max)


def _replay(order, angle) -> np.ndarray:
    """One-excitation amplitudes after colliding |1>|0..0> in ``order``."""
    from qhog.collision import ExcitationState, excitation_collide

    es = ExcitationState.initial(len(order) + 1)
    for k in order:
        es = excitation_collide(es, k, angle)
    return es.amplitudes


def _check_sweep(cmd: Command, doc, problems):
    e = cmd.expect
    counts = [b["count"] for b in doc["bins"]]
    if doc["N"] != e["N"]:
        problems.append(f"N is {doc['N']}, want {e['N']}")
    if doc["total_trials"] != e["trials"]:
        problems.append(f"total_trials is {doc['total_trials']}, want {e['trials']}")
    if doc["exact_reversals"] != e["exact"]:
        problems.append(f"exact_reversals is {doc['exact_reversals']}, want {e['exact']}")
    if len(counts) != 21 or sum(counts) != e["trials"]:
        problems.append(f"{len(counts)} bins summing to {sum(counts)}, "
                        f"want 21 summing to {e['trials']}")


def _check_evolve(cmd: Command, doc, problems):
    from qhog.cli import parse_state
    from qhog.homogenizer import closed_form_system

    e = cmd.expect
    want = closed_form_system(parse_state(e["system"]), parse_state("zero"),
                              _angle(COLLISION_DELTA), e["n"]).w
    err = float(np.max(np.abs(np.asarray(doc["system_bloch"], dtype=float) - want)))
    if not err <= BLOCH_TOL:
        problems.append(f"system_bloch is {err:.3e} from closed_form_system")
    if doc["log"] != list(cmd.order):
        problems.append("log is not the requested order")


def _check_amplitudes(cmd: Command, doc, problems):
    n_qubits = cmd.expect["n"] + 1
    amps = np.asarray(doc["amplitudes"], dtype=float)
    if doc["num_qubits"] != n_qubits or amps.shape != (2**n_qubits, 2):
        problems.append(f"{amps.shape} amplitudes for {doc['num_qubits']} qubits")
        return
    if doc["log"] != list(cmd.order):
        problems.append("log is not the requested order")
    amps = amps[:, 0] + 1j * amps[:, 1]
    norm = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm - 1.0) <= AMPLITUDE_TOL:
        problems.append(f"norm {norm!r} is not 1")
    one_hot = [1 << (n_qubits - 1 - j) for j in range(n_qubits)]
    outside = amps.copy()
    outside[one_hot] = 0.0
    leak = float(np.max(np.abs(outside)))
    if not leak <= AMPLITUDE_TOL:
        problems.append(f"amplitude {leak:.3e} outside the one-hot indices")
    err = float(np.max(np.abs(amps[one_hot] - _replay(cmd.order, _angle(COLLISION_DELTA)))))
    if not err <= AMPLITUDE_TOL:
        problems.append(f"one-hot amplitudes are {err:.3e} from the excitation replay")


def _check_trajectory(cmd: Command, doc, problems):
    from qhog.homogenizer import budget_from_delta

    want = budget_from_delta(cmd.expect["delta"]).n_delta + 1
    if len(doc) != want or [r["n"] for r in doc] != list(range(want)):
        problems.append(f"{len(doc)} trajectory records, want steps 0..{want - 1}")


def _check_table_shape(cmd: Command, doc, problems):
    n_qubits = cmd.expect["n"] + 1
    if len(doc["pairs"]) != math.comb(n_qubits, 2) or len(doc["tangles"]) != n_qubits:
        problems.append(f"{len(doc['pairs'])} pairs and {len(doc['tangles'])} tangles")


def _check_pairs_closed(cmd: Command, doc, problems):
    _check_table_shape(cmd, doc, problems)
    rows = doc["pairs"] + doc["tangles"]
    worst = max((row.get("residual", math.inf) for row in rows), default=math.inf)
    if not worst <= CONCURRENCE_TOL:
        problems.append(f"closed-form residual {worst:.3e}")


def _check_pairs_replay(cmd: Command, doc, problems):
    _check_table_shape(cmd, doc, problems)
    mag = np.abs(_replay(cmd.order, _angle(COLLISION_DELTA)))
    err_c = max(abs(r["C"] - 2.0 * mag[r["j"]] * mag[r["k"]]) for r in doc["pairs"])
    if not err_c <= CONCURRENCE_TOL:
        problems.append(f"C_jk is {err_c:.3e} from 2|a_j||a_k|")
    err_t = max(abs(r["tau"] - r["S"]) for r in doc["tangles"])
    if not err_t <= CONCURRENCE_TOL:
        problems.append(f"tau_j differs from S_j by {err_t:.3e}")


_CHECKS = {
    "sweep": _check_sweep,
    "evolve": _check_evolve,
    "dump_amplitudes": _check_amplitudes,
    "dump_trajectory": _check_trajectory,
    "pairs_closed": _check_pairs_closed,
    "pairs_replay": _check_pairs_replay,
}


def check(cmd: Command, returncode: int, data: bytes, stderr: bytes) -> list[str]:
    """Problems with one command's result; ``data`` is its stdout or --out file."""
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {returncode}: {' '.join(tail)}"]
    problems: list[str] = []
    try:
        lines = stderr.decode().strip().splitlines()
        summary = strict_json(lines[-1]) if lines else {}
        if summary.get("ok") is not True:
            problems.append("stderr summary does not say ok: true")
        _CHECKS[cmd.kind](cmd, strict_json(data), problems)
    except GateError as exc:
        problems.append(str(exc))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"output lacks the expected fields: {exc!r}")
    return problems
