"""Command-line interface: every experiment as a batch command.

Subcommands: homogenize | bounds | simulate | entangle | safe | verify.
States are given either as a ket keyword (zero, one, plus) or as three
comma-separated Bloch components in the half-radius convention.  The
interaction strength comes from --eta (radians) or --delta (target
homogenization precision, converted through sin(eta) = sqrt(delta/2));
exactly one of the two must be supplied.  Data goes to --out or stdout;
a one-line JSON summary goes to stderr.  Exit status is nonzero when a
requested check fails, with the failure recorded in the summary.

The global-state commands cap the total qubit count at 22 unless the
QHOG_MAX_QUBITS environment variable overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bloch import QubitState, ket_from_bloch
from .collision import run_mixed_system, run_pure
from .entanglement import entanglement_tables, one_zero_start
from .homogenizer import SwapAngle, budget_from_delta, run_trajectory
from .safe import sweep_correct, sweep_incorrect

_KETS = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
}
_BLOCH_KEYWORDS = {"zero": (0, 0, 0.5), "one": (0, 0, -0.5), "plus": (0.5, 0, 0)}


def parse_state(text: str) -> QubitState:
    if text in _BLOCH_KEYWORDS:
        return QubitState(_BLOCH_KEYWORDS[text])
    return QubitState.from_text(text)


def parse_ket(text: str) -> np.ndarray:
    if text in _KETS:
        return _KETS[text]
    return ket_from_bloch(QubitState.from_text(text).w)


def _resolve_angle(args) -> tuple[SwapAngle, float | None]:
    has_eta = args.eta is not None
    has_delta = args.delta is not None
    if has_eta == has_delta:
        raise ValueError("exactly one of --eta and --delta must be given")
    if has_eta:
        return SwapAngle(args.eta), None
    budget = budget_from_delta(args.delta)
    return SwapAngle(budget.eta_max), args.delta


def _write(out: str | None, text: str, mode: str = "w") -> None:
    """Write ``text`` to stdout or to the file ``out`` (``mode="a"`` appends)."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, mode, encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _summary(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# amplitudes formatted per write of a streamed amplitude dump
_DUMP_CHUNK = 1 << 16
_AMPLITUDES_MARK = "@amplitudes@"


def _write_amplitudes(out: str | None, vec: np.ndarray, head: str, rows, sep: str,
                      tail: str) -> None:
    """Write ``head``, the rows of ``vec`` joined by ``sep``, and ``tail``, one chunk per write.

    ``rows(start, amps)`` formats the chunk ``amps = vec[start:start + _DUMP_CHUNK]``.
    """
    _write(out, head)
    for start in range(0, vec.size, _DUMP_CHUNK):
        text = sep.join(rows(start, vec[start:start + _DUMP_CHUNK]))
        _write(out, text if start == 0 else sep + text, "a")
    _write(out, tail, "a")


def _json_rows(start: int, amps: np.ndarray):
    reprs = map(float.__repr__, amps.view(np.float64).tolist())
    return map(",\n      ".join, zip(reprs, reprs))


def _csv_rows(start: int, amps: np.ndarray):
    return (f"{i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(amps.tolist(), start))


def _write_json_with_amplitudes(out: str | None, payload: dict, vec: np.ndarray) -> None:
    """Write ``_dump_json(payload | {"amplitudes": [[re, im], ...]})`` chunk by chunk.

    The amplitude list is formatted here with ``float.__repr__`` and the
    indent-2 separators that ``json.dumps`` puts at that depth, so the
    bytes are those of the one-shot dump without building a Python list
    per amplitude.
    """
    head, tail = _dump_json({**payload, "amplitudes": _AMPLITUDES_MARK}).split(
        json.dumps(_AMPLITUDES_MARK))
    _write_amplitudes(out, vec, head + "[\n    [\n      ", _json_rows,
                      "\n    ],\n    [\n      ", "\n    ]\n  ]" + tail)


def _trajectory_json(traj) -> str:
    """``_dump_json`` of the trajectory's records, formatted one ``%`` template per record."""
    marks = {"n": "@", "D_sys": "@", "D_res": "@", "system": ["@"] * 3, "reservoir_out": ["@"] * 3}
    record = _dump_json([marks])[2:-3].replace('"@"', "%r")  # one record as laid out in the list
    cols = np.column_stack([traj.d_reservoir, traj.d_system, traj.reservoir_out, traj.system])
    records = (record % (d_res, d_sys, n, *w) for n, (d_res, d_sys, *w) in enumerate(cols.tolist()))
    return "[\n" + ",\n".join(records) + "\n]\n"


def cmd_homogenize(args) -> int:
    angle, delta = _resolve_angle(args)
    if args.n is not None:
        n = args.n
    elif delta is not None:
        n = budget_from_delta(delta).n_delta
    else:
        raise ValueError("--n is required when the angle is given via --eta")
    rho0 = parse_state(args.system)
    xi = parse_state(args.reservoir)
    traj = run_trajectory(rho0, xi, angle, n)
    _write(args.out, traj.to_csv() if args.format == "csv" else _trajectory_json(traj))
    final_d = float(traj.d_system[-1])
    max_res = float(traj.d_reservoir[1:].max())
    # the budget angle saturates the reservoir bound at exactly delta
    ok = True if delta is None else (final_d <= delta + 1e-12 and max_res <= delta + 1e-12)
    _summary(
        {
            "command": "homogenize",
            "eta": angle.eta,
            "delta": delta,
            "n": n,
            "final_D_sys": final_d,
            "max_D_res": max_res,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    if args.delta is None:
        raise ValueError("bounds requires --delta")
    budget = budget_from_delta(args.delta)
    report = {
        "delta": budget.delta,
        "sin_eta_max": math.sin(budget.eta_max),
        "eta_max": budget.eta_max,
        "n_delta": budget.n_delta,
    }
    if args.format == "csv":
        text = "delta,sin_eta_max,eta_max,n_delta\n"
        text += f"{report['delta']:.17g},{report['sin_eta_max']:.17g},"
        text += f"{report['eta_max']:.17g},{report['n_delta']}\n"
        _write(args.out, text)
    else:
        _write(args.out, _dump_json(report))
    _summary({"command": "bounds", "ok": True, **report})
    return 0


def _parse_order(text: str | None):
    if text is None:
        return None
    return [int(tok) for tok in text.split(",")]


def cmd_simulate(args) -> int:
    angle, _ = _resolve_angle(args)
    if args.n is None:
        raise ValueError("simulate requires --n")
    order = _parse_order(args.order)
    reservoir = parse_ket(args.reservoir)
    system_state = parse_state(args.system)
    if system_state.is_pure(1e-9):
        state = run_pure(parse_ket(args.system), reservoir, args.n, angle, order)
        rho = state.reduced(0)
    elif args.format == "csv":
        raise ValueError("CSV amplitude dumps need a pure system state")
    else:
        state = None
        rho = run_mixed_system(system_state, reservoir, args.n, angle, [0], order)
    system_bloch = list(QubitState.from_density(rho).w)
    payload = {"system_bloch": system_bloch, "num_qubits": args.n + 1, "eta": angle.eta,
               "log": order or list(range(1, args.n + 1))}
    if args.format == "csv":
        _write_amplitudes(args.out, state.vector, "basis,re,im\n", _csv_rows, "\n", "\n")
    elif state is None:
        _write(args.out, _dump_json({**payload, "amplitudes": None}))
    else:
        _write_json_with_amplitudes(args.out, payload, state.vector)
    _summary({"command": "simulate", "ok": True, "n": args.n, "eta": angle.eta,
              "system_bloch": system_bloch})
    return 0


def cmd_entangle(args) -> int:
    angle, _ = _resolve_angle(args)
    if args.n is None:
        raise ValueError("entangle requires --n")
    if args.format == "csv" and args.out is None:
        raise ValueError("entangle with --format csv needs --out (two files are written)")
    system = parse_ket(args.system)
    reservoir = parse_ket(args.reservoir)
    state = run_pure(system, reservoir, args.n, angle, _parse_order(args.order))
    pairs, tangles = entanglement_tables(state, system, reservoir)
    if args.format == "csv":
        _write(args.out + "_pairs.csv", pairs.to_csv())
        _write(args.out + "_tangles.csv", tangles.to_csv())
    else:
        _write(args.out, _dump_json({"n": pairs.n, "eta": angle.eta,
                                     "pairs": pairs.to_json_records(),
                                     "tangles": tangles.to_json_records()}))
    _summary({"command": "entangle", "ok": True, "n": args.n,
              "closed_forms": pairs.closed is not None,
              "max_residual_pairs": pairs.max_residual(),
              "max_residual_tangles": tangles.max_residual()})
    return 0


def cmd_safe(args) -> int:
    angle, _ = _resolve_angle(args)
    n = 9 if args.n is None else args.n
    if not one_zero_start(parse_ket(args.system), parse_ket(args.reservoir)):
        raise ValueError("the unwinding sweeps are defined for --system one --reservoir zero")
    sweep = sweep_correct if args.mode == "correct" else sweep_incorrect
    hist = sweep(n, angle, sample=args.sample, seed=args.seed)
    if args.format == "csv":
        _write(args.out, hist.to_csv())
    else:
        _write(args.out, _dump_json(hist.to_json_dict()))
    _summary(
        {
            "command": "safe",
            "ok": True,
            "mode": args.mode,
            "N": n,
            "eta": angle.eta,
            "total_trials": hist.total_trials,
            "exact_reversals": hist.exact_reversals,
        }
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod  # only this command needs it
    names = None if args.checks is None else args.checks.split(",")
    results = verify_mod.run_checks(names, seed=args.seed, quick=args.quick)
    failures = []
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        sys.stdout.write(f"{status} {res.name}: {res.detail} ({res.seconds:.2f}s)\n")
        if not res.ok:
            failures.append({"name": res.name, "detail": res.detail})
    payload = {"command": "verify", "ok": not failures, "passed": len(results) - len(failures),
               "failed": [f["name"] for f in failures]}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    _summary(payload | {"failures": failures})
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhog",
        description="Partial-swap quantum homogenization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, states=True):
        p.add_argument("--eta", type=float, help="interaction angle in radians")
        p.add_argument("--delta", type=float,
                       help="target precision; sets sin(eta) = sqrt(delta/2)")
        p.add_argument("--n", type=int, help="number of reservoir qubits")
        if states:
            p.add_argument("--system", default="one",
                           help="system state: zero|one|plus or wx,wy,wz")
            p.add_argument("--reservoir", default="zero",
                           help="reservoir state: zero|one|plus or wx,wy,wz")
        p.add_argument("--order", help="comma-separated collision order override")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sample", type=int,
                       help="sample this many random trials instead of the full sweep")

    p = sub.add_parser("homogenize", help="iterate the one-step maps and dump the trajectory")
    add_common(p)
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("bounds", help="angle and step-count budget for a given delta")
    add_common(p, states=False)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("simulate", help="exact global collision run and state snapshot")
    add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("entangle", help="pairwise concurrences and CKW tangle sums")
    add_common(p)
    p.set_defaults(fn=cmd_entangle)

    p = sub.add_parser("safe", help="exhaustive unwinding sweep histograms")
    add_common(p)
    p.add_argument("--mode", choices=("correct", "incorrect"), default="correct")
    p.set_defaults(fn=cmd_safe)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.add_argument("--checks", help="comma-separated subset of check names")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
