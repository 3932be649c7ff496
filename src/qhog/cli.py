"""Command-line interface: every experiment as a batch command.

Each subcommand reads only its own flags: homogenize --eta|--delta [--n
--system --reservoir]; bounds --delta; simulate and entangle --eta|--delta
--n [--system --reservoir --order]; safe --eta|--delta [--n (9) --mode
--sample --seed]; verify [--seed --quick --checks].  All but verify take
--format csv|json and --out.
States are given either as a ket keyword (zero, one, plus) or as three
comma-separated Bloch components in the half-radius convention.  --delta
is a target homogenization precision; it sets sin(eta) = sqrt(delta/2).
Data goes to --out or stdout; a one-line JSON summary goes to stderr.
Exit status is 1 when a requested check fails, with the failure recorded
in the summary, and 2, with one ``error:`` line, for any invalid input.

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
from .entanglement import entanglement_tables
from .homogenizer import HomogenizationBudget, SwapAngle, budget_from_delta, run_trajectory
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


def _resolve_angle(args) -> tuple[SwapAngle, HomogenizationBudget | None]:
    if args.eta is not None:
        return SwapAngle(args.eta), None
    budget = budget_from_delta(args.delta)
    return SwapAngle(budget.eta_max), budget


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
    angle, budget = _resolve_angle(args)
    if args.n is None and budget is None:
        raise ValueError("--n is required when the angle is given via --eta")
    n = budget.n_delta if args.n is None else args.n
    delta = None if budget is None else budget.delta
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
    order = _parse_order(args.order)
    reservoir = parse_ket(args.reservoir)
    system_state = parse_state(args.system)
    if system_state.is_pure():
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
    sweep = sweep_correct if args.mode == "correct" else sweep_incorrect
    hist = sweep(args.n, angle, sample=args.sample, seed=args.seed)
    if args.format == "csv":
        _write(args.out, hist.to_csv())
    else:
        _write(args.out, _dump_json(hist.to_json_dict()))
    _summary(
        {
            "command": "safe",
            "ok": True,
            "mode": args.mode,
            "N": args.n,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as one ``error:`` line, exit 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qhog",
        description="Partial-swap quantum homogenization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    delta_help = "target precision; sets sin(eta) = sqrt(delta/2)"

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    def add_angle_and_n(p, **n_options):
        angle = p.add_mutually_exclusive_group(required=True)
        angle.add_argument("--eta", type=float, help="interaction angle in radians")
        angle.add_argument("--delta", type=float, help=delta_help)
        p.add_argument("--n", type=int, help="number of reservoir qubits", **n_options)

    def add_states(p):
        p.add_argument("--system", default="one", help="system state: zero|one|plus or wx,wy,wz")
        p.add_argument("--reservoir", default="zero",
                       help="reservoir state: zero|one|plus or wx,wy,wz")

    p = command("homogenize", cmd_homogenize, "iterate the one-step maps and dump the trajectory")
    add_angle_and_n(p)
    add_states(p)

    p = command("bounds", cmd_bounds, "angle and step-count budget for a given delta")
    p.add_argument("--delta", type=float, required=True, help=delta_help)

    for name, fn, help in (
        ("simulate", cmd_simulate, "exact global collision run and state snapshot"),
        ("entangle", cmd_entangle, "pairwise concurrences and CKW tangle sums"),
    ):
        p = command(name, fn, help)
        add_angle_and_n(p, required=True)
        add_states(p)
        p.add_argument("--order", help="comma-separated collision order override")

    # the unwinding sweeps are defined for the |1> system and the |0> reservoir only
    p = command("safe", cmd_safe, "exhaustive unwinding sweep histograms")
    add_angle_and_n(p, default=9)
    p.add_argument("--mode", choices=("correct", "incorrect"), default="correct")
    p.add_argument("--sample", type=int,
                   help="sample this many random trials instead of the full sweep")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.add_argument("--checks", help="comma-separated subset of check names")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # an argument or path may hold a newline; keep one line
        sys.stderr.write("error: " + str(exc).replace("\n", "\\n") + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
