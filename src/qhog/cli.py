"""Command-line interface: every experiment as a batch command.

Each subcommand reads only its own flags: homogenize --eta|--delta [--n
--system --reservoir]; bounds --delta; simulate and entangle --eta|--delta
--n [--system --reservoir --order]; safe --eta|--delta [--n (9) --mode
--sample [--seed]]; verify [--seed --quick --checks].  All but verify take
--format csv|json and --out.
States are given either as a ket keyword (zero, one, plus) or as three
comma-separated Bloch components in the half-radius convention.  --delta
is a target homogenization precision; it sets sin(eta) = sqrt(delta/2).
This module parses every flag and formats every byte written; the library
layers take and return numbers.  Data goes to --out, opened once, or stdout,
in pieces of at most _DUMP_CHUNK rows; a one-line JSON summary goes to stderr.
The JSON amplitude dump writes each run of amplitudes whose components
are both +0.0 (all of them but N+1 in the |1>/|0> run's one-excitation
sector) as one repeated constant row, and every other amplitude with
float repr, so its bytes are those of json.dumps.
Exit status is 1 when a requested check fails (recorded in the summary)
and 2, with one ``error:`` line, for any invalid input or unwritable output.

The global-state commands cap the total qubit count at 22 unless the
QHOG_MAX_QUBITS environment variable overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .bloch import QubitState, ket_from_bloch
from .collision import QubitCapError, _checked_order, run_mixed_system, run_pure
from .entanglement import entanglement_tables
from .homogenizer import (MAX_STEPS, HomogenizationBudget, SwapAngle, budget_from_delta,
                          run_trajectory)
from .safe import bin_centers, sweep_correct, sweep_incorrect

_KETS = {
    "zero": np.array([1.0, 0.0], dtype=complex),
    "one": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
}
_BLOCH_KEYWORDS = {"zero": (0, 0, 0.5), "one": (0, 0, -0.5), "plus": (0.5, 0, 0)}


def parse_state(text: str) -> QubitState:
    """A ket keyword, or 'wx,wy,wz' as three Bloch components."""
    if text in _BLOCH_KEYWORDS:
        return QubitState(_BLOCH_KEYWORDS[text])
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    return QubitState([float(p) for p in parts])


def parse_ket(text: str) -> np.ndarray:
    if text in _KETS:
        return _KETS[text]
    return ket_from_bloch(parse_state(text).w)


def _parsed(parse, args, flag: str):
    """``parse`` of the value of ``--flag``, naming the flag on error."""
    try:
        return parse(getattr(args, flag))
    except ValueError as exc:
        raise ValueError(f"--{flag} {getattr(args, flag)!r}: {exc}") from None


def _check_counts(args) -> None:
    """Reject a ``--n`` or ``--sample`` below 1, naming the flag."""
    for flag in ("n", "sample"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")


def _seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _resolve_angle(args) -> tuple[SwapAngle, HomogenizationBudget | None]:
    if args.eta is not None:
        return _parsed(SwapAngle, args, "eta"), None
    budget = _parsed(budget_from_delta, args, "delta")
    return SwapAngle(budget.eta_max), budget


@contextmanager
def _output(out: str | None):
    """``sys.stdout``, or the file ``out`` opened once; an OSError on the file names it."""
    if out is None:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _write(out: str | None, text: str) -> None:
    """Write ``text`` to stdout or to the file ``out``."""
    with _output(out) as fh:
        fh.write(text)


def _summary(payload: dict) -> None:
    sys.stdout.flush()  # the data first: a reader that closed stdout early fails here
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(records: list[dict]) -> str:
    """The rows ``records`` under the first row's keys; floats to 17 digits, ints as they are."""
    lines = [",".join(records[0])]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r.values())
              for r in records]
    return "\n".join(lines) + "\n"


# rows formatted per piece of a streamed dump: amplitudes or trajectory records
_DUMP_CHUNK = 1 << 12
_AMPLITUDES_MARK = "@amplitudes@"


def _pieces(table: np.ndarray, head: str, rows, sep: str, tail: str):
    """``head``, the rows of ``table`` joined by ``sep``, and ``tail``, as pieces to write.

    ``rows(start, chunk)`` formats ``chunk = table[start:start + _DUMP_CHUNK]`` as
    pieces that ``sep`` joins: single rows, or runs of rows already joined by ``sep``.
    """
    yield head
    for start in range(0, len(table), _DUMP_CHUNK):
        yield sep.join(rows(start, table[start:start + _DUMP_CHUNK]))
        yield sep if start + _DUMP_CHUNK < len(table) else tail


# the separator between two [re, im] rows of the JSON dump, and a row of two +0.0
_JSON_SEP = "\n    ],\n    [\n      "
_JSON_ZERO = "0.0,\n      0.0"


def _json_rows(start: int, amps: np.ndarray):
    """The rows of ``amps``, one piece per maximal run of zero or nonzero amplitudes.

    A zero amplitude has both components +0.0, whose bits are all 0 (-0.0
    is not zero here and keeps its sign); its row is the constant
    ``_JSON_ZERO``, so a run of them costs one string repetition.
    """
    bits = amps.view(np.uint64).reshape(-1, 2)
    zero = (bits[:, 0] | bits[:, 1]) == 0
    edges = [0, *(np.flatnonzero(np.diff(zero)) + 1).tolist(), zero.size]
    for a, b in zip(edges, edges[1:]):
        if zero[a]:
            yield (_JSON_ZERO + _JSON_SEP) * (b - a - 1) + _JSON_ZERO
        else:
            reprs = map(float.__repr__, amps[a:b].view(np.float64).tolist())
            yield _JSON_SEP.join(map(",\n      ".join, zip(reprs, reprs)))


def _csv_rows(start: int, amps: np.ndarray):
    return (f"{i},{z.real:.17g},{z.imag:.17g}" for i, z in enumerate(amps.tolist(), start))


def _json_with_amplitudes(payload: dict, vec: np.ndarray):
    """``_dump_json(payload | {"amplitudes": [[re, im], ...]})`` in pieces (``_pieces``).

    The amplitude list is formatted here with ``float.__repr__`` and the
    indent-2 separators that ``json.dumps`` puts at that depth, so the
    bytes are those of the one-shot dump without building a Python list
    per amplitude.
    """
    head, tail = _dump_json({**payload, "amplitudes": _AMPLITUDES_MARK}).split(
        json.dumps(_AMPLITUDES_MARK))
    return _pieces(vec, head + "[\n    [\n      ", _json_rows, _JSON_SEP,
                   "\n    ]\n  ]" + tail)


def _trajectory_json(traj):
    """``_dump_json`` of the trajectory's records in pieces, one ``%`` template per record."""
    marks = {"n": "@", "D_sys": "@", "D_res": "@", "system": ["@"] * 3, "reservoir_out": ["@"] * 3}
    record = _dump_json([marks])[2:-3].replace('"@"', "%r")  # one record as laid out in the list
    cols = np.column_stack([traj.d_reservoir, traj.d_system, traj.reservoir_out, traj.system])
    return _pieces(cols, "[\n", lambda i, rows: (
        record % (d_res, d_sys, n, *w) for n, (d_res, d_sys, *w) in enumerate(rows.tolist(), i)),
        ",\n", "\n]\n")


def _trajectory_csv(traj):
    """The trajectory's rows in pieces: no dict per row for up to 2^20 steps."""
    cols = np.column_stack([traj.system, traj.reservoir_out, traj.d_system, traj.d_reservoir])
    return _pieces(cols, "n,wx,wy,wz,txp,typ,tzp,D_sys,D_res\n", lambda i, rows: (
        f"{n}," + ",".join(f"{v:.17g}" for v in vals) for n, vals in enumerate(rows.tolist(), i)),
        "\n", "\n")


def cmd_homogenize(args) -> int:
    angle, budget = _resolve_angle(args)
    if args.n is None and budget is None:
        raise ValueError("--n is required when the angle is given via --eta")
    if args.n is not None and args.n > MAX_STEPS:
        raise ValueError(f"--n must be at most {MAX_STEPS}, got {args.n}")
    if args.n is None and budget.n_delta > MAX_STEPS:
        raise ValueError(f"--delta {args.delta!r}: its budget takes {budget.n_delta} steps, "
                         f"more than the 2^20 = {MAX_STEPS} a trajectory may take")
    n = budget.n_delta if args.n is None else args.n
    delta = None if budget is None else budget.delta
    rho0 = _parsed(parse_state, args, "system")
    xi = _parsed(parse_state, args, "reservoir")
    traj = run_trajectory(rho0, xi, angle, n)
    with _output(args.out) as fh:
        fh.writelines((_trajectory_csv if args.format == "csv" else _trajectory_json)(traj))
    final_d = float(traj.d_system[-1])
    max_res = float(traj.d_reservoir[1:].max())
    # the budget covers a system on the reservoir's Bloch axis (the orthogonal
    # pure start saturates the reservoir bound); an off-axis one can miss delta
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
    budget = _parsed(budget_from_delta, args, "delta")
    report = {
        "delta": budget.delta,
        "sin_eta_max": math.sin(budget.eta_max),
        "eta_max": budget.eta_max,
        "n_delta": budget.n_delta,
    }
    _write(args.out, _csv([report]) if args.format == "csv" else _dump_json(report))
    _summary({"command": "bounds", "ok": True, **report})
    return 0


def _parse_order(args):
    """``--order`` as reservoir indices, checked against ``--n``."""
    if args.order is None:
        return None
    try:
        order = [int(tok) for tok in args.order.split(",")]
    except ValueError:
        raise ValueError(f"--order must be comma-separated integers, got {args.order!r}") from None
    try:
        return _checked_order(order, args.n)
    except ValueError as exc:
        raise ValueError(f"--order {args.order!r}: {exc}") from None


def _sized(args, run, *inputs, **options):
    """``run(*inputs, **options)``, naming ``--n`` if its arrays exceed the qubit cap or memory."""
    try:
        return run(*inputs, **options)
    except (MemoryError, QubitCapError) as exc:
        raise ValueError(f"--n {args.n}: {exc}") from None


def cmd_simulate(args) -> int:
    angle, _ = _resolve_angle(args)
    order = _parse_order(args)
    reservoir = _parsed(parse_ket, args, "reservoir")
    system_state = _parsed(parse_state, args, "system")
    if system_state.is_pure():
        system = _parsed(parse_ket, args, "system")
        state = _sized(args, run_pure, system, reservoir, args.n, angle, order)
        rho = state.reduced(0)
    elif args.format == "csv":
        raise ValueError(f"--system {args.system!r} is mixed: --format csv dumps pure amplitudes")
    else:
        state = None
        rho = _sized(args, run_mixed_system, system_state, reservoir, args.n, angle, order)
    system_bloch = list(QubitState.from_density(rho).w)
    payload = {"system_bloch": system_bloch, "num_qubits": args.n + 1, "eta": angle.eta,
               "log": order or list(range(1, args.n + 1))}
    if state is None:
        _write(args.out, _dump_json({**payload, "amplitudes": None}))
    else:
        with _output(args.out) as fh:
            fh.writelines(_json_with_amplitudes(payload, state.vector) if args.format == "json"
                          else _pieces(state.vector, "basis,re,im\n", _csv_rows, "\n", "\n"))
    _summary({"command": "simulate", "ok": True, "n": args.n, "eta": angle.eta,
              "system_bloch": system_bloch})
    return 0


def _max_residual(rows: list[dict]) -> float | None:
    """Largest closed-form residual of the rows; None when they carry no closed forms."""
    return max((r["residual"] for r in rows if "residual" in r), default=None)


def cmd_entangle(args) -> int:
    angle, _ = _resolve_angle(args)
    if args.format == "csv" and args.out is None:
        raise ValueError("entangle with --format csv needs --out (two files are written)")
    system = _parsed(parse_ket, args, "system")
    reservoir = _parsed(parse_ket, args, "reservoir")
    state = _sized(args, run_pure, system, reservoir, args.n, angle, _parse_order(args))
    pairs, tangles = entanglement_tables(state, system, reservoir)
    if args.format == "csv":
        _write(args.out + "_pairs.csv", _csv(pairs))
        _write(args.out + "_tangles.csv", _csv(tangles))
    else:
        _write(args.out, _dump_json({"n": len(state.log), "eta": angle.eta,
                                     "pairs": pairs, "tangles": tangles}))
    _summary({"command": "entangle", "ok": True, "n": args.n,
              "closed_forms": "residual" in pairs[0],
              "max_residual_pairs": _max_residual(pairs),
              "max_residual_tangles": _max_residual(tangles)})
    return 0


# the largest --n of an exhaustive sweep: its N! (correct) or N N! (incorrect)
# orders stay within 12! = 479,001,600, about a minute of leaves; --sample
# draws at most as many trials
_MAX_EXHAUSTIVE_N = {"correct": 12, "incorrect": 11}


def cmd_safe(args) -> int:
    if args.sample is None and args.n > _MAX_EXHAUSTIVE_N[args.mode]:
        raise ValueError(f"--n {args.n}: the exhaustive {args.mode} sweep takes more than "
                         f"12! = {math.factorial(12)} orders; draw some of them with --sample")
    if (args.sample or 0) > math.factorial(12):
        raise ValueError(f"--sample {args.sample}: more than 12! = {math.factorial(12)} trials")
    angle, _ = _resolve_angle(args)
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed needs --sample: the full sweep draws nothing")
    seed = 0 if args.seed is None else _seed(args.seed)
    sweep = sweep_correct if args.mode == "correct" else sweep_incorrect
    hist = _sized(args, sweep, args.n, angle, sample=args.sample, seed=seed)
    bins = list(zip(bin_centers(), hist.counts))
    report = {"N": args.n, "eta": angle.eta, "total_trials": hist.total_trials,
              "exact_reversals": hist.exact_reversals}
    if args.format == "csv":
        _write(args.out, "z_center,count\n" + "".join(f"{z!r},{k}\n" for z, k in bins))
    else:
        _write(args.out, _dump_json({**report, "chosen_system_mode": args.mode,
                                     "near_reversals": hist.near_reversals,
                                     "bins": [{"z_center": z, "count": k} for z, k in bins]}))
    # an exhaustive sweep shows whether the safe held: one exact reversal for the
    # right qubit, none for a wrong one; a sample cannot show it
    ok = args.sample is not None or hist.exact_reversals == int(args.mode == "correct")
    _summary({"command": "safe", "ok": ok, "mode": args.mode, **report})
    return 0 if ok else 1


def cmd_verify(args) -> int:
    from . import verify as verify_mod  # only this command needs it
    names = None if args.checks is None else args.checks.split(",")
    results = verify_mod.run_checks(names, seed=_seed(args.seed), quick=args.quick)
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
    p.add_argument("--seed", type=int, help="seed of the sampled trials (default 0)")

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.add_argument("--checks", help="comma-separated subset of check names")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_counts(args)
        return args.fn(args)
    except ValueError as exc:  # an argument or path may hold a newline; keep one line
        sys.stderr.write("error: " + str(exc).replace("\n", "\\n") + "\n")
        return 2
    except OSError as exc:  # _write reports --out itself, so this is stdout: closed or full
        # stdout stays unwritable, so the interpreter's last flush must not reach it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: cannot write stdout: {exc.strerror}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
