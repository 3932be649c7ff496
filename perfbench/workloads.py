"""Workloads of the qhog benchmark: seed -> the argv of every command in a pass.

A workload is a fixed list of ``qhog`` commands (one *pass*).  The only
inputs that vary are drawn from the workload seed: collision orders and
the ``--seed`` of the sampled sweep.  Everything the program sees is the
argv built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

# sizes, fixed so that a pass takes a few seconds on a 2-core machine
SWEEP_DELTA = "0.1"
SWEEP_SAMPLE = 50000
EVOLVE_N = 21
EVOLVE_SYSTEM = "0.2,0,0.1"
DUMP_N = 18
HOMOGENIZE_DELTA = "0.002"
PAIRS_N = 17
COLLISION_DELTA = "0.2"


@dataclass(frozen=True)
class Command:
    """One ``qhog`` invocation and what its correctness gate needs to know."""

    label: str
    kind: str  # which gate in gate.py checks this command
    argv: tuple[str, ...]  # arguments after ``qhog``
    out: Path | None = None  # the --out file, when the data does not go to stdout
    order: tuple[int, ...] | None = None  # explicit collision order, if any
    expect: dict | None = None  # per-command expectations for the gate


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # the unit of work that `throughput` counts
    commands: tuple[Command, ...]
    items_per_pass: float | None  # None: counted from the output bytes


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so the draw is stable across Python versions
    return random.Random(f"qhog-bench:{name}:{seed}")


def scrambled_order(rng: random.Random, n: int) -> tuple[int, ...]:
    """A permutation of 1..n that does not start with qubit 1.

    A first collision with qubit 1 needs no axis move in apply_two_qubit,
    and such an order then takes the canonical order's allocation path: at
    18 qubits ``entangle`` takes 15k minor faults instead of 484k.  The
    canonical ``entangle`` command measures that path, so the scrambled
    one always takes the other, whatever the seed.
    """
    order = list(range(1, n + 1))
    while order[0] == 1:
        rng.shuffle(order)
    return tuple(order)


def _order_arg(order) -> str:
    return ",".join(str(k) for k in order)


def _sweep(rng, out_dir) -> tuple[Command, ...]:
    sample_seed = rng.randrange(2**31)
    base = ("safe", "--delta", SWEEP_DELTA, "--format", "json")
    return (
        Command("sweep.correct_n9", "sweep", base + ("--n", "9", "--mode", "correct"),
                expect={"N": 9, "trials": math.factorial(9), "exact": 1}),
        Command("sweep.incorrect_n8", "sweep", base + ("--n", "8", "--mode", "incorrect"),
                expect={"N": 8, "trials": 8 * math.factorial(8), "exact": 0}),
        Command("sweep.sampled_n9", "sweep",
                base + ("--n", "9", "--mode", "incorrect", "--sample", str(SWEEP_SAMPLE),
                        "--seed", str(sample_seed)),
                expect={"N": 9, "trials": SWEEP_SAMPLE, "exact": 0}),
    )


def _vector(rng, out_dir) -> tuple[Command, ...]:
    """The 22-qubit evolution, the amplitude and trajectory dumps, then the
    pair tables in both orders."""
    evolve_order = scrambled_order(rng, EVOLVE_N)
    dump_order = scrambled_order(rng, DUMP_N)
    pairs_order = scrambled_order(rng, PAIRS_N)
    amps = Path(out_dir) / "dump_amplitudes.json"
    traj = Path(out_dir) / "dump_trajectory.json"
    pairs = ("entangle", "--delta", COLLISION_DELTA, "--n", str(PAIRS_N), "--format", "json")
    return (
        Command("evolve.mixed_n21", "evolve",
                ("simulate", "--delta", COLLISION_DELTA, "--n", str(EVOLVE_N),
                 "--system", EVOLVE_SYSTEM, "--order", _order_arg(evolve_order),
                 "--format", "json"),
                order=evolve_order, expect={"n": EVOLVE_N, "system": EVOLVE_SYSTEM}),
        Command("dump.simulate_n18", "dump_amplitudes",
                ("simulate", "--delta", COLLISION_DELTA, "--n", str(DUMP_N),
                 "--order", _order_arg(dump_order), "--format", "json", "--out", str(amps)),
                out=amps, order=dump_order, expect={"n": DUMP_N}),
        Command("dump.homogenize", "dump_trajectory",
                ("homogenize", "--delta", HOMOGENIZE_DELTA, "--format", "json",
                 "--out", str(traj)),
                out=traj, expect={"delta": float(HOMOGENIZE_DELTA)}),
        Command("pairs.canonical", "pairs_closed", pairs, expect={"n": PAIRS_N}),
        Command("pairs.scrambled", "pairs_replay", pairs + ("--order", _order_arg(pairs_order)),
                order=pairs_order, expect={"n": PAIRS_N}),
    )


_PASS_COMMANDS = {"sweep": _sweep, "vector": _vector}
NAMES = tuple(_PASS_COMMANDS)
_ITEMS = {
    "sweep": ("leaf", math.factorial(9) + 8 * math.factorial(8) + SWEEP_SAMPLE),
    "vector": ("MB written", None),
}
# the workload-specific name of `throughput` in the printed report
THROUGHPUT_NAME = {"sweep": "leaves_per_s", "vector": "out_mb_per_s"}
# rates of parts of a pass, also printed: (name, label prefix, items per pass, unit)
PART_RATES = {
    "vector": (
        # the mixed system state runs as two pure components
        ("collisions_per_s", "evolve.", 2 * EVOLVE_N, "collision/s"),
        ("pairs_per_s", "pairs.", 2 * math.comb(PAIRS_N + 1, 2), "pair/s"),
    ),
}


def build(name: str, seed: int, out_dir) -> Workload:
    """The commands of one pass of workload ``name`` for ``seed``."""
    if name not in _PASS_COMMANDS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    item, per_pass = _ITEMS[name]
    commands = _PASS_COMMANDS[name](_rng(name, seed), out_dir)
    return Workload(name, item, commands, per_pass)
