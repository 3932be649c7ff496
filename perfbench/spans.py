"""Span tracing of qhog's layers from outside the package.

``install`` wraps the public functions of each layer module at the module
attribute and at every other qhog module that imported the same function
object, so calls between layers go through the wrapper too.  Each call
records a span: name, start, end, parent span and the minor page faults
taken while it ran.  Spans stay in memory; the traced process writes them
out once the command has finished.  Nothing in the package is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("safe", "collision", "entanglement", "linalg", "homogenizer", "cli")

# Called once per sweep leaf (735,440 times a pass) with sub-microsecond
# work; a span there costs more than the call, so its time stays in the
# caller's self time.
UNTRACED = frozenset({"safe.bin_index"})

SERIALIZE = "cli.serialize"
SERIALIZER_METHODS = ("to_json_dict", "to_json_records", "to_csv")

# span record fields
NAME, START, END, PARENT, MINFLT = range(5)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span recorder for one command (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.pair_keys: set = set()
        self._stack: list[int] = []

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), int(value))

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, args, result)`` adds counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            faults = _minflt()
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                rec[MINFLT] = _minflt() - faults
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"trace_id": self.trace_id, "spans": self.spans, "counts": dict(self.counts),
                "peaks": self.peaks, "unique_pairs": len(self.pair_keys)}


# --- counters recorded at layer boundaries -------------------------------

def _state_bytes(tracer, args, result):
    tracer.counts["collision.apply_two_qubit.state_bytes"] += args[0].nbytes
    tracer.peak("collision.state_bytes", args[0].nbytes)


def _reduced(tracer, args, result):
    vec, keep = args[0], [int(q) for q in args[2]]
    tracer.peak("collision.state_bytes", vec.nbytes)
    if len(keep) == 2:
        tracer.pair_keys.add((id(vec), min(keep), max(keep)))


def _init_pure(tracer, args, result):
    tracer.peak("collision.state_bytes", result.vector.nbytes)


def _leaves(tracer, args, result):
    tracer.counts["safe.leaves"] += result.total_trials


def _steps(tracer, args, result):
    tracer.counts["homogenizer.steps"] += len(result.steps) - 1


def _bytes_out(tracer, args, result):
    tracer.counts["cli.bytes_out"] += len(args[1].encode())


OBSERVERS = {
    "collision.apply_two_qubit": _state_bytes,
    "collision.reduced_from_vector": _reduced,
    "collision.init_pure": _init_pure,
    "safe.sweep_correct": _leaves,
    "safe.sweep_incorrect": _leaves,
    "homogenizer.run_trajectory": _steps,
    "cli.write": _bytes_out,
}


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and serializers."""
    layer_mods = {layer: importlib.import_module(f"qhog.{layer}") for layer in LAYERS}
    qhog_mods = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "qhog" or n.startswith("qhog."))]
    for layer, mod in layer_mods.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            _rebind(qhog_mods, fn, tracer.wrap(name, fn, OBSERVERS.get(name)))
        # to_json_dict / to_json_records / to_csv of every result class
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                for meth in SERIALIZER_METHODS:
                    if meth in vars(cls):
                        setattr(cls, meth, tracer.wrap(SERIALIZE, vars(cls)[meth]))
    cli = layer_mods["cli"]
    _rebind(qhog_mods, cli._dump_json, tracer.wrap(SERIALIZE, cli._dump_json))
    _rebind(qhog_mods, cli._write, tracer.wrap("cli.write", cli._write, OBSERVERS["cli.write"]))


# --- self time ---------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0.0, rec[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, rec[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[END] - rec[START] - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, minor faults."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "minor_faults": 0})
    for rec, own in zip(spans, self_times(spans)):
        row = table[rec[NAME]]
        row["calls"] += 1
        row["self_s"] += own
        row["minor_faults"] += rec[MINFLT]
        if not _has_ancestor_named(spans, rec):
            row["incl_s"] += rec[END] - rec[START]
    return dict(table)


def _has_ancestor_named(spans, rec) -> bool:
    """Recursive calls of one name count once in its inclusive time."""
    parent = rec[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == rec[NAME]:
            return True
        parent = spans[parent][PARENT]
    return False
