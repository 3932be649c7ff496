"""qhog benchmark: time the CLI as a user runs it, check every output.

    python3 perfbench/run.py --workload {sweep,vector} --seed N
                             --seconds S --trace {0,1}

Run from the root of a qhog checkout; the program under test is
``src/qhog`` of that checkout.  A pass runs the workload's commands one
after another, each as a fresh ``python -m qhog`` process (a closed loop
with one client).  After one untimed warm-up pass, passes repeat for
about ``--seconds`` seconds, each preceded by set-up probes: fresh
interpreters that import qhog and build the CLI parser.  Every output
goes through the correctness gate and its sha256 must repeat across
passes; an output byte-identical to one already gated gets that verdict
again, so gating costs the run little time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
(see spans.py) plus the tracing overhead.  Diagnostic lines come first;
the last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

COMMAND_TIMEOUT_S = 60
SETUP_PROBES_PER_PASS = 2
SETUP_CODE = "import qhog.cli; qhog.cli.build_parser()"
# compiles into the bytecode cache everything a plain or traced command imports
WARMUP_CODE = f"import sys; sys.path.insert(0, {str(HERE)!r}); import qhog.cli, spans, traced_child"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
              "throughput": "1/s"}
PER_LAYER = {
    "collision.apply_two_qubit.calls": "count",
    "collision.apply_two_qubit.self_s": "s",
    "collision.apply_two_qubit.ms_per_call": "ms",
    "collision.apply_two_qubit.gb_per_s_computed": "GB/s",
    "collision.apply_two_qubit.minor_faults": "count",
    "collision.state_bytes_peak": "B",
    "collision.init_pure.self_s": "s",
    "collision.reduced_from_vector.calls": "count",
    "collision.reduced_from_vector.self_s": "s",
    "collision.reduced_from_vector.ms_per_call": "ms",
    "collision.reduced_from_vector.minor_faults": "count",
    "collision.excitation_forward_run.self_s": "s",
    "entanglement.concurrence.calls": "count",
    "entanglement.concurrence.self_s": "s",
    "entanglement.concurrence_table.self_s": "s",
    "entanglement.tangle_record.self_s": "s",
    "entanglement.pairs_per_concurrence": "ratio",
    "entanglement.reduced_per_pair": "ratio",
    "linalg.hermitian_eig.calls": "count",
    "linalg.hermitian_eig.self_s": "s",
    "linalg.hermitian_eig.us_per_call": "us",
    "linalg.psd_sqrt.calls": "count",
    "safe.sweep_correct.self_s": "s",
    "safe.sweep_incorrect.self_s": "s",
    "safe.enumerate_unwindings.self_s": "s",
    "safe.leaves": "count",
    "safe.leaves_per_s": "1/s",
    "safe.unwind_z_excitation.calls": "count",
    "safe.unwind_z_excitation.self_s": "s",
    "cli.serialize.self_s": "s",
    "cli.write.self_s": "s",
    "cli.bytes_out": "B",
    "cli.serialize_mb_per_s": "MB/s",
    "homogenizer.run_trajectory.self_s": "s",
    "homogenizer.steps_per_s": "1/s",
    "safe.self_s": "s",
    "collision.self_s": "s",
    "entanglement.self_s": "s",
    "linalg.self_s": "s",
    "homogenizer.self_s": "s",
    "cli.self_s": "s",
    "process.outside_main_s": "s",
    "process.minor_faults": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    minflt: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # cache bytecode as an installed program would, but out of the source tree,
    # whatever the caller's PYTHONDONTWRITEBYTECODE says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Spawner:
    """Runs commands through spawner.py, which keeps their peak RSS their own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)

    def run(self, argv, stdout_path: Path, stderr_path: Path) -> Proc:
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout_path),
                   "stderr": str(stderr_path), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the command spawner exited")
        return Proc(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    cmd_wall_s: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    minflt: int = 0
    out_bytes: int = 0
    layers: dict = field(default_factory=dict)


class Bench:
    """One run: the workload's passes and probes, with the gate and digests."""

    def __init__(self, workload: workloads.Workload, seed: int, run_dir: Path, spawner: Spawner):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.spawner = spawner
        self.digests: dict[str, str] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []

    def setup_probe(self, code: str = SETUP_CODE) -> None:
        err_path = self.run_dir / "probe.err"
        proc = self.spawner.run([sys.executable, "-c", code], self.run_dir / "probe.out", err_path)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            print(f"setup probe failed ({proc.returncode}): "
                  f"{err_path.read_text(errors='replace').strip()[-300:]}")
        self.setup_s.append(proc.wall_s)

    def run_pass(self, number: int, traced: bool) -> PassResult:
        result = PassResult()
        traces = []
        stdout_path = self.run_dir / "cmd.out"
        stderr_path = self.run_dir / "cmd.err"
        spans_path = self.run_dir / "spans.json"
        for cmd in self.workload.commands:
            if traced:
                argv = [sys.executable, HERE / "traced_child.py", spans_path,
                        f"{self.seed}-{number}-{cmd.label}", *cmd.argv]
            else:
                argv = [sys.executable, "-m", "qhog", *cmd.argv]
            proc = self.spawner.run(argv, stdout_path, stderr_path)
            data_path = cmd.out if cmd.out is not None else stdout_path
            data = data_path.read_bytes() if data_path.exists() else b""
            stderr = stderr_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            key = (cmd.label, proc.returncode, digest, hashlib.sha256(stderr).hexdigest())
            if key not in self.verdicts:
                self.verdicts[key] = gate.check(cmd, proc.returncode, data, stderr)
            problems = list(self.verdicts[key])
            first = self.digests.setdefault(cmd.label, digest)
            if digest != first:
                problems.append(f"output sha256 drifted from {first}")
            if cmd.out is not None:
                cmd.out.unlink(missing_ok=True)
            self.attempted += 1
            self.failed += bool(problems)
            result.wall_s += proc.wall_s
            result.cpu_s += proc.cpu_s
            result.cmd_wall_s[cmd.label] = proc.wall_s
            result.rss_mb = max(result.rss_mb, proc.rss_mb)
            result.minflt += proc.minflt
            result.out_bytes += len(data)
            print(f"cmd pass={number} traced={int(traced)} {cmd.label} rc={proc.returncode} "
                  f"wall_s={proc.wall_s:.4f} cpu_s={proc.cpu_s:.4f} rss_mb={proc.rss_mb:.1f} "
                  f"minor_faults={proc.minflt} bytes={len(data)} sha256={digest} "
                  + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
            if traced and spans_path.exists():
                trace = json.loads(spans_path.read_text())
                spans_path.unlink()
                trace["table"] = spans.summarize(trace["spans"])
                main_s = trace["table"].get("cli.main", {}).get("incl_s", 0.0)
                trace["outside_main_s"] = proc.wall_s - main_s
                trace["spans"] = len(trace["spans"])
                traces.append(trace)
        if traced:
            result.layers = layer_metrics(traces)
            result.layers["trace.wall_s"] = result.wall_s
        return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its commands' traces."""
    t: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "minor_faults": 0})
    counts: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    for trace in traces:
        for name, row in trace["table"].items():
            for key, value in row.items():
                t[name][key] += value
        for key, value in trace["counts"].items():
            counts[key] += value
        for key, value in trace["peaks"].items():
            peaks[key] = max(peaks[key], value)
    pairs = sum(trace["unique_pairs"] for trace in traces)
    m: dict[str, float] = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if "." in span and stat in ("calls", "self_s", "minor_faults"):
            m[metric] = t[span][stat]
        elif span in spans.LAYERS and stat == "self_s":
            # the layer's total; serialization and writes are reported apart
            m[metric] = sum(row["self_s"] for name, row in t.items()
                            if name.split(".")[0] == span
                            and name not in (spans.SERIALIZE, "cli.write"))
    for name in ("collision.apply_two_qubit", "collision.reduced_from_vector"):
        m[f"{name}.ms_per_call"] = 1e3 * _ratio(t[name]["self_s"], t[name]["calls"])
    a2q = t["collision.apply_two_qubit"]
    m["collision.apply_two_qubit.gb_per_s_computed"] = 1e-9 * _ratio(
        2 * counts["collision.apply_two_qubit.state_bytes"], a2q["self_s"])
    m["collision.state_bytes_peak"] = peaks["collision.state_bytes"]
    m["entanglement.pairs_per_concurrence"] = _ratio(pairs, t["entanglement.concurrence"]["calls"])
    m["entanglement.reduced_per_pair"] = _ratio(t["collision.reduced_from_vector"]["calls"], pairs)
    eig = t["linalg.hermitian_eig"]
    m["linalg.hermitian_eig.us_per_call"] = 1e6 * _ratio(eig["self_s"], eig["calls"])
    m["safe.leaves"] = counts["safe.leaves"]
    sweep_s = t["safe.sweep_correct"]["incl_s"] + t["safe.sweep_incorrect"]["incl_s"]
    m["safe.leaves_per_s"] = _ratio(counts["safe.leaves"], sweep_s)
    m["cli.bytes_out"] = counts["cli.bytes_out"]
    m["cli.serialize_mb_per_s"] = 1e-6 * _ratio(counts["cli.bytes_out"],
                                                t[spans.SERIALIZE]["self_s"])
    m["homogenizer.steps_per_s"] = _ratio(counts["homogenizer.steps"],
                                          t["homogenizer.run_trajectory"]["incl_s"])
    m["process.outside_main_s"] = sum(trace["outside_main_s"] for trace in traces)
    m["trace.spans"] = sum(trace["spans"] for trace in traces)
    return m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int:
    """Size of the highest-level cache of CPU 0 (0 when sysfs does not say)."""
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            best = max(best, (level, int(size.rstrip("KMG")) * units.get(size[-1], 1)))
        except (OSError, ValueError, IndexError):
            continue
    return best[1]


def _blas() -> tuple[str, int | None]:
    """Name/version of numpy's BLAS and, for OpenBLAS, its thread count."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    threads = None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return f"{info.get('name')} {info.get('version')}", threads


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "workload": workload,
        "workload_seed": seed,
    }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict[str, float], list]:
    """Repeat probes and passes for about ``seconds``.

    Returns the reported metrics and the untraced passes.
    """
    start = time.perf_counter()
    bench.setup_probe(WARMUP_CODE)  # fills the bytecode and page caches; not timed
    bench.setup_s.clear()
    # gated but not timed: a first pass runs slower (the 22-qubit evolution by
    # 9%), as it is the first to touch that much memory and to gate each output
    bench.run_pass(0, traced=False)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    number = 0
    while True:
        began = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_PASS):
            bench.setup_probe()
        number += 1
        kinds = (False, True) if trace else (False,)
        if trace and number % 2 == 0:
            kinds = kinds[::-1]
        for kind in kinds:
            (traced if kind else untraced).append(bench.run_pass(number, kind))
        now = time.perf_counter()
        if now + (now - began) > start + seconds:
            break

    if trace:
        metrics = {name: statistics.median(p.layers[name] for p in traced)
                   for name in PER_LAYER if name in traced[0].layers}
        metrics["process.minor_faults"] = statistics.median(p.minflt for p in untraced)
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in untraced))
        return metrics, untraced
    items = bench.workload.items_per_pass
    if items is None:  # MB written
        items = statistics.median(p.out_bytes for p in untraced) / 1e6
    return {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "cpu_s": statistics.median(p.cpu_s for p in untraced),
        "peak_rss_mb": statistics.median(p.rss_mb for p in untraced),
        "setup_s": statistics.median(bench.setup_s),
        "throughput": statistics.median(items / p.wall_s for p in untraced),
    }, untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhog" / "cli.py").is_file():
        raise BenchError(f"no qhog sources under {SRC}; run from the root of a qhog checkout")
    # the gate's references come from the code under test; write no bytecode next to it
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner()
    try:
        print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
        bench = Bench(workloads.build(args.workload, args.seed, run_dir), args.seed, run_dir,
                      spawner)
        metrics, untraced = measure(bench, args.seconds, bool(args.trace))
    finally:
        spawner.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if not args.trace:
        print(f"metric {workloads.THROUGHPUT_NAME[args.workload]} {metrics['throughput']!r} "
              f"{bench.workload.item}/s")
        for name, prefix, items, unit in workloads.PART_RATES.get(args.workload, ()):
            part_s = statistics.median(
                sum(t for label, t in p.cmd_wall_s.items() if label.startswith(prefix))
                for p in untraced)
            print(f"metric {name} {items / part_s!r} {unit}")
    print(f"metric failed_ratio {bench.failed / bench.attempted!r} "
          f"({bench.failed} of {bench.attempted} commands)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
