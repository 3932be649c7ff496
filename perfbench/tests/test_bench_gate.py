"""The gate accepts real qhog output and rejects deliberately corrupted output."""

import contextlib
import io
import json
import math
import random

import pytest

import gate
from workloads import Command, scrambled_order


def _run(argv, out=None):
    from qhog.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(list(argv))
    data = out.read_bytes() if out is not None else stdout.getvalue().encode()
    return rc, data, stderr.getvalue().encode()


def _edit(data: bytes, fn) -> bytes:
    doc = json.loads(data)
    fn(doc)
    return json.dumps(doc).encode()


ORDER5 = scrambled_order(random.Random(5), 5)
ORDER6 = scrambled_order(random.Random(6), 6)


def _cases(tmp_path):
    amps = tmp_path / "amps.json"
    traj = tmp_path / "traj.json"
    order = lambda o: ",".join(map(str, o))  # noqa: E731
    return {
        "sweep": Command("s", "sweep", ("safe", "--delta", "0.1", "--n", "4", "--mode", "correct",
                                        "--format", "json"),
                         expect={"N": 4, "trials": math.factorial(4), "exact": 1}),
        "evolve": Command("e", "evolve",
                          ("simulate", "--delta", "0.2", "--n", "5", "--system", "0.2,0,0.1",
                           "--order", order(ORDER5), "--format", "json"),
                          order=ORDER5, expect={"n": 5, "system": "0.2,0,0.1"}),
        "dump_amplitudes": Command("d", "dump_amplitudes",
                                   ("simulate", "--delta", "0.2", "--n", "6",
                                    "--order", order(ORDER6), "--format", "json",
                                    "--out", str(amps)),
                                   out=amps, order=ORDER6, expect={"n": 6}),
        "dump_trajectory": Command("h", "dump_trajectory",
                                   ("homogenize", "--delta", "0.05", "--format", "json", "--out",
                                    str(traj)), out=traj, expect={"delta": 0.05}),
        "pairs_closed": Command("p", "pairs_closed", ("entangle", "--delta", "0.2", "--n", "5",
                                                      "--format", "json"), expect={"n": 5}),
        "pairs_replay": Command("q", "pairs_replay", ("entangle", "--delta", "0.2", "--n", "5",
                                                      "--order", order(ORDER5), "--format", "json"),
                                order=ORDER5, expect={"n": 5}),
    }


def _bump_bin(doc):
    doc["bins"][3]["count"] += 1


def _bump_bloch(doc):
    doc["system_bloch"][2] += 1e-6


def _leak_amplitude(doc):
    doc["amplitudes"][3] = [1e-9, 0.0]


def _drop_step(doc):
    doc.pop()


def _bump_residual(doc):
    doc["pairs"][0]["residual"] = 1e-6


def _bump_concurrence(doc):
    doc["pairs"][-1]["C"] += 1e-6


CORRUPTIONS = {
    "sweep": _bump_bin,
    "evolve": _bump_bloch,
    "dump_amplitudes": _leak_amplitude,
    "dump_trajectory": _drop_step,
    "pairs_closed": _bump_residual,
    "pairs_replay": _bump_concurrence,
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_gate_accepts_real_output_and_rejects_corruption(kind, tmp_path):
    cmd = _cases(tmp_path)[kind]
    rc, data, err = _run(cmd.argv, cmd.out)
    assert gate.check(cmd, rc, data, err) == []
    bad = _edit(data, CORRUPTIONS[kind])
    assert gate.check(cmd, rc, bad, err) != []


def test_gate_rejects_nan_literals_and_nonzero_exit(tmp_path):
    cmd = _cases(tmp_path)["evolve"]
    rc, data, err = _run(cmd.argv)
    text = data.decode()
    first_value = text.index("[", text.index('"system_bloch"')) + 1
    nan_data = (text[:first_value] + "NaN, " + text[first_value:]).encode()
    assert any("NaN" in p for p in gate.check(cmd, rc, nan_data, err))
    assert gate.check(cmd, 2, data, b"error: boom\n") == ["exit code 2: error: boom"]


def test_gate_requires_an_ok_summary(tmp_path):
    cmd = _cases(tmp_path)["sweep"]
    rc, data, err = _run(cmd.argv)
    bad_err = err.replace(b'"ok": true', b'"ok": false')
    assert gate.check(cmd, rc, data, bad_err) == ["stderr summary does not say ok: true"]


def test_gate_rejects_a_wrong_trial_count(tmp_path):
    cmd = _cases(tmp_path)["sweep"]
    rc, data, err = _run(cmd.argv)
    wrong = Command(cmd.label, cmd.kind, cmd.argv, expect={**cmd.expect, "trials": 25})
    assert gate.check(wrong, rc, data, err) != []


def test_a_repeated_output_is_gated_once_and_a_changed_one_fails(tmp_path, monkeypatch):
    import run
    from workloads import Workload

    cmd = _cases(tmp_path)["sweep"]
    rc, data, err = _run(cmd.argv)
    outputs = [data, data, _edit(data, _bump_bin)]

    class Spawner:
        def run(self, argv, stdout_path, stderr_path):
            stdout_path.write_bytes(outputs.pop(0))
            stderr_path.write_bytes(err)
            return run.Proc(rc, 1.0, 1.0, 10.0, 0)

    checked = []
    real_check = gate.check
    monkeypatch.setattr(gate, "check", lambda *args: checked.append(args) or real_check(*args))
    bench = run.Bench(Workload("w", "leaf", (cmd,), 24), 1, tmp_path, Spawner())
    for number in (1, 2, 3):
        bench.run_pass(number, traced=False)
    assert (bench.attempted, bench.failed, len(checked)) == (3, 1, 2)
