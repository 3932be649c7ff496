import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qhog
from qhog.bloch import QubitState
from qhog.cli import main, parse_ket, parse_state
from qhog.collision import CollisionState, excitation_forward_run, run_pure
from qhog.entanglement import CONCURRENCE_FLOOR
from qhog.homogenizer import SwapAngle, budget_from_delta, run_trajectory


_SRC = str(Path(qhog.__file__).resolve().parents[1])


def _child_env(env=None, **extra):
    """``env`` (os.environ by default) with ``extra``, and this checkout's src on PYTHONPATH."""
    env = dict(os.environ if env is None else env, **extra)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])
    return env


def _buffered_env(**extra):
    """``_child_env`` without PYTHONUNBUFFERED: a child's stdout to a pipe or a file is buffered."""
    return _child_env({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, **extra)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, argv


def test_parse_state_keywords():
    assert list(parse_state("zero").w) == [0, 0, 0.5]
    assert list(parse_state("one").w) == [0, 0, -0.5]
    assert list(parse_state("plus").w) == [0.5, 0, 0]
    assert list(parse_state("0.1,0.0,-0.2").w) == [0.1, 0.0, -0.2]
    assert abs(parse_ket("plus")[0] - 1 / math.sqrt(2)) < 1e-15


def test_homogenize_meets_delta_budget(capsys):
    code, out, err = run_cli(
        capsys, "homogenize", "--delta", "0.2", "--system", "one", "--reservoir", "zero"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,wx,wy,wz,txp,typ,tzp,D_sys,D_res"
    assert len(lines) == 1 + 23  # steps 0..22
    summary = json.loads(err)
    assert summary["ok"] is True
    assert summary["n"] == 22
    assert summary["final_D_sys"] <= 0.2
    assert summary["max_D_res"] <= 0.2 + 1e-12  # saturated at the budget angle


def test_homogenize_failure_exit_code(capsys):
    # too few steps for the requested precision
    code, out, err = run_cli(
        capsys, "homogenize", "--delta", "0.2", "--n", "3",
        "--system", "one", "--reservoir", "zero",
    )
    assert code == 1
    assert json.loads(err)["ok"] is False


def test_homogenize_budget_misses_delta_off_the_reservoir_axis(capsys):
    # the budget covers system states on the reservoir's Bloch axis; a |+>
    # system against |0> keeps its coherence and ends about 0.10 from xi
    code, out, err = run_cli(
        capsys, "homogenize", "--delta", "0.02", "--system", "plus", "--reservoir", "zero",
    )
    assert code == 1
    summary = json.loads(err)
    assert summary["ok"] is False and summary["n"] == 459
    assert summary["final_D_sys"] > 0.1 and summary["max_D_res"] > 0.1


def test_homogenize_eta_zero_constant(capsys):
    code, out, err = run_cli(
        capsys, "homogenize", "--eta", "0", "--n", "4",
        "--system", "plus", "--reservoir", "zero", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    first = records[0]["system"]
    assert all(rec["system"] == first for rec in records)


def test_homogenize_equal_states_stay_put(capsys):
    code, out, err = run_cli(
        capsys, "homogenize", "--eta", "0.4", "--n", "5",
        "--system", "zero", "--reservoir", "zero",
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["final_D_sys"] == 0.0
    assert summary["max_D_res"] == 0.0


def test_homogenize_requires_exactly_one_angle(capsys):
    assert_usage_error(capsys, "homogenize", "--n", "3")
    assert_usage_error(capsys, "homogenize", "--n", "3", "--eta", "0.2", "--delta", "0.1")


def test_bounds_report(capsys):
    code, out, err = run_cli(capsys, "bounds", "--delta", "0.02", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["sin_eta_max"] == pytest.approx(0.1, abs=1e-12)
    code, out, _ = run_cli(capsys, "bounds", "--delta", "0.2", "--format", "csv")
    assert out.startswith("delta,sin_eta_max,eta_max,n_delta\n")
    assert out.strip().endswith(",22")
    code, out, _ = run_cli(capsys, "bounds", "--delta", "1", "--format", "json")
    assert json.loads(out)["n_delta"] == 1


def test_bounds_csv_prints_large_step_counts_as_integers(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--delta", "5e-16", "--format", "csv")
    assert code == 0
    assert out.split("\n")[1].split(",")[-1] == "161792135270117984"


def test_simulate_snapshot(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--eta", "0.3", "--n", "3",
        "--system", "one", "--reservoir", "zero", "--format", "json",
    )
    assert code == 0
    snap = json.loads(out)
    assert snap["num_qubits"] == 4
    assert snap["log"] == [1, 2, 3]
    assert len(snap["amplitudes"]) == 16
    assert "system_bloch" in snap
    norm = sum(re * re + im * im for re, im in snap["amplitudes"])
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_simulate_order_override(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--eta", "0.3", "--n", "3", "--order", "3,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["log"] == [3, 1]


def test_simulate_mixed_system(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--eta", "0.3", "--n", "2",
        "--system", "0,0,0", "--reservoir", "zero", "--format", "json",
    )
    assert code == 0
    snap = json.loads(out)
    assert snap["amplitudes"] is None
    assert len(snap["system_bloch"]) == 3
    assert_usage_error(capsys, "simulate", "--eta", "0.3", "--n", "2", "--system", "0,0,0")


# a sparse 4-qubit state cut into chunks of 4: a zero run ends on the first
# chunk edge, the second chunk is all zeros, the third starts a zero run that a
# -0.0 breaks and ends in a denormal, and the last holds a -0.0 before a zero run
_SPARSE = np.array([0.6, 0, 0, 0, 0, 0, 0, 0, 0, complex(0.0, -0.0), 0, 5e-324,
                    0.8j, complex(-0.0, 0.0), 0, 0])


@pytest.mark.parametrize("chunk,vector", [
    pytest.param(None, None, id="None"),
    pytest.param(3, None, id="3"),  # 16 amplitudes in six chunks
    pytest.param(4, _SPARSE, id="sparse-chunks"),
    pytest.param(None, _SPARSE, id="sparse"),
])
def test_simulate_json_amplitudes_match_json_dumps(capsys, tmp_path, monkeypatch, chunk, vector):
    # small amplitudes print in exponent form and some components are exactly -0.0
    argv = ["simulate", "--eta", "0.005", "--n", "3", "--system=-0.5,0,0",
            "--reservoir", "zero", "--order", "2,3,1", "--format", "json"]
    if chunk is not None:
        monkeypatch.setattr("qhog.cli._DUMP_CHUNK", chunk)
    state = run_pure(parse_ket("-0.5,0,0"), parse_ket("zero"), 3, SwapAngle(0.005), [2, 3, 1])
    if vector is not None:
        state = CollisionState(vector, state.angle, state.log)
        monkeypatch.setattr("qhog.cli.run_pure", lambda *args: state)
    payload = {"system_bloch": list(QubitState.from_density(state.reduced(0)).w),
               "num_qubits": 4, "eta": 0.005, "log": [2, 3, 1],
               "amplitudes": [[z.real, z.imag] for z in state.vector]}
    parts = [x for z in state.vector.tolist() for x in (z.real, z.imag)]
    assert any(x == 0 and math.copysign(1.0, x) < 0 for x in parts)
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert "-0.0," in want and ("e-05" in want if vector is None else "5e-324" in want)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "amps.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want


_TRAJECTORY_ARGV = ["homogenize", "--eta", "1.2", "--n", "60", "--system=-0.0,-0.3,-0.4",
                    "--reservoir", "0.1,-0.0,0.2"]


def _trajectory_of_argv():
    return run_trajectory(parse_state("-0.0,-0.3,-0.4"), parse_state("0.1,-0.0,0.2"),
                          SwapAngle(1.2), 60)


def test_homogenize_json_matches_json_dumps(capsys, tmp_path, monkeypatch):
    # the start carries exact -0.0 components and late distances print in exponent form
    argv = [*_TRAJECTORY_ARGV, "--format", "json"]
    records = [{"n": st.n, "system": list(st.system.w), "reservoir_out": list(st.reservoir_out.w),
                "D_sys": st.d_system, "D_res": st.d_reservoir}
               for st in _trajectory_of_argv().steps]
    want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert "-0.0," in want and "e-" in want
    for chunk in (None, 7):  # 7: the 61 records cross eight chunk edges
        if chunk is not None:
            monkeypatch.setattr("qhog.cli._DUMP_CHUNK", chunk)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == want, chunk
        path = tmp_path / "traj.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == want, chunk


@pytest.mark.parametrize("chunk", [None, 7])
def test_homogenize_csv_matches_one_shot_rows(capsys, tmp_path, monkeypatch, chunk):
    argv = [*_TRAJECTORY_ARGV, "--format", "csv"]
    if chunk is not None:
        monkeypatch.setattr("qhog.cli._DUMP_CHUNK", chunk)  # 61 rows in nine chunks
    # the one-shot formula the streamed writer replaced
    rows = ["n,wx,wy,wz,txp,typ,tzp,D_sys,D_res"]
    for st in _trajectory_of_argv().steps:
        vals = [*st.system.w, *st.reservoir_out.w, st.d_system, st.d_reservoir]
        rows.append(f"{st.n}," + ",".join(f"{v:.17g}" for v in vals))
    want = "\n".join(rows) + "\n"
    assert ",-0," in want and "e-" in want
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want


def test_simulate_mixed_json_matches_json_dumps(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--eta", "0.3", "--n", "2",
                           "--system", "0.1,0,0", "--format", "json")
    assert code == 0
    assert '"amplitudes": null' in out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("chunk", [None, 3])
def test_simulate_csv_amplitudes_match_one_shot_rows(capsys, tmp_path, monkeypatch, chunk):
    # small amplitudes print in exponent form and one of them is -0.0
    argv = ["simulate", "--eta", "0.005", "--n", "3", "--system=-0.5,0,0",
            "--order", "2,3,1", "--format", "csv"]
    if chunk is not None:
        monkeypatch.setattr("qhog.cli._DUMP_CHUNK", chunk)  # 16 amplitudes in six chunks
    state = run_pure(parse_ket("-0.5,0,0"), parse_ket("zero"), 3, SwapAngle(0.005), [2, 3, 1])
    rows = ["basis,re,im"]  # the one-shot formula the streamed writer replaced
    for idx, z in enumerate(state.vector.tolist()):
        rows.append(f"{idx},{z.real:.17g},{z.imag:.17g}")
    want = "\n".join(rows) + "\n"
    assert (",-0," in want or ",-0\n" in want) and "e-05" in want
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "amps.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want


def test_simulate_csv_amplitudes(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--eta", "0.3", "--n", "2", "--format", "csv",
    )
    lines = out.strip().split("\n")
    assert lines[0] == "basis,re,im"
    assert len(lines) == 1 + 8


def test_entangle_json_residuals(capsys):
    code, out, err = run_cli(
        capsys, "entangle", "--delta", "0.2", "--n", "10", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 55
    assert all(row["residual"] <= 1e-8 for row in payload["pairs"])
    assert all(row["residual"] <= 1e-8 for row in payload["tangles"])
    summary = json.loads(err)
    assert summary["closed_forms"] is True
    assert summary["max_residual_pairs"] <= 1e-8


def test_entangle_c01_value(capsys):
    # first collision at sin^2(eta) = 0.1: C_01 = 2 s c = 0.6
    code, out, _ = run_cli(
        capsys, "entangle", "--delta", "0.2", "--n", "1", "--format", "json",
    )
    payload = json.loads(out)
    row = payload["pairs"][0]
    assert row["C"] == pytest.approx(0.6, abs=1e-10)


def test_entangle_outside_regime_drops_closed_forms(capsys):
    code, out, err = run_cli(
        capsys, "entangle", "--eta", "0.3", "--n", "3",
        "--system", "plus", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all("C_closed" not in row for row in payload["pairs"])
    assert json.loads(err)["closed_forms"] is False
    # a non-canonical collision order also disables the closed forms
    code, out, err = run_cli(
        capsys, "entangle", "--eta", "0.3", "--n", "3", "--order", "3,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(err)["closed_forms"] is False
    # but the canonical prefix keeps them
    code, out, err = run_cli(
        capsys, "entangle", "--eta", "0.3", "--n", "3", "--order", "1,2",
        "--format", "json",
    )
    assert code == 0
    summary = json.loads(err)
    assert summary["closed_forms"] is True
    assert summary["max_residual_pairs"] <= 1e-8


@pytest.mark.parametrize("argv,eta,system,order", [
    (["--delta", "0.2", "--n", "10", "--order", "4,7,1,10,2,9,3,8,5,6"],
     budget_from_delta(0.2).eta_max, "one", [4, 7, 1, 10, 2, 9, 3, 8, 5, 6]),
    (["--eta", "0.3", "--n", "5", "--system", "plus"], 0.3, "plus", None),
], ids=["scrambled", "plus"])
def test_entangle_rows_match_sector_forms(capsys, argv, eta, system, order):
    # against the |0> reservoir a run from psi holds the vacuum plus beta = <1|psi>
    # times the sector amplitudes f_j of its order: C_jk = 2|f_j||f_k||beta|^2 and
    # tau_j = S_j = 4 p_j (|beta|^2 - p_j) with p_j = |beta f_j|^2
    code, out, _ = run_cli(capsys, "entangle", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    f = [abs(a) for a in excitation_forward_run(doc["n"], SwapAngle(eta), order).amplitudes]
    weight = 1.0 - abs(parse_ket("zero").conj() @ parse_ket(system)) ** 2
    for row in doc["pairs"]:
        c, want = row["C"], 2.0 * f[row["j"]] * f[row["k"]] * weight
        # the reading is 0.0 below the floor, and either value right at it
        err = min(abs(c - want), c) if want < 1.01 * CONCURRENCE_FLOOR else abs(c - want)
        assert err <= 1e-8, row
    for row in doc["tangles"]:
        p = weight * f[row["j"]] ** 2
        want = 4.0 * p * (weight - p)
        assert abs(row["tau"] - want) <= 1e-8 and abs(row["S"] - want) <= 1e-8, row


def test_entangle_csv_files(tmp_path, capsys):
    prefix = str(tmp_path / "ent")
    code, out, _ = run_cli(
        capsys, "entangle", "--eta", "0.3", "--n", "3", "--format", "csv", "--out", prefix,
    )
    assert code == 0
    pairs = (tmp_path / "ent_pairs.csv").read_text().strip().split("\n")
    assert pairs[0] == "j,k,C,C_closed,residual"
    assert len(pairs) == 1 + 6
    tangles = (tmp_path / "ent_tangles.csv").read_text().strip().split("\n")
    assert tangles[0] == "j,tau,S,S_closed,residual"
    assert_usage_error(capsys, "entangle", "--eta", "0.3", "--n", "3", "--format", "csv")


def test_safe_correct_small(tmp_path, capsys):
    out_path = str(tmp_path / "hist.csv")
    code, out, err = run_cli(
        capsys, "safe", "--eta", "0.3", "--n", "5", "--out", out_path,
    )
    assert code == 0
    lines = (tmp_path / "hist.csv").read_text().strip().split("\n")
    assert lines[0] == "z_center,count"
    assert len(lines) == 22
    summary = json.loads(err)
    assert summary["total_trials"] == 120
    assert summary["exact_reversals"] == 1


def test_safe_incorrect_json(capsys):
    code, out, err = run_cli(
        capsys, "safe", "--eta", "0.3", "--n", "4", "--mode", "incorrect",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chosen_system_mode"] == "incorrect"
    assert payload["total_trials"] == 4 * 24
    assert payload["exact_reversals"] == 0


def test_safe_sample_mode(capsys):
    code, out, err = run_cli(
        capsys, "safe", "--eta", "0.3", "--n", "6", "--sample", "200", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["total_trials"] == 200


def test_safe_rejects_other_states(capsys):
    assert_usage_error(capsys, "safe", "--eta", "0.3", "--n", "4", "--system", "plus")


def test_outputs_are_deterministic(capsys):
    argv = ["homogenize", "--delta", "0.5", "--system", "plus", "--reservoir", "zero"]
    _, out1, err1 = run_cli(capsys, *argv)
    _, out2, err2 = run_cli(capsys, *argv)
    assert out1 == out2 and err1 == err2

    argv = ["safe", "--eta", "0.3", "--n", "5", "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_invalid_values_exit_cleanly(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bounds", "--delta", "2.5")
    assert code == 2
    assert err.startswith("error:")
    code, out, err = run_cli(
        capsys, "homogenize", "--eta", "0.3", "--n", "4", "--system", "0.9,0,0"
    )
    assert code == 2  # Bloch vector outside the half-radius ball
    assert_usage_error(capsys)
    assert_usage_error(capsys, "simulate", "--eta", "0.3", "--n", "3", "--format", "xml")
    for argv in (
        ["safe", "--delta", "0.1", "--n", "-1"],
        ["safe", "--delta", "0.1", "--sample", "-5"],
        ["safe", "--delta", "0.1", "--sample", "0"],
        ["safe", "--delta", "0.1", "--n", "0", "--mode", "incorrect"],
        *(
            [command, "--n", "3", f"--eta={eta}"]
            for command in ("safe", "homogenize")
            for eta in ("nan", "inf", "-inf")
        ),
        ["bounds", "--delta", "1e-300"],
        ["bounds", "--delta", "5e-324"],
        ["homogenize", "--delta", "1e-7"],  # a trajectory of 336,224,849 steps
        ["homogenize", "--delta", "0.2", "--system", "nan,0,0"],
        ["simulate", "--eta", "0.3", "--n", "3", "--system", "nan,0,0"],
        ["entangle", "--eta", "0.3", "--n", "3", "--reservoir", "0,inf,0"],
        ["bounds", "--delta", "0.2", "--out", str(tmp_path / "missing" / "x.json")],
        ["simulate", "--eta", "0.3", "--n", "3", "--out", str(tmp_path / "missing" / "x.json")],
        *([command, "--eta", "0.3"] for command in ("simulate", "entangle", "homogenize")),
        ["bounds", "--eta", "0.3"],
        ["simulate", "--eta", "0.3", "--n", "3.5"],
        ["safe", "--eta", "0.3", "a\nb"],
        ["bounds", "--delta", "0.2", "--out", str(tmp_path / "missing\n" / "x.json")],
        # each flag a subcommand does not read, with a value another subcommand accepts
        *(
            [*base, flag]
            for base, flags in (
                (["homogenize", "--eta", "0.3", "--n", "3"],
                 ("--order=1,2,3", "--seed=1", "--sample=4")),
                (["bounds", "--delta", "0.1"],
                 ("--eta=0.3", "--n=3", "--order=1,2,3", "--seed=1", "--sample=4")),
                (["simulate", "--eta", "0.3", "--n", "3"], ("--seed=1", "--sample=4")),
                (["entangle", "--eta", "0.3", "--n", "3"], ("--seed=1", "--sample=4")),
                (["safe", "--delta", "0.1", "--n", "3"],
                 ("--order=3,2,1", "--system=one", "--reservoir=zero")),
            )
            for flag in flags
        ),
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, argv


# sha256 of the output bytes, and of the stderr summary under "stderr", captured
# on earlier versions: the first three before the global state was grown one
# reservoir qubit at a time, the JSON trajectory before the trajectory ran on
# Python floats, the others before the entanglement tables carried their own
# closed forms and formats
_PINNED = [
    (["simulate", "--eta", "0.3", "--n", "6", "--system", "plus", "--format", "json"],
     {"": "c85f7c100bbba2dbd8fcf801e2509d39905bb8364af495715a359adcf16b9811"}),
    (["entangle", "--delta", "0.2", "--n", "10", "--format", "csv"],
     {"_pairs.csv": "f47b922aac184ba9fe8e68c29225b5753b651d9692dc9d1e079c0b6b57bea3db",
      "_tangles.csv": "423ff79edbc4774cfbf6a92f3e05baa4d53085475c16aab69c79d90da7bd4e8d",
      "stderr": "b1789c793dadefefac2b9cd5bf686023f568bdafdb1cb8731aff3d43531b707c"}),
    (["simulate", "--delta", "0.2", "--n", "9", "--system", "0.2,0,0.1",
      "--order", "4,9,1,7,3,8,2,6,5", "--format", "json"],
     {"": "136b5a1fc4766b56661e72e4f85c62f28d6f8033dc8c6be40266dd5dc6961ea1"}),
    (["homogenize", "--delta", "0.2", "--system", "one", "--reservoir", "zero"],
     {"": "6d3c90d07d454c733ada9ddf59f8a47be848f67cc2276ab0fb6f3db9214c0714"}),
    (["bounds", "--delta", "0.02", "--format", "json"],
     {"": "36bd3cfb917623e1ce28eda5b9619b48b29d2ee2146385a05384ac9d0fe21761"}),
    (["safe", "--delta", "0.1", "--n", "9", "--mode", "correct"],
     {"": "96dc8fb122481df14aedbf345e31d366e6933e5bb19589d2dd5a2aa3edea5da5"}),
    (["safe", "--delta", "0.1", "--n", "9", "--mode", "incorrect", "--sample", "10000",
      "--seed", "1"],
     {"": "3e94a94c0b8acc3ce92ff4c793779fa4c53a21a6d148a5d8a5a21397e5f749ce"}),
    (["entangle", "--delta", "0.2", "--n", "10", "--format", "json"],
     {"": "04be3955ea7cbc6aff125a9647f11212a546d9c601301ea4ba8b187d8dd90aab",
      "stderr": "b1789c793dadefefac2b9cd5bf686023f568bdafdb1cb8731aff3d43531b707c"}),
    (["entangle", "--delta", "0.2", "--n", "10", "--order", "4,7,1,10,2,9,3,8,5,6",
      "--format", "json"],
     {"": "2e3918a11b0e9a69a3136960ff9d0c5be42287b4002dc0e5a89d124769247830",
      "stderr": "d8b911e9d262b3a28b58abb3f477ea87cd8e36d02f92528dacb1f78ddd458964"}),
    (["entangle", "--eta", "0.3", "--n", "5", "--system", "plus", "--format", "csv"],
     {"_pairs.csv": "8fd6a3979b16760360d6880ebe9abcb290ec2b15da6e84379471bf1aa82f11ba",
      "_tangles.csv": "4b53db2b4e1688d94479381f806946db1dc4d5e66b1269c24f0bdaedcf538b38",
      "stderr": "b885f2b266d1141d3fb8bb1fa036eed89e94ed00143a9210b410a7566741bd1d"}),
    (["homogenize", "--delta", "0.02", "--format", "json"],
     {"": "30b67564c9983289a853ffa45370b6d8893bcc4212c40e141462d5167c4bf62e",
      "stderr": "3a7a39243d7249ffc90b356fd2b7bab2ba681ee8180ffe9c7c90b092c9d09382"}),
    # captured while the safe formats and the trajectory CSV were still methods of
    # the result classes, and the wx,wy,wz parser a method of QubitState
    (["safe", "--delta", "0.1", "--n", "8", "--mode", "incorrect", "--format", "json"],
     {"": "3ef4e990f8f1c1fa7d5e3686ada9e4012b91d70535051bd7ec742d4061c53c7a",
      "stderr": "29a98c7d7e2edb2ca46c6b14f3638b822e16966f54ad6440311759e355430649"}),
    (["safe", "--delta", "0.1", "--n", "9", "--mode", "incorrect", "--sample", "10000",
      "--seed", "1", "--format", "json"],
     {"": "be6b9837683749497c69c8d7c1c021d17220c4657227c4a28290ed2fcc88539f",
      "stderr": "a85cc555693b881b1cba5b3a42b41859a096da1d9767000bf7ca659d870ab440"}),
    (["homogenize", "--eta", "0.4", "--n", "50", "--system", "0,0,0",
      "--reservoir", "0.1,0.2,-0.3"],
     {"": "1e8417c3c147c89750af3bebb47e48d2328eb5d11abe7cf3a73ba037b81d14b7",
      "stderr": "1cef646c706824baec4306f23fd8c15803881ae1f3d8132f744c493be1767246"}),
    # captured while the JSON dump still formatted every zero amplitude with repr
    # and the pair states were still reduced one at a time: a sparse dump of the
    # one-excitation sector, and the tables of a dense state
    (["simulate", "--delta", "0.2", "--n", "12", "--order", "2,1,3,4,5,6,7,8,9,10,11,12",
      "--format", "json"],
     {"": "7a194b713100ed68eee4e974e1073da155a8c365efdf41cf6bd4417b89d5b2d5",
      "stderr": "e4e8b744c288aec9c1c5204ad224ea31101ccc0eec2674f43e25183d7f56f862"}),
    (["entangle", "--eta", "0.3", "--n", "8", "--system", "0.3,0,0.4", "--reservoir", "plus",
      "--format", "json"],
     {"": "9aef1ccdc5c909d65168bb64b979d78b5d6d7403c1f1a0cca263456242c03cc1",
      "stderr": "eefe400bf5519923eca1a40c4fbf47a83f805ff764f9afab5e4eb3dca21d44ce"}),
    # captured while each component of a mixed system still held the whole
    # 22-qubit state: the benchmark's seed-0 evolution
    (["simulate", "--delta", "0.2", "--n", "21", "--system", "0.2,0,0.1", "--order",
      "21,7,20,8,16,2,6,4,5,1,13,19,14,12,17,18,15,10,11,9,3", "--format", "json"],
     {"": "81fc781eb008316cd4baeb58fa220d89c406bbf1d03679a17fae0af54e28b084",
      "stderr": "85f8ebedf6972973415c099a5d3756aeb1c2fc80162068f33635140f79a62a41"}),
    # captured while _insert_qubit still multiplied a one-amplitude row 0 of the
    # whole state in place: reservoir kets with a complex second component, in a
    # pure and a mixed simulate and an entangle.  numpy's X86_V3 loops round
    # these products with FMA, so these digests hold where they are dispatched
    (["simulate", "--eta", "0.3", "--n", "6", "--system", "one", "--reservoir", "0,0.3,-0.4",
      "--format", "csv"],
     {"": "7a3bfd21fa62cf6c433b2af4b0073c4cbe7f6981fc4b370694e85ca3744d84ff",
      "stderr": "04389c87035ded657e57e7ffa33ec2e6be14623665f564e473b45f7a06581577"}),
    (["simulate", "--eta", "0.3", "--n", "16", "--system", "0.1,0.2,0.1", "--reservoir",
      "0,0.3,-0.4", "--format", "json"],
     {"": "c34307cf8d3bdca7ec18ed34283ba412b50fbbb64c649ca5f929339b1d30201e",
      "stderr": "89b71145db74f81a16537a78d624d346a7c59974e401c87dcab0face91883fb1"}),
    (["entangle", "--eta", "0.3", "--n", "8", "--system", "0,0.5,0", "--reservoir", "0.3,0.4,0",
      "--format", "json"],
     {"": "27b206c0a20353cce58a4531d113d2dfd9581144ebe179e095c82b5cda18bb0a",
      "stderr": "eefe400bf5519923eca1a40c4fbf47a83f805ff764f9afab5e4eb3dca21d44ce"}),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,digests", _PINNED)
def test_outputs_pinned(capsys, tmp_path, argv, digests):
    if "" in digests:  # stdout, then the same bytes through --out
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert _sha256(out) == digests[""]
        assert "stderr" not in digests or _sha256(err) == digests["stderr"]
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert "stderr" not in digests or _sha256(err) == digests["stderr"]
    for suffix, digest in digests.items():
        if suffix != "stderr":
            data = (tmp_path / f"out{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix


def _dispatched_groups(*groups) -> str:
    """The groups of ``groups`` that this numpy dispatches to and this CPU has.

    Turning off only these keeps numpy from warning about the setting.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(f for f in groups if f in __cpu_dispatch__ and __cpu_features__.get(f))


def _avx512_groups() -> str:
    """The AVX-512 groups that this numpy dispatches to and this CPU has."""
    return _dispatched_groups("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _assert_pins_hold(tmp_path, env, argvs):
    """Each pinned argv, run as a child with ``env`` through --out, prints its pinned bytes."""
    for argv in argvs:
        digests = next(d for a, d in _PINNED if a == argv)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "qhog", *argv, "--out", str(out)],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout == b"", proc.stderr
        assert "stderr" not in digests or _sha256(proc.stderr.decode()) == digests["stderr"]
        for suffix, digest in digests.items():
            if suffix != "stderr":
                data = (tmp_path / f"out{suffix}").read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, (argv, suffix)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel settings name x86-64 CPUs")
@pytest.mark.parametrize("coretype,no_avx512", [("Haswell", True), ("Zen", False)])
def test_outputs_pinned_on_other_cpu_kernels(tmp_path, coretype, no_avx512):
    # the README's entangle line and the mixed simulate reduce pair and
    # one-qubit states, and the trajectory takes lengths; their bytes must not
    # depend on the kernel the CPU gets
    env = _child_env(OPENBLAS_CORETYPE=coretype)
    if no_avx512:
        env["NPY_DISABLE_CPU_FEATURES"] = _avx512_groups()
    _assert_pins_hold(tmp_path, env, [
        ["entangle", "--delta", "0.2", "--n", "10", "--format", "csv"],
        ["simulate", "--delta", "0.2", "--n", "9", "--system", "0.2,0,0.1",
         "--order", "4,9,1,7,3,8,2,6,5", "--format", "json"],
        ["homogenize", "--delta", "0.02", "--format", "json"],
    ])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel settings name x86-64 CPUs")
def test_pins_hold_on_numpys_baseline_loops_and_a_pre_avx2_blas(tmp_path):
    # every pin but the entangle tables and the complex-ket reservoir holds on
    # numpy's baseline loops and OpenBLAS's SSE3 kernel: these bytes do not
    # depend on the SIMD loops or the BLAS kernel that a numpy dispatches
    env = _child_env(NPY_DISABLE_CPU_FEATURES=_dispatched_groups(
        "X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"), OPENBLAS_CORETYPE="Prescott")
    argvs = [a for a, _ in _PINNED if a[0] != "entangle" and "0,0.3,-0.4" not in a]
    _assert_pins_hold(tmp_path, env, argvs)


_FULL_SWAP = repr(math.pi / 2)


# an exhaustive sweep holds the safe with exactly one exact reversal in correct
# mode and none in incorrect mode; a full swap lets (N-1)! of N! orders and
# (N-1) (N-1)! of N N! wrong choices reverse, and eta = 0 every order
@pytest.mark.parametrize("argv,reversals,trials", [
    *((["safe", "--eta", _FULL_SWAP, "--n", str(n), "--mode", "correct"],
       math.factorial(n - 1), math.factorial(n)) for n in (3, 4, 5)),
    (["safe", "--eta", _FULL_SWAP, "--n", "3", "--mode", "incorrect"], 4, 18),
    (["safe", "--eta", _FULL_SWAP, "--n", "4", "--mode", "incorrect"], 18, 96),
    (["safe", "--eta", "0", "--n", "5"], 120, 120),
    *((argv, None, None) for argv, _ in _PINNED if argv[0] == "safe"),
])
def test_safe_ok_says_whether_the_safe_held(capsys, argv, reversals, trials):
    code, out, err = run_cli(capsys, *argv)
    summary = json.loads(err)
    if reversals is None:  # the pinned runs at --delta 0.1 hold it, byte for byte
        digests = next(d for a, d in _PINNED if a == argv)
        assert code == 0 and summary["ok"] is True
        assert _sha256(out) == digests[""]
        assert "stderr" not in digests or _sha256(err) == digests["stderr"]
    else:
        assert code == 1 and summary["ok"] is False
        assert (summary["exact_reversals"], summary["total_trials"]) == (reversals, trials)
        assert out.startswith("z_center,count\n")


# Starts each qhog child from a small process of its own and prints the
# child's ru_maxrss (KiB): a child inherits the peak RSS of the process that
# forks it, so children of the test process would all report at least its peak
_PEAK_RSS_CHILDREN = """
import os, subprocess, sys
for argv in sys.argv[1:]:
    proc = subprocess.Popen([sys.executable, "-m", "qhog", *argv.split()],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss(*argvs):
    """(exit code, peak RSS in KiB) of one qhog child per argv string, in order."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILDREN, *argvs],
                          capture_output=True, env=_child_env(), text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_mixed_system_run_holds_half_the_final_state():
    # a full 21-qubit state takes 32 MiB; a mixed run of the system qubit
    # holds a prefix without its last collisions and one part of the rest
    argv = "simulate --delta 0.2 --n {} --system 0.2,0,0.1 --format json"
    (code20, kib20), (code3, kib3) = _peak_rss(argv.format(20), argv.format(3))
    assert code20 == code3 == 0
    assert (kib20 - kib3) / 1024 < 24


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_mixed_system_run_streams_its_last_collisions():
    # qubits 1, 2 and 3 last: all three sit above the 2**14-amplitude blocks
    # of a 22-qubit run, the most a part may hold both values of.  The run
    # streams its last collisions from a prefix of 2**14 amplitudes through
    # one part of 2**18 (4.25 MiB); the state before the last collision
    # alone took 32 MiB
    argv = "simulate --delta 0.2 --n {} --system 0.2,0,0.1 --order {} --format json"
    last_123 = ",".join(map(str, [*range(4, 22), 1, 2, 3]))
    (code21, kib21), (code3, kib3) = _peak_rss(argv.format(21, last_123), argv.format(3, "3,1,2"))
    assert code21 == code3 == 0
    assert (kib21 - kib3) / 1024 < 10


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv,n,bound_mib", [
    # the 8 MiB vector of 2**19 amplitudes and one chunk of its 17 MB of text
    ("simulate --delta 0.2 --n {} --format json --out {}", 18, 12),
    # 2**17 steps: 8 MiB of states and distances, their 8 MiB of stacked
    # columns, and one chunk of the 23 MB of records
    ("homogenize --eta 0.1 --n {} --format json --out {}", 131072, 40),
], ids=["simulate", "homogenize"])
def test_bulk_output_is_written_in_bounded_pieces(tmp_path, argv, n, bound_mib):
    (code_n, kib_n), (code3, kib3) = _peak_rss(argv.format(n, tmp_path / "big"),
                                               argv.format(3, tmp_path / "small"))
    assert code_n == code3 == 0
    assert (kib_n - kib3) / 1024 < bound_mib


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_sampled_sweep_peaks_as_the_exhaustive_one():
    # the sampled trials read qhog.safe's own PCG64 stream; numpy.random and
    # the hashlib it imports would add about 6 MiB to the process
    argv = "safe --delta 0.1 --n 9 --mode {}"
    sampled, full = _peak_rss(argv.format("incorrect --sample 50000"), argv.format("correct"))
    assert sampled[0] == full[0] == 0  # exit codes, then peaks in KiB
    assert (sampled[1] - full[1]) / 1024 < 2


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_exhaustive_sweep_holds_no_table_of_tuples():
    # the 5040 x 7 suffix table of N = 9 is one intp array of 276 KiB; built
    # from a list of 5040 tuples, it put the peak 1.0 to 1.4 MiB above N = 2's
    argv = "safe --delta 0.1 --n {} --mode correct"
    (code9, kib9), (code2, kib2) = _peak_rss(argv.format(9), argv.format(2))
    assert code9 == code2 == 0
    assert (kib9 - kib2) / 1024 < 1.0


@pytest.mark.skipif(sys.platform != "linux", reason="a FIFO, read by a thread until EOF")
@pytest.mark.parametrize("argv", [
    "simulate --eta 0.3 --n 17 --format json",
    "simulate --eta 0.3 --n 17 --format csv",
    "homogenize --eta 0.1 --n 20000 --format csv",
])
def test_out_to_a_fifo_writes_what_a_file_gets(tmp_path, argv):
    # --out is opened once: a reader of a FIFO sees EOF only after the last piece
    fifo, plain = tmp_path / "fifo", tmp_path / "plain"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    env = _child_env()
    for out in (fifo, plain):
        proc = subprocess.run([sys.executable, "-m", "qhog", *argv.split(), "--out", str(out)],
                              capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [plain.read_bytes()]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel settings name x86-64 CPUs")
def test_bloch_lengths_and_kets_do_not_depend_on_the_kernel():
    # an off-axis trajectory takes Bloch lengths, and a wx,wy,wz system takes
    # a ket; neither may leave its bits to the BLAS kernel or numpy's SIMD loops
    base = _child_env({k: v for k, v in os.environ.items()
                       if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")})
    settings = [{"OPENBLAS_CORETYPE": coretype} for coretype in ("SkylakeX", "Haswell", "Prescott")]
    settings.append({"NPY_DISABLE_CPU_FEATURES": _avx512_groups()})
    for argv in (
        ["homogenize", "--delta", "0.02", "--system", "0.3,0.2,-0.1", "--reservoir", "plus"],
        ["simulate", "--eta", "0.3", "--n", "4", "--system", "0.05,0.15,0.4743416490252569",
         "--format", "json"],
    ):
        runs = set()
        for setting in settings:
            proc = subprocess.run([sys.executable, "-m", "qhog", *argv], capture_output=True,
                                  env={**base, **setting}, timeout=120)
            # exit 1: off the z axis, the trajectory misses its delta budget
            assert proc.returncode in (0, 1) and proc.stdout, (argv, setting, proc.stderr)
            runs.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(runs) == 1, argv


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the SIMD settings name x86-64 CPUs")
def test_engine_bit_tests_hold_without_numpys_avx2_loops():
    # numpy's X86_V3 complex multiply uses FMA where its baseline loop does
    # not; the grown state must still equal the materialized run bit for bit,
    # and the streamed system state the grown one's, on the loops without it
    off = _dispatched_groups("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
    if not off.startswith("X86_V3"):
        pytest.skip("this numpy dispatches no X86_V3 loops on this CPU")
    env = _child_env(NPY_DISABLE_CPU_FEATURES=off)
    tests = str(Path(__file__).with_name("test_collision.py"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", tests,
         "-k", "test_streamed_system_state_is_run_pure_bit_for_bit"
               " or test_run_pure_bitwise_matches_full_vector_run"],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout.decode()[-2000:]
    summary = proc.stdout.splitlines()[-1]
    assert summary.startswith(b"11 passed") and b"skipped" not in summary, summary


def test_verify_subset(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--quick", "--checks",
        "homogenizer.fixed_point,bloch.metric",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("PASS homogenizer.fixed_point")
    assert lines[1].startswith("PASS bloch.metric")
    final = json.loads(lines[-1])
    assert final["ok"] is True and final["passed"] == 2


# the seed 2 run is tests/test_properties.py::test_quick_mode_runs_everything
@pytest.mark.parametrize("seed", ["0", "1"])
def test_verify_quick_passes_every_suite(capsys, seed):
    import qhog.verify as verify_mod

    code, out, err = run_cli(capsys, "verify", "--quick", "--seed", seed)
    assert code == 0, out
    final = json.loads(out.splitlines()[-1])
    assert final == {"command": "verify", "failed": [], "ok": True,
                     "passed": len(verify_mod.ALL_CHECKS)}


def test_verify_entanglement_suites_on_one_worker(capsys, monkeypatch):
    # on one usable CPU the suites' pair reductions run on one pool thread
    import qhog.entanglement as ent

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ent._workers() == 1
    pools = []
    real = ent._workers
    monkeypatch.setattr(ent, "_workers", lambda: pools.append(real()) or pools[-1])
    checks = ",".join(f"entanglement.{name}" for name in
                      ("ckw_saturation", "closed_form_match", "persistence", "decay"))
    code, out, err = run_cli(capsys, "verify", "--quick", "--checks", checks)
    assert code == 0, out
    assert json.loads(out.splitlines()[-1])["passed"] == 4
    assert pools and set(pools) == {1}


def test_verify_rejects_unknown_check_before_running_any(capsys, monkeypatch):
    import qhog.verify as verify_mod

    ran = []
    monkeypatch.setitem(verify_mod.ALL_CHECKS, "bloch.metric",
                        lambda rng, quick: ran.append(rng) or "ran")
    code, out, err = run_cli(capsys, "verify", "--checks", "bloch.metric,nosuch")
    assert (code, out, err) == (2, "", "error: unknown check nosuch\n")
    assert ran == []


@pytest.mark.parametrize("checks", ["", "bloch.metric,", ",bloch.metric"])
def test_verify_rejects_empty_check_name_before_running_any(capsys, monkeypatch, checks):
    import qhog.verify as verify_mod

    ran = []
    monkeypatch.setitem(verify_mod.ALL_CHECKS, "bloch.metric",
                        lambda rng, quick: ran.append(rng) or "ran")
    code, out, err = run_cli(capsys, "verify", "--quick", "--checks", checks)
    assert (code, out, err) == (2, "", f"error: empty check name in {checks!r}\n")
    assert ran == []


def test_importing_cli_leaves_verify_unloaded():
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, qhog.cli; print('qhog.verify' in sys.modules)"],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"False\n"), proc.stderr


def test_verify_writes_failure_record(capsys, monkeypatch):
    import qhog.verify as verify_mod

    def boom(rng, quick=False):
        raise verify_mod.CheckFailure("synthetic failure")

    monkeypatch.setitem(verify_mod.ALL_CHECKS, "bloch.metric", boom)
    code, out, err = run_cli(capsys, "verify", "--quick", "--checks", "bloch.metric")
    assert code == 1
    final = json.loads(out.strip().split("\n")[-1])
    assert final["failed"] == ["bloch.metric"]


def test_safe_seed_needs_sample(capsys):
    code, out, err = run_cli(capsys, "safe", "--delta", "0.1", "--n", "4", "--seed", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: --seed") and err.count("\n") == 1
    # without --seed a sampled sweep keeps seed 0
    argv = ["safe", "--eta", "0.3", "--n", "6", "--sample", "200", "--format", "json"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


def test_error_lines_name_their_input(capsys, monkeypatch):
    monkeypatch.delenv("QHOG_MAX_QUBITS", raising=False)
    code, out, err = run_cli(capsys, "safe", "--delta", "0.1", "--sample", "5", "--seed", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: --seed") and err.count("\n") == 1
    for order in ("a", ",1"):
        code, out, err = run_cli(capsys, "simulate", "--eta", "0.3", "--n", "3", "--order", order)
        assert (code, out) == (2, "")
        assert err == f"error: --order must be comma-separated integers, got {order!r}\n"
    for argv, want in [
        (("verify", "--seed", "-1"), "error: --seed must be a non-negative integer, got -1\n"),
        (("homogenize", "--eta", "0.3", "--n", "3", "--reservoir", "x,y,z"),
         "error: --reservoir 'x,y,z': could not convert string to float: 'x'\n"),
        (("simulate", "--eta", "0.3", "--n", "3", "--reservoir", "0,0,0"),
         "error: --reservoir '0,0,0': Bloch vector of length 0.0 is not pure\n"),
        (("entangle", "--eta", "0.3", "--n", "3", "--system", "0,0,1", "--format", "json"),
         "error: --system '0,0,1': Bloch vector length 1.0 exceeds 1/2\n"),
        # entangle takes a pure system only
        (("entangle", "--eta", "0.3", "--n", "3", "--system", "0.2,0,0.1", "--format", "json"),
         "error: --system '0.2,0,0.1': Bloch vector of length 0.223606797749979 is not pure\n"),
        *(((command, "--eta", "0.3", "--n", "0", "--format", "json"),
           "error: --n must be at least 1, got 0\n")
          for command in ("simulate", "entangle", "homogenize", "safe")),
        (("simulate", "--eta", "0.3", "--n", "3", "--order", "1,1"),
         "error: --order '1,1': collision order contains repeats: [1, 1]\n"),
        (("entangle", "--eta", "0.3", "--n", "3", "--order", "1,5", "--format", "json"),
         "error: --order '1,5': reservoir index 5 out of range 1..3\n"),
        *((("safe", "--delta", "0.1", "--sample", sample),
           f"error: --sample must be at least 1, got {sample}\n") for sample in ("0", "-5")),
        # 13! and 12 12! orders, above 12!; rejected before any leaf is computed
        *((("safe", "--eta", "0.3", "--n", n, "--mode", mode),
           f"error: --n {n}: the exhaustive {mode} sweep takes more than 12! = 479001600 "
           "orders; draw some of them with --sample\n")
          for n, mode in (("13", "correct"), ("12", "incorrect"))),
        # a sampled sweep draws at most 12! trials; rejected before any draw
        (("safe", "--delta", "0.1", "--n", "9", "--mode", "incorrect", "--sample", "479001601"),
         "error: --sample 479001601: more than 12! = 479001600 trials\n"),
        (("homogenize", "--eta", "0.3", "--n", "2000000"),
         "error: --n must be at most 1048576, got 2000000\n"),
        # a budget of 336,224,849 steps, above the 2^20 of a trajectory
        (("homogenize", "--delta", "1e-7"),
         "error: --delta 1e-07: its budget takes 336224849 steps, more than the 2^20 = 1048576 "
         "a trajectory may take\n"),
        # the angle flags, one row per subcommand that reads them
        (("homogenize", "--eta", "nan", "--n", "3"),
         "error: --eta nan: the swap angle must be finite, got nan\n"),
        (("simulate", "--eta", "inf", "--n", "3"),
         "error: --eta inf: the swap angle must be finite, got inf\n"),
        (("entangle", "--delta", "2", "--n", "3", "--format", "json"),
         "error: --delta 2.0: delta must lie in (0, 2), got 2.0\n"),
        (("safe", "--delta", "3"), "error: --delta 3.0: delta must lie in (0, 2), got 3.0\n"),
        (("bounds", "--delta", "nan"), "error: --delta nan: delta must lie in (0, 2), got nan\n"),
        (("bounds", "--delta", "1e-300"),
         "error: --delta 1e-300: delta 1e-300 is too small: 1 - delta/2 rounds to 1\n"),
        # one qubit above the default cap of 22, and a mixed state with no amplitudes to dump
        *(((command, "--eta", "0.3", "--n", "22", "--format", "json"),
           "error: --n 22: 23 qubits exceeds the configured cap of 22 (QHOG_MAX_QUBITS)\n")
          for command in ("simulate", "entangle")),
        (("simulate", "--eta", "0.3", "--n", "3", "--system", "0,0,0.1", "--format", "csv"),
         "error: --system '0,0,0.1' is mixed: --format csv dumps pure amplitudes\n"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", want)
    # a sampled sweep has no such bound
    code, out, _ = run_cli(capsys, "safe", "--eta", "0.3", "--n", "30", "--sample", "10",
                           "--format", "json")
    assert code == 0 and json.loads(out)["total_trials"] == 10
    # 46 qubits ask for 1 PiB of amplitudes and a sampled sweep of 10^15 for 14 PiB,
    # beyond any address space: refused at once without touching memory
    monkeypatch.setenv("QHOG_MAX_QUBITS", "60")
    for argv in (("simulate", "--n", "45"), ("entangle", "--n", "45"),
                 ("safe", "--n", str(10**15), "--sample", "1")):
        code, out, err = run_cli(capsys, *argv, "--eta", "0.3", "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --n {argv[2]}: Unable to allocate ") and err.count("\n") == 1
    monkeypatch.setenv("QHOG_MAX_QUBITS", "abc")
    code, out, err = run_cli(capsys, "simulate", "--eta", "0.3", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: QHOG_MAX_QUBITS must be an integer, got 'abc'\n"
    monkeypatch.setenv("QHOG_MAX_QUBITS", "1")
    code, out, err = run_cli(capsys, "simulate", "--eta", "0.3", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: QHOG_MAX_QUBITS must be at least 2, got 1\n"


def test_exhaustive_sweep_bound_admits_its_largest_n(monkeypatch):
    # 12! and 11 11! orders, and 12! sampled trials, are within the bounds: the
    # sweep starts (and is stopped here)
    class Started(Exception):
        pass

    def start(n, angle, **kwargs):
        raise Started(n)

    for mode, n in (("correct", 12), ("incorrect", 11)):
        monkeypatch.setattr(f"qhog.cli.sweep_{mode}", start)
        with pytest.raises(Started):
            main(["safe", "--eta", "0.3", "--n", str(n), "--mode", mode])
    with pytest.raises(Started):
        main(["safe", "--eta", "0.3", "--n", "9", "--mode", "incorrect", "--sample", "479001600"])


# the simulate cases take the bare ids, so their test ids stay stable
_BUFFERINGS = [({}, "buffered"), ({"PYTHONUNBUFFERED": "1"}, "unbuffered")]


@pytest.mark.parametrize("argv,first,buffering", [
    pytest.param(argv, first, buffering, id=prefix + name)
    for argv, first, prefix in [
        ("simulate --eta 0.3 --n 16 --format csv", b"basis,re,im\n", ""),
        ("homogenize --eta 0.1 --n 200000 --format csv",
         b"n,wx,wy,wz,txp,typ,tzp,D_sys,D_res\n", "homogenize-"),
    ]
    for buffering, name in _BUFFERINGS
])
def test_closed_stdout_ends_in_one_error_line(argv, first, buffering):
    # the streamed CSV dump and trajectory write in chunks, so the write after
    # the reader has gone fails with a broken pipe, with Python's stdout buffer
    # or without
    env = _buffered_env(**buffering)
    argv = [sys.executable, "-m", "qhog", *argv.split()]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
    assert "Traceback" not in err
    assert (code, err) == (2, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv,buffering", [
    pytest.param(argv, buffering, id=prefix + name)
    for argv, prefix in [("simulate --eta 0.3 --n 3 --format json", ""),
                         ("homogenize --eta 0.1 --n 3 --format json", "homogenize-")]
    for buffering, name in _BUFFERINGS
])
def test_full_stdout_ends_in_one_error_line(argv, buffering):
    # every write to /dev/full fails with ENOSPC: the unbuffered run at the
    # first write, the buffered one when the data is flushed before the summary
    env = _buffered_env(**buffering)
    argv = [sys.executable, "-m", "qhog", *argv.split()]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write stdout: No space left on device\n")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_python(code: str, **env_vars) -> str:
    """stdout of ``python -c code`` on this checkout; of the thread variables, only ``env_vars``."""
    env = _child_env({k: v for k, v in os.environ.items() if k not in _THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**env, **env_vars}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_qhog_leaves_numpy_unloaded():
    assert _run_python("import sys, qhog; print('numpy' in sys.modules)") == "False\n"


def test_sampled_sweep_leaves_numpy_random_unloaded():
    # against what importing numpy alone loads, as an older numpy may load numpy.random too
    code = ("import sys, {}; print(sorted({{'numpy.random', 'secrets'}} & set(sys.modules)))")
    run = ("qhog.__main__; qhog.__main__.main(['safe', '--delta', '0.1', '--n', '9', "
           "'--mode', 'incorrect', '--sample', '50000', '--seed', '5'])")
    numpy_alone = _run_python(code.format("numpy"))
    assert _run_python(code.format(run)).splitlines()[-1] == numpy_alone.strip()


def test_importing_cli_leaves_concurrent_futures_unloaded():
    # entangle imports its thread pool when it runs: the module loads logging,
    # which would grow every other command's process
    code = "import sys, qhog.cli; print('concurrent.futures' in sys.modules)"
    assert _run_python(code) == "False\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("argv", [
    # the pair reductions of a dense state run on one thread per usable CPU
    ["entangle", "--eta", "0.3", "--n", "8", "--system", "0.3,0,0.4", "--reservoir", "plus",
     "--format", "json"],
    # the benchmark's mixed evolution, which starts no threads
    ["simulate", "--delta", "0.2", "--n", "21", "--system", "0.2,0,0.1", "--order",
     "21,7,20,8,16,2,6,4,5,1,13,19,14,12,17,18,15,10,11,9,3", "--format", "json"],
], ids=["entangle", "mixed-simulate"])
def test_one_cpu_prints_the_same_bytes(argv):
    # restricted to one CPU, the command must print the bytes of an unrestricted run
    env = _child_env()
    digests = next(d for a, d in _PINNED if a == argv)
    cpu = min(os.sched_getaffinity(0))
    runs = [subprocess.run([sys.executable, "-m", "qhog", *argv], capture_output=True, env=env,
                           timeout=120, preexec_fn=restrict)
            for restrict in (lambda: os.sched_setaffinity(0, {cpu}), None)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert _sha256(proc.stdout.decode()) == digests[""]
        assert _sha256(proc.stderr.decode()) == digests["stderr"]


@pytest.mark.parametrize("caller,want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "3"}, "None"),
    ({"GOTO_NUM_THREADS": "4"}, "None"),
])
def test_cli_entry_point_defaults_openblas_to_one_thread(caller, want):
    code = "import os, qhog.__main__; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run_python(code, **caller) == want + "\n"


def test_large_streamed_output_survives_the_exit_path(tmp_path, capsys):
    # a qhog process leaves through os._exit, which flushes nothing: the last
    # buffer of a streamed CSV must reach the pipe, and the --out file be closed
    argv = ["homogenize", "--eta", "0.1", "--n", "200000", "--format", "csv"]
    env = _buffered_env()
    piped = subprocess.run([sys.executable, "-m", "qhog", *argv], capture_output=True, env=env,
                           timeout=120)
    path = tmp_path / "out.csv"
    filed = subprocess.run([sys.executable, "-m", "qhog", *argv, "--out", str(path)],
                           capture_output=True, env=env, timeout=120)
    code, out, err = run_cli(capsys, *argv)
    assert piped.returncode == filed.returncode == code == 0
    assert len(piped.stdout) > 5_000_000
    assert piped.stdout == path.read_bytes() == out.encode()
    assert piped.stderr == filed.stderr == err.encode()


_ENTRY_CASES = [
    (["bounds", "--delta", "0.02", "--format", "json"], 0),
    (["safe", "--eta", _FULL_SWAP, "--n", "4", "--mode", "correct"], 1),  # the safe fails
    (["bounds", "--delta", "nan"], 2),
]


@pytest.mark.parametrize("argv,want", _ENTRY_CASES, ids=["ok", "safe-fails", "bad-input"])
def test_main_returns_and_run_exits_with_its_code(capsys, monkeypatch, argv, want):
    # importing qhog.__main__ sets OPENBLAS_NUM_THREADS when it is unset; the
    # test takes it back
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    from qhog import __main__ as entry

    assert entry.main(argv) == want  # in process, without exiting
    captured = capsys.readouterr()
    # the console script's call: nothing after run() runs
    code = f"import sys, qhog.__main__; sys.argv[1:] = {argv!r}; qhog.__main__.run(); print('back')"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_buffered_env(),
                          timeout=120)
    assert proc.returncode == want
    assert (proc.stdout, proc.stderr) == (captured.out.encode(), captured.err.encode())


@pytest.mark.parametrize("main,stdout,want,err", [
    # stdout cannot take the buffer that run() flushes: exit 2, as main's own
    # unwritable stdout ends
    ("lambda: sys.stdout.write('x') and 0", "/dev/full", 2, b""),
    # an exception ends in the interpreter's own exit and traceback
    ("lambda: 1 / 0", None, 1, b"ZeroDivisionError"),
], ids=["unflushable-stdout", "exception"])
def test_run_ends_other_exits(main, stdout, want, err):
    if stdout is not None and not os.path.exists(stdout):
        pytest.skip(f"needs {stdout}")
    code = f"import sys, qhog.__main__ as entry; entry.main = {main}; entry.run()"
    env = _buffered_env()
    with open(stdout or os.devnull, "w") as fh:
        proc = subprocess.run([sys.executable, "-c", code], stdout=fh, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    assert proc.returncode == want
    assert err in proc.stderr and (err or proc.stderr == b"")


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from qhog import QubitState" in example
    lines = _run_python(example).splitlines()
    assert len(lines) == 2 and float(lines[0]) <= 0.2
