import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import qhog
from qhog.bloch import QubitState
from qhog.cli import main, parse_ket, parse_state
from qhog.collision import run_pure
from qhog.homogenizer import SwapAngle, run_trajectory


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


@pytest.mark.parametrize("chunk", [None, 3])
def test_simulate_json_amplitudes_match_json_dumps(capsys, tmp_path, monkeypatch, chunk):
    # small amplitudes print in exponent form and some components are exactly -0.0
    argv = ["simulate", "--eta", "0.005", "--n", "3", "--system=-0.5,0,0",
            "--reservoir", "zero", "--order", "2,3,1", "--format", "json"]
    if chunk is not None:
        monkeypatch.setattr("qhog.cli._DUMP_CHUNK", chunk)  # 16 amplitudes in six chunks
    state = run_pure(parse_ket("-0.5,0,0"), parse_ket("zero"), 3, SwapAngle(0.005), [2, 3, 1])
    payload = {"system_bloch": list(QubitState.from_density(state.reduced(0)).w),
               **state.to_json_dict()}
    parts = [x for z in state.vector.tolist() for x in (z.real, z.imag)]
    assert any(x == 0 and math.copysign(1.0, x) < 0 for x in parts)
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert "-0.0," in want and "e-05" in want
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "amps.json"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want


def test_homogenize_json_matches_json_dumps(capsys, tmp_path):
    # the start carries exact -0.0 components and late distances print in exponent form
    argv = ["homogenize", "--eta", "1.2", "--n", "60", "--system=-0.0,-0.3,-0.4",
            "--reservoir", "0.1,-0.0,0.2", "--format", "json"]
    traj = run_trajectory(parse_state("-0.0,-0.3,-0.4"), parse_state("0.1,-0.0,0.2"),
                          SwapAngle(1.2), 60)
    records = [{"n": st.n, "system": list(st.system.w), "reservoir_out": list(st.reservoir_out.w),
                "D_sys": st.d_system, "D_res": st.d_reservoir} for st in traj.steps]
    want = json.dumps(records, indent=2, sort_keys=True) + "\n"
    assert "-0.0," in want and "e-" in want
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want
    path = tmp_path / "traj.json"
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


def _avx512_groups() -> str:
    """The AVX-512 groups that this numpy dispatches to and this CPU has.

    Turning off only these keeps numpy from warning about the setting.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                    if f in __cpu_dispatch__ and __cpu_features__.get(f))


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the kernel settings name x86-64 CPUs")
@pytest.mark.parametrize("coretype,no_avx512", [("Haswell", True), ("Zen", False)])
def test_outputs_pinned_on_other_cpu_kernels(tmp_path, coretype, no_avx512):
    # the README's entangle line and the mixed simulate reduce pair and
    # one-qubit states, and the trajectory takes lengths; their bytes must not
    # depend on the kernel the CPU gets
    src = str(Path(qhog.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
    if no_avx512:
        env["NPY_DISABLE_CPU_FEATURES"] = _avx512_groups()
    for argv, digests in (_PINNED[1], _PINNED[2], _PINNED[10]):
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
def test_bloch_lengths_and_kets_do_not_depend_on_the_kernel():
    # an off-axis trajectory takes Bloch lengths, and a wx,wy,wz system takes
    # a ket; neither may leave its bits to the BLAS kernel or numpy's SIMD loops
    src = str(Path(qhog.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
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
    src = str(Path(qhog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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
