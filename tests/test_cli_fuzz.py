"""Fuzzed argv for every subcommand but ``verify``: a clean exit code, no traceback, strict JSON.

``homogenize --delta`` is never fuzzed without ``--n``: its step count
n_delta grows like 1/delta.
"""

import contextlib
import io
import json
import math
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhog.cli import main


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in output")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_clean_exit(argv):
    """Run ``argv``, check the exit and return (code, parsed stdout or None, stderr)."""
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    payload = json.loads(out, parse_constant=_reject_constant) if out else None
    if code in (0, 1) and err.startswith("{"):
        json.loads(err, parse_constant=_reject_constant)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    return code, payload, err


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(["safe", "homogenize"]),
    mode=st.sampled_from(["correct", "incorrect"]),
    n=st.none() | st.integers(-3, 6),
    sample=st.none() | st.integers(-5, 40),
    seed=st.integers(0, 2**31 - 1),
    eta=st.none()
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.3])
    | st.floats(allow_nan=True, allow_infinity=True),
)
@example(command="safe", mode="correct", n=-1, sample=None, seed=0, eta=0.3)
@example(command="safe", mode="correct", n=3, sample=-5, seed=0, eta=0.3)
@example(command="safe", mode="incorrect", n=0, sample=None, seed=0, eta=0.3)
@example(command="safe", mode="correct", n=3, sample=None, seed=0, eta=math.nan)
@example(command="homogenize", mode="correct", n=3, sample=None, seed=0, eta=math.nan)
def test_fuzzed_argv_exits_cleanly(command, mode, n, sample, seed, eta):
    argv = [command, "--format", "json"]
    if command == "safe":  # the only subcommand that reads --mode, --seed and --sample
        argv.append(f"--mode={mode}")
        if sample is not None:  # --seed is read with --sample only
            argv += [f"--sample={sample}", f"--seed={seed}"]
    if n is not None:
        argv.append(f"--n={n}")
    if eta is not None:
        argv.append(f"--eta={eta!r}")
    code, payload, _ = _check_clean_exit(argv)
    if command == "safe" and code != 2:  # a sweep that does not hold the safe prints it too
        assert payload["total_trials"] == sum(b["count"] for b in payload["bins"]) >= 1


# a path inside a regular file, which no platform can create
UNWRITABLE = str(Path(__file__) / "out.json")


@settings(max_examples=80, deadline=None)
@given(
    delta=st.sampled_from([1e-300, 5e-324, 2.2e-16, math.nan, math.inf, -math.inf, 0.2, 2.0])
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    out=st.sampled_from([None, UNWRITABLE]),
)
@example(delta=1e-300, out=None)
@example(delta=0.2, out=UNWRITABLE)
def test_fuzzed_bounds_delta_exits_cleanly(delta, out):
    argv = ["bounds", "--format", "json", f"--delta={delta!r}"]
    if out is not None:
        argv.append(f"--out={out}")
    code, _, err = _check_clean_exit(argv)
    assert code in (0, 2)
    if out is not None:
        assert code == 2 and err.startswith("error:")


_COMPONENT = st.sampled_from([0.0, 0.3, -0.4, 0.5, math.nan, math.inf, -math.inf]) | st.floats(
    allow_nan=True, allow_infinity=True)
_STATE = st.sampled_from(["zero", "one", "plus", "0.3,0.4,0", "0,0,0.1", "nan,0,0"]) | st.tuples(
    _COMPONENT, _COMPONENT, _COMPONENT).map(lambda w: ",".join(repr(x) for x in w))


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(["simulate", "entangle", "homogenize"]),
    n=st.none() | st.integers(1, 4),
    angle=st.sampled_from(["--eta=0.3", "--delta=0.2"]),
    system=_STATE,
    reservoir=_STATE,
)
@example(command="homogenize", n=None, angle="--delta=0.2", system="nan,0,0", reservoir="zero")
@example(command="simulate", n=3, angle="--delta=0.2", system="nan,0,0", reservoir="zero")
@example(command="entangle", n=2, angle="--eta=0.3", system="one", reservoir="0,inf,0")
def test_fuzzed_states_exit_cleanly(command, n, angle, system, reservoir):
    argv = [command, angle, "--format", "json", f"--system={system}", f"--reservoir={reservoir}"]
    if n is not None:
        argv.append(f"--n={n}")
    code, _, _ = _check_clean_exit(argv)
    finite = all(math.isfinite(float(x)) for x in f"{system},{reservoir}".split(",")
                 if x not in ("zero", "one", "plus"))
    # without --n only homogenize --delta gets as far as reading the states
    reads_states = n is not None or (command, angle) == ("homogenize", "--delta=0.2")
    if reads_states and not finite:
        assert code == 2, argv
