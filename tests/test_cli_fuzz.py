"""Fuzzed ``safe`` and ``homogenize`` argv: a clean exit code, no traceback, strict JSON."""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhog.cli import main


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in output")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits with 2; a message exits with 1, as the interpreter does
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


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
    argv = [command, "--format", "json", "--seed", str(seed)]
    if command == "safe":
        argv.append(f"--mode={mode}")
    if n is not None:
        argv.append(f"--n={n}")
    if sample is not None:
        argv.append(f"--sample={sample}")
    if eta is not None:
        argv.append(f"--eta={eta!r}")
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    payload = json.loads(out, parse_constant=_reject_constant) if out else None
    if command == "safe" and code == 0:
        assert payload["total_trials"] == sum(b["count"] for b in payload["bins"]) >= 1
    if code in (0, 1) and err.startswith("{"):
        json.loads(err, parse_constant=_reject_constant)
