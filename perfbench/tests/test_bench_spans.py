"""Span bookkeeping: nesting, self time, and the wrappers on a real command."""

import json
import os
import subprocess
import sys
import time

import pytest

import spans
from conftest import BENCH_DIR, SRC


def _nested_tracer():
    tracer = spans.Tracer("t")
    leaf = tracer.wrap("m.leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        leaf()
        time.sleep(0.001)

    middle_t = tracer.wrap("m.middle", middle)
    outer = tracer.wrap("m.outer", lambda: (middle_t(), time.sleep(0.001)))
    outer()
    return tracer


def test_spans_nest_and_self_time_is_within_inclusive_time():
    tracer = _nested_tracer()
    recs = tracer.spans
    assert [r[spans.NAME] for r in recs] == ["m.outer", "m.middle", "m.leaf", "m.leaf"]
    assert [r[spans.PARENT] for r in recs] == [-1, 0, 1, 1]
    for rec in recs:
        if rec[spans.PARENT] >= 0:
            parent = recs[rec[spans.PARENT]]
            assert parent[spans.START] <= rec[spans.START] <= rec[spans.END] <= parent[spans.END]
    for rec, own in zip(recs, spans.self_times(recs)):
        assert 0.0 <= own <= rec[spans.END] - rec[spans.START]
    table = spans.summarize(recs)
    assert table["m.leaf"]["calls"] == 2
    assert table["m.leaf"]["self_s"] >= 0.004
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == pytest.approx(table["m.outer"]["incl_s"], abs=1e-9)


def test_exceptions_close_the_span_and_propagate():
    tracer = spans.Tracer("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    (rec,) = tracer.spans
    assert rec[spans.END] >= rec[spans.START] > 0.0
    assert tracer._stack == []


def test_self_time_counts_overlapping_children_once():
    recs = [["p", 0.0, 10.0, -1, 0], ["c", 1.0, 4.0, 0, 0], ["c", 3.0, 6.0, 0, 0],
            ["c", 8.0, 12.0, 0, 0]]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recursive_calls_count_once_in_inclusive_time():
    recs = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 2.0, 0, 0]]
    table = spans.summarize(recs)
    assert table["f"]["incl_s"] == pytest.approx(4.0)
    assert table["f"]["self_s"] == pytest.approx(4.0)


def test_traced_child_wraps_every_layer_on_a_real_command(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH_DIR / "traced_child.py"), str(out), "trace-1",
            "entangle", "--delta", "0.2", "--n", "4", "--format", "json"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(out.read_text())
    assert dump["trace_id"] == "trace-1"
    recs = dump["spans"]
    names = {r[spans.NAME] for r in recs}
    assert {"cli.main", "cli.cmd_entangle", "entanglement.concurrence_table",
            "entanglement.concurrence", "collision.reduced_from_vector", "linalg.hermitian_eig",
            "collision.apply_two_qubit", "cli.serialize", "cli.write"} <= names
    roots = [r for r in recs if r[spans.PARENT] < 0]
    assert [r[spans.NAME] for r in roots] == ["cli.main"]
    for rec, own in zip(recs, spans.self_times(recs)):
        assert -1e-9 <= own <= rec[spans.END] - rec[spans.START]
    table = spans.summarize(recs)
    # every pair is measured three times: once for the table, twice for the CKW sums
    assert dump["unique_pairs"] / table["entanglement.concurrence"]["calls"] == pytest.approx(1 / 3)
    assert dump["counts"]["cli.bytes_out"] == len(proc.stdout)
