"""Tests of the benchmark's own arithmetic and process handling."""

from __future__ import annotations

import json
import os
import sys
import textwrap
import types
from pathlib import Path

import pytest

from harness import charged, median_counting_failures, run_child
from layers import SpanStats
from tracer import EXIT_STOPPED, Span, Tracer, self_times, spans_from_json, top_level_time

BENCH_DIR = Path(__file__).resolve().parent


def test_self_time_subtracts_each_child_once():
    spans = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
             Span(2, 1, "a.inner", 2.0, 3.0), Span(3, 0, "b", 5.0, 6.0)]
    assert self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
             Span(2, 0, "b", 3.0, 5.0), Span(3, 0, "late", 9.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_top_level_time_is_the_union_of_root_spans():
    spans = [Span(0, None, "x", 0.0, 2.0), Span(1, 0, "y", 0.5, 1.0),
             Span(2, None, "z", 5.0, 6.5)]
    assert top_level_time(spans) == pytest.approx(3.5)
    assert top_level_time([]) == 0.0


def test_tracer_records_nesting_amounts_and_restores():
    ticks = iter(range(100))
    ns = types.SimpleNamespace()
    ns.inner = lambda n: list(range(n))
    ns.outer = lambda n: ns.inner(n) + ns.inner(1)
    original = ns.inner
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.patch(ns, "outer", "outer")
    tracer.patch(ns, "inner", "inner", measure=lambda args, result: len(result))
    assert ns.outer(3) == [0, 1, 2, 0]
    tracer.restore()
    assert ns.inner is original
    spans = spans_from_json(tracer.to_json(), id_offset=10)
    assert [(s.id, s.parent, s.name, s.amount) for s in spans] == [
        (10, None, "outer", None), (11, 10, "inner", 3.0), (12, 10, "inner", 1.0)]
    # outer: ticks 0..5, inner 1..2 and 3..4 -> self time 5 - 2
    assert self_times(spans)[10] == 3.0


def test_median_counts_failures_at_the_deadline():
    ok = [(1.0, False), (2.0, False), (3.0, False)]
    assert median_counting_failures(ok + [(0.5, True)], deadline_s=10.0) == 2.5
    # an op killed late is charged what it actually took
    assert charged(10.4, True, 10.0) == 10.4
    assert charged(0.5, False, 10.0) == 0.5


def test_turning_a_failure_into_a_success_never_raises_the_median():
    deadline = 5.0
    for walls in ([1.0, 2.0, 9.0], [4.0, 4.5, 0.1, 7.0], [0.2, 0.3]):
        for i in range(len(walls)):
            failed = [(w, j == i) for j, w in enumerate(walls)]
            fixed = [(w, False) for w in walls]
            assert (median_counting_failures(fixed, deadline)
                    <= median_counting_failures(failed, deadline))


def test_child_killed_at_deadline(tmp_path):
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"], cwd=tmp_path,
                    env=dict(os.environ), timeout_s=0.3, stdout_path=tmp_path / "out",
                    stderr_path=tmp_path / "err")
    assert res.timed_out
    assert res.exit_code == -9
    assert 0.3 <= res.wall_s < 5.0


def test_child_that_finishes_is_not_killed(tmp_path):
    res = run_child([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
                    cwd=tmp_path, env=dict(os.environ), timeout_s=30.0,
                    stdout_path=tmp_path / "out", stderr_path=tmp_path / "err")
    assert not res.timed_out
    assert res.exit_code == 3
    assert (tmp_path / "out").read_text() == "hi\n"
    assert res.maxrss_mb > 0


def test_stopped_child_names_its_open_spans(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(textwrap.dedent(f"""
        import sys, time, types
        sys.path.insert(0, {str(BENCH_DIR)!r})
        from tracer import Tracer
        ns = types.SimpleNamespace(inner=lambda: time.sleep(30))
        ns.outer = lambda: ns.inner()
        tracer = Tracer()
        tracer.patch(ns, "outer", "layer.outer")
        tracer.patch(ns, "inner", "layer.inner")
        tracer.dump_on_sigterm(sys.argv[1])
        ns.outer()
    """))
    dump = tmp_path / "spans.json"
    res = run_child([sys.executable, str(stub), str(dump)], cwd=tmp_path,
                    env=dict(os.environ), timeout_s=1.0, stdout_path=tmp_path / "out",
                    stderr_path=tmp_path / "err", term_grace_s=10.0)
    assert res.timed_out
    assert res.exit_code == EXIT_STOPPED
    payload = json.loads(dump.read_text())
    assert payload["open_stack"] == ["layer.outer", "layer.inner"]
    spans = spans_from_json(payload)
    assert all(s.duration > 0.5 for s in spans)


def test_span_stats_ratios_use_only_checked_ops():
    check = types.SimpleNamespace(clips_used=2, clips_analysed=4)
    spans = [Span(0, None, "corpus.load_corpus", 0.0, 1.0, amount=10.0)]
    spans += [Span(i, 0, "components.synthesize", 0.1 * i, 0.1 * i + 0.05)
              for i in range(1, 5)]
    failed_spans = [Span(0, None, "corpus.load_corpus", 0.0, 1.0, amount=10.0),
                    Span(1, 0, "components.synthesize", 0.1, 0.2)]
    st = SpanStats([{"spans": spans, "wall_s": 2.0, "check": check},
                    {"spans": failed_spans, "wall_s": 2.0, "check": None}])
    assert st.rendered_by_load == 4
    assert st.clips_used == 2
    assert st.calls["components.synthesize"] == 5
    assert st.rate("corpus.load_corpus") == 10.0
