"""Tests of the benchmark itself: failure accounting and the tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import contextlib
import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.fixture
def out():
    path = os.path.join(run.ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(path))


def test_exception_escaping_cli_main_is_a_failed_call(out):
    tally = run.Tally()
    _, failure = run.run_op([["solve", "--f", "const:abc", "--out", out]], tally)
    assert failure.startswith("ValueError escaped cli.main")
    _, failure = run.run_op([["solve", "--f", "const:1.0", "--out", out]], tally)
    assert failure is None
    assert (tally.attempted, tally.failed, tally.ok_ops) == (2, 1, 1)
    assert tally.end_to_end()["success_ratio"] == 0.5


def test_failed_output_check_is_a_failed_call(out):
    def check():
        raise ValueError("wrong output")

    tally = run.Tally()
    _, failure = run.run_op([["solve", "--f", "const:1.0", "--out", out]], tally, check)
    assert failure == "output check: ValueError: wrong output"
    assert (tally.attempted, tally.failed, tally.ok_ops) == (1, 1, 0)


def test_tracer_wraps_every_alias_and_uninstalls(out):
    import logmink.cli
    import logmink.experiments
    import logmink.solver

    original = logmink.solver.newton_solve
    tracer = Tracer()
    tracer.install()
    try:
        assert logmink.cli.newton_solve is logmink.experiments.newton_solve
        assert logmink.cli.newton_solve is not original
        tracer.active = True
        assert run.run_call(["solve", "--f", "random:3,0.05,2.0", "--out", out]) is None
        tracer.active = False
    finally:
        tracer.uninstall()
    assert logmink.cli.newton_solve is original
    assert logmink.experiments.newton_solve is original

    values = layer_metrics(tracer, 1)
    assert values["cli.calls"] == 1
    assert values["solver.newton_calls"] == 1
    assert values["solver.lu_s"] > 0 and values["solver.cond_s"] > 0
    assert 0 < values["solver.newton_self_s"] < values["solver.newton_s"]
    for idx in range(len(tracer)):
        assert tracer.self_time(idx) <= tracer.duration(idx)


def test_guard_reports_an_entry_point_that_recorded_nothing(out):
    import logmink.cli

    tracer = Tracer()
    tracer.install()
    try:
        # a re-import rebinds the alias to the unwrapped function
        logmink.cli.newton_solve = logmink.cli.newton_solve.__wrapped__
        tracer.active = True
        assert run.run_call(["solve", "--f", "random:3,0.05,2.0", "--out", out]) is None
        tracer.active = False
    finally:
        tracer.uninstall()
    missing = run.unreached(WORKLOADS["newton_L48"], layer_metrics(tracer, 1))
    assert "solver.newton_calls" in missing
    assert "cli.calls" not in missing


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in LAYER_METRICS]
