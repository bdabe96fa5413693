"""The benchmark's trace contract, checked on every test run.

``perfbench/run.py --trace 1`` wraps logmink's layer entry points and fails
when a workload's required per-layer metric records nothing, as happens when
a refactor renames or bypasses a traced entry point.  This runs one op of each
workload under the same tracer, so the suite catches that too.  It only reads
``perfbench/``.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_op_reaches_every_required_entry_point(name, tmp_path):
    import logmink.cli  # noqa: F401  (the tracer wraps the imported modules)
    from logmink import build_grid

    workload = WORKLOADS[name]
    out = str(tmp_path)
    seed = SEED_STRIDE  # the first op of a run with --seed 1
    tally = run.Tally()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, failure = run.run_op(workload.argvs(seed, out), tally)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert failure is None
    workload.check(seed, out, build_grid(workload.L))
    assert run.unreached(workload, layer_metrics(tracer, 1)) == []
