"""Benchmark of the logmink command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload newton_L48 --seed 1 --seconds 20 --trace 0

A run is one fresh process and a closed loop with one client: after set-up it
calls ``logmink.cli.main(argv)`` in process, op after op, until ``--seconds``
have passed, and checks each op's outputs outside the timed region.  The
program is imported from ``src/`` of the checkout and sees only the generated
argv.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count ``cli.main`` calls.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from spawn until the
  workload's grid operators are built (import, ``build_grid(L)``, one transform);
* ``op_p50_s``: median wall time of one op; a failed op counts at its time to
  failure;
* ``ops_per_s``: successful ops divided by the time spent in ops;
* ``peak_rss_mb``: ``ru_maxrss`` of the run process;
* ``success_ratio``: calls that exited 0, raised nothing and passed their
  output check, divided by calls attempted.

``--trace 1`` wraps the layers' entry points (see ``tracing.py``), runs the same
ops traced, then replays the first few untraced to report the tracing overhead,
and reports the per-layer metrics.  It fails when an entry point that the
workload must reach recorded nothing.

``all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import SEED_STRIDE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
# One BLAS thread: on a shared 2-CPU machine this halves the run-to-run
# spread of the L=48 solve against two threads.
BLAS_THREADS = 1
SETUP_SAMPLES = 5
OVERHEAD_REPLAYS = 3
OVERHEAD_SECONDS = 2.0
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB", "success_ratio": "ratio"}


@dataclass
class Tally:
    """Calls and ops of one run."""

    attempted: int = 0
    failed: int = 0
    ok_ops: int = 0
    op_times: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def end_to_end(self) -> dict[str, float]:
        return {
            "op_p50_s": statistics.median(self.op_times),
            "ops_per_s": self.ok_ops / sum(self.op_times),
            "success_ratio": (self.attempted - self.failed) / self.attempted,
        }


def run_call(argv: list) -> str | None:
    """One ``logmink.cli.main`` call; returns None on success, else the reason."""
    from logmink import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return f"{type(exc).__name__} escaped cli.main: {exc}"
    if code != 0:
        return f"exit {code}: {err.getvalue().strip()}"
    return None


def run_op(argvs: list, tally: Tally, check=None) -> tuple[float, str | None]:
    """Run one op's calls in order and record them in ``tally``.

    The op stops at its first failed call.  ``check()`` runs after the timed
    region and raises when the outputs are wrong.  Returns the op's wall time
    and the reason it failed, or None.
    """
    failure = None
    t0 = time.perf_counter()
    for argv in argvs:
        tally.attempted += 1
        failure = run_call(argv)
        if failure is not None:
            break
    elapsed = time.perf_counter() - t0
    if failure is None and check is not None:
        try:
            check()
        except Exception as exc:  # any error reading the outputs means they are wrong
            failure = f"output check: {type(exc).__name__}: {exc}"
    if failure is None:
        tally.ok_ops += 1
    else:
        tally.failed += 1
        tally.errors.append(failure)
    tally.op_times.append(elapsed)
    return elapsed, failure


def unreached(workload, values: dict) -> list[str]:
    """The workload's required per-layer metrics that recorded nothing."""
    return [m for m in workload.required if not values[m] > 0]


def _sha256(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return "missing"


def _fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_info() -> tuple[str, int | None]:
    """BLAS library name and the thread count it reports, if it can tell."""
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line}
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    return name, threads


def _setup_sample(L: int) -> float:
    """Seconds from spawning a fresh interpreter until its grid is built."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), SRC, str(L)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    setup_samples = [] if trace else [_setup_sample(workload.L)
                                      for _ in range(SETUP_SAMPLES)]

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import logmink
    import logmink.cli  # noqa: F401  (the entry point the ops call)
    if not os.path.abspath(logmink.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"logmink imported from {logmink.__file__}, not {SRC}")
    import_s = time.perf_counter() - t0
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t1 = time.perf_counter()
    grid = logmink.build_grid(workload.L)
    grid.analyze_values(np.ones(grid.n_nodes))
    build_s = time.perf_counter() - t1
    build_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024

    blas, blas_threads = _blas_info()
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": _git_commit(), "nproc": os.cpu_count(), "blas": blas,
        "blas_threads_set": BLAS_THREADS, "blas_threads": blas_threads,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "logmink": logmink.__version__,
    }
    print("env " + json.dumps(env), flush=True)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    tally = Tally()
    seeds = []
    start = time.perf_counter()
    try:
        while not seeds or time.perf_counter() - start < seconds:
            i = len(seeds)
            op_seed = seed * SEED_STRIDE + i
            seeds.append(op_seed)
            _fresh_dir(work)

            def check():
                if tracer is not None:
                    tracer.active = False
                workload.check(op_seed, work, grid)

            if tracer is not None:
                tracer.op_id, tracer.active = i, True
            try:
                elapsed, failure = run_op(workload.argvs(op_seed, work), tally, check)
            finally:
                if tracer is not None:
                    tracer.active = False
            digests = " ".join(f"{a}={_sha256(os.path.join(work, a))}"
                               for a in workload.artefacts)
            status = "ok" if failure is None else f"FAILED ({failure})"
            print(f"op {i} seed {op_seed} {elapsed:.4f} s {status} sha256 {digests}",
                  flush=True)

        # Replay traced ops untraced: at least OVERHEAD_REPLAYS of them and at
        # least OVERHEAD_SECONDS, skipping op 0, which also pays first-call
        # costs, when there are others.
        replayed = []
        replays = Tally()
        if tracer is not None:
            tracer.uninstall()
            replay_start = time.perf_counter()
            for i in range(1, len(seeds)) if len(seeds) > 1 else [0]:
                if (len(replayed) >= OVERHEAD_REPLAYS
                        and time.perf_counter() - replay_start >= OVERHEAD_SECONDS):
                    break
                _fresh_dir(work)
                run_op(workload.argvs(seeds[i], work), replays)
                replayed.append(i)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    if tracer is not None:
        from tracing import LAYER_METRICS, layer_metrics
        values = layer_metrics(tracer, len(seeds))
        values["grid.build_s"] = build_s
        values["grid.build_rss_mb"] = build_rss_mb
        untraced = replays.op_times
        values["trace.overhead_s"] = statistics.median(
            tally.op_times[i] - plain for i, plain in zip(replayed, untraced))
        values["trace.overhead_ratio"] = (values["trace.overhead_s"]
                                          / statistics.median(untraced))
        print(f"import {import_s:.4f} s; traced ops {len(seeds)}; spans {len(tracer)}")
        for metric, unit, _, moves, on in LAYER_METRICS:
            print(f"  {metric:28s} {values[metric]:14.6g} {unit:9s} moves {moves} on {on}")
        metrics = {m: {"value": values[m], "unit": unit}
                   for m, unit, _, _, _ in LAYER_METRICS}
        missing = unreached(workload, values)
        if missing:
            print(f"error: traced run of {name} recorded nothing for {missing}; "
                  "an entry point was renamed or re-imported", file=sys.stderr)
            return 3
    else:
        values = tally.end_to_end()
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"import {import_s:.4f} s; grid build {build_s:.4f} s; "
              f"setup samples {[round(s, 4) for s in setup_samples]}")
        for metric, unit in END_TO_END.items():
            print(f"  {metric:14s} {values[metric]:12.6g} {unit}")
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    for error in tally.errors:
        print(f"failure: {error}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "logmink", "__init__.py")):
        print(f"error: no logmink package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # fix the BLAS thread count before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
