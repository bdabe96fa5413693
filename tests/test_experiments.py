"""Experiment suite tests: density generation, runners, reporting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logmink import experiments
from logmink.errors import ConvergenceFailure, InvalidParameter
from logmink.experiments import (
    ExperimentReport,
    ExperimentSpec,
    gen_density,
    run_experiment,
    solve_with_inits,
)
from logmink.grid import build_grid, lm_index
from logmink.solver import ma_residual


@pytest.fixture(scope="module")
def grid():
    return build_grid(16)


# ---------------------------------------------------------------------------
# density generation


def test_gen_density_exact_sup(grid):
    for seed in range(5):
        f = gen_density(seed, eps=0.05, lam=2.0, grid=grid)
        dev = np.max(np.abs(f.values_on(grid) - 1.0))
        assert abs(dev - 0.05) < 1e-12
        assert f.lam_lo == 0.5 and f.lam_hi == 2.0


def test_gen_density_deterministic(grid):
    a = gen_density(42, eps=0.05, lam=2.0, grid=grid)
    b = gen_density(42, eps=0.05, lam=2.0, grid=grid)
    assert np.array_equal(a.coeffs.values, b.coeffs.values)
    c = gen_density(43, eps=0.05, lam=2.0, grid=grid)
    assert not np.array_equal(a.coeffs.values, c.coeffs.values)


def test_gen_density_draws_one_normal_per_low_degree_harmonic(grid):
    # reference: one scalar draw per (l, m) in order, l = 1..4, m = -l..l;
    # the vectorised draw must give the same coefficients bit for bit
    rng = np.random.default_rng(42)
    shape = np.zeros(grid.n_coeffs)
    for l in range(1, 5):
        for m in range(-l, l + 1):
            shape[lm_index(l, m)] = rng.standard_normal()
    sup = float(np.max(np.abs(grid.synthesize_coeffs(shape))))
    f = gen_density(42, eps=0.05, lam=2.0, grid=grid)
    assert np.array_equal(f.coeffs.values[1:], (0.05 / sup) * shape[1:])


def test_gen_density_zero_eps(grid):
    f = gen_density(0, eps=0.0, lam=2.0, grid=grid)
    assert_allclose(f.values_on(grid), 1.0, atol=1e-14)


def test_gen_density_shrinks_to_fit_bounds(grid):
    # eps = 1.5 cannot sit inside (0.5, 2), so the amplitude backs off by
    # factors of 0.8 until the band fits
    f = gen_density(3, eps=1.5, lam=2.0, grid=grid)
    dev = np.max(np.abs(f.values_on(grid) - 1.0))
    assert 0.3 < dev < 0.5


def test_gen_density_validation(grid):
    with pytest.raises(InvalidParameter):
        gen_density(0, eps=-0.1, lam=2.0, grid=grid)
    with pytest.raises(InvalidParameter):
        gen_density(0, eps=0.05, lam=1.0, grid=grid)
    with pytest.raises(InvalidParameter):
        gen_density(-1, eps=0.05, lam=2.0, grid=grid)


# ---------------------------------------------------------------------------
# spec plumbing


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="nope")
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", count=0)
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", eps=-1.0)
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", lam=1.0)
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", L="16")
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", inits=())
    with pytest.raises(InvalidParameter):
        ExperimentSpec(kind="bound", seed=-1)
    for bad in ("const:abc", "const:0", "const:-2.0", "const:inf", "const:nan",
                "const", "newton"):
        with pytest.raises(InvalidParameter):
            ExperimentSpec(kind="uniqueness", inits=("const:1.0", bad))


def test_spec_seeds_and_description():
    spec = ExperimentSpec(kind="uniqueness", count=3, seed=7)
    assert spec.sample_seed(0) == 7 * 100003
    assert spec.sample_seed(2) == 7 * 100003 + 2
    text = spec.describe()
    assert text.startswith("kind=uniqueness count=3 seed=7 ")
    assert "inits=const:0.7|const:1.0|const:1.4|perturb|flow" in text


# ---------------------------------------------------------------------------
# solving from several starts


def test_all_inits_recover_translated_ball(grid):
    from logmink.solver import DensityFunction

    f = DensityFunction.from_harmonics([(1, 0, 0.1)], base=1.0, grid=grid)
    inits = ExperimentSpec(kind="uniqueness", count=1).inits
    solutions, failures = solve_with_inits(f, inits, grid)
    assert failures == []
    assert len(solutions) == len(inits) == 5
    exact = 1.0 + 0.1 * grid.nodes[:, 2]
    for strategy, result in solutions:
        err = np.max(np.abs(result.h.values - exact))
        assert err < 1e-6, f"strategy {strategy} missed by {err:g}"


def test_bad_init_strategy_reported(grid):
    from logmink.solver import DensityFunction

    f = DensityFunction.constant(1.0)
    solutions, failures = solve_with_inits(f, ("const:1.0", "const:-2.0"), grid)
    assert len(solutions) == 1
    assert len(failures) == 1
    assert failures[0][0] == "const:-2.0"


# ---------------------------------------------------------------------------
# suite runs (small counts to stay quick)


def test_uniqueness_small_run(grid):
    spec = ExperimentSpec(kind="uniqueness", count=2, seed=1,
                          inits=("const:0.7", "const:1.4", "perturb"))
    report = run_experiment(spec)
    assert report.aggregates["n_samples"] == 2
    assert report.aggregates["n_failures"] == 0
    assert report.aggregates["max_pairwise"] <= 1e-6
    assert report.aggregates["worst_residual"] <= 1e-10
    for rec in report.records:
        assert rec["n_solved"] == 3
        # stored solutions really solve their stored density
        strategy, result = rec["_solutions"][0]
        res = ma_residual(result.h, rec["_f"])
        assert np.max(np.abs(res.values)) <= 1e-10


def test_bound_small_run(grid):
    spec = ExperimentSpec(kind="bound", count=2, seed=2)
    report = run_experiment(spec)
    agg = report.aggregates
    assert agg["n_failures"] == 0
    # eps = 0.05 solutions stay within a few percent of the unit sphere
    assert 1.0 < agg["c_lambda"] < 1.2
    assert 0.8 < agg["min_h"] < 1.0
    assert 1.0 <= agg["max_ratio_32"] < 1.5
    assert 1.0 <= agg["max_ratio_21"] < 1.5


def test_diagnostics_run_and_cap(grid, monkeypatch):
    spec = ExperimentSpec(kind="diagnostics", count=1, seed=4)
    report = run_experiment(spec)
    rec = report.records[0]
    assert abs(rec["ratio_32"] - 1.0) < 0.2
    assert abs(rec["ratio_21"] - 1.0) < 0.2
    # an impossible cap (below 1) must trip the failure path
    monkeypatch.setattr(experiments, "DIAGNOSTIC_RATIO_CAP", 0.5)
    with pytest.raises(ConvergenceFailure):
        run_experiment(spec)


def test_failed_samples_write_their_rows(grid):
    # the default tolerance 1e-10 lies below the aliasing floor of bandwidth
    # 16 for these bound densities, so every solve fails, and an eps that no
    # density inside (1/lam, lam) meets fails gen_density; each failed sample
    # still writes its report.csv row, and a rerun writes the same bytes
    cases = [
        (ExperimentSpec("bound", count=3, eps=0.6, lam=4.0, L=16),
         ("solve", "ConvergenceFailure: backtracking failed"),
         [f"{i},{i},0.0,0.0,0,0.0,0.0,0.0,0.0,0.0" for i in range(3)]),
        (ExperimentSpec("uniqueness", count=1, eps=1e6, lam=1.0001),
         ("gen_density", "could not fit density"), ["0,0,0,5,0.0,0.0,0"]),
    ]
    for spec, (stage, message), rows in cases:
        report = run_experiment(spec)
        text = report.to_csv()
        assert [line for line in text.splitlines()[2:] if not line.startswith("#")] == rows
        for rec in report.records:
            assert [(s, m[:len(message)]) for s, m in rec["_failures"]] == [(stage, message)]
        assert report.aggregates["n_failures"] == len(rows)
        assert run_experiment(spec).to_csv() == text


def test_run_experiment_dispatch(grid):
    report = run_experiment(ExperimentSpec(kind="bound", count=1, seed=5))
    assert report.spec.kind == "bound"
    assert len(report.records) == 1


# ---------------------------------------------------------------------------
# reporting


def test_report_csv_schema(grid):
    spec = ExperimentSpec(kind="bound", count=2, seed=3)
    report = run_experiment(spec)
    lines = report.to_csv().splitlines()
    assert lines[0] == f"# spec: {spec.describe()}"
    assert lines[1] == ",".join(report.columns)
    body = [l for l in lines[2:] if not l.startswith("#")]
    tail = [l for l in lines[2:] if l.startswith("#")]
    assert len(body) == 2
    for row in body:
        cells = row.split(",")
        assert len(cells) == len(report.columns)
        for cell in cells[2:]:
            float(cell)
    assert all(t.startswith("# aggregate ") for t in tail)
    keys = [t.split()[2].split("=")[0] for t in tail]
    assert keys == sorted(keys)


def test_report_aggregates_consistent(grid):
    spec = ExperimentSpec(kind="bound", count=2, seed=3)
    report = run_experiment(spec)
    recs = report.records
    assert not any(r["_failures"] for r in recs)
    assert report.aggregates == {
        "n_samples": 2,
        "n_failures": 0,
        "c_lambda": max(r["h_sup"] for r in recs),
        "min_h": min(r["h_min"] for r in recs),
        "max_ratio_32": max(r["ratio_32"] for r in recs),
        "max_ratio_21": max(r["ratio_21"] for r in recs),
    }
    # a failed sample is counted and left out of the suite's extremes
    failed = {**recs[0], "h_sup": 99.0, "_failures": [("solve", "ConvergenceFailure")]}
    again = ExperimentReport(spec, [failed, recs[1]])
    assert again.aggregates["n_samples"] == 2
    assert again.aggregates["n_failures"] == 1
    assert again.aggregates["c_lambda"] == recs[1]["h_sup"]


def test_report_deterministic(grid):
    spec = ExperimentSpec(kind="bound", count=2, seed=3)
    a = run_experiment(spec).to_csv()
    b = run_experiment(spec).to_csv()
    assert a == b
