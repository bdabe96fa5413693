"""Gauss curvature flow tests: step oracles, stationary limits, shrinking."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logmink.convex import hausdorff_distance
from logmink.errors import ConvergenceFailure, GridMismatch, InvalidParameter, StepFailure
from logmink.experiments import gen_density
from logmink.flow import FlowOptions, FlowResult, run_flow
from logmink.grid import HarmonicCoeffs, build_grid, lm_index
from logmink.solver import DensityFunction, SupportFunction, ma_residual, newton_solve


@pytest.fixture(scope="module")
def grid():
    return build_grid(16)


def translated_ball(grid, v):
    c = np.zeros(grid.n_coeffs)
    c[0] = np.sqrt(4.0 * np.pi)
    norm = np.sqrt(4.0 * np.pi / 3.0)
    c[lm_index(1, 1)] = v[0] * norm
    c[lm_index(1, -1)] = v[1] * norm
    c[lm_index(1, 0)] = v[2] * norm
    return SupportFunction(grid, c)


# ---------------------------------------------------------------------------
# single steps


def one_step(f, h, dt, renormalize=True):
    """The first accepted step of run_flow from h, taken with time step dt."""
    opts = FlowOptions(dt_init=dt, t_final=dt, renormalize=renormalize,
                       residual_check=None)
    result = run_flow(f, h0=h, opts=opts)
    assert result.steps == 1
    return result.h


def test_unit_sphere_is_stationary(grid):
    h = SupportFunction.constant(grid, 1.0)
    f = DensityFunction.constant(1.0)
    h1 = one_step(f, h, dt=1e-3)
    assert np.max(np.abs(h1.values - 1.0)) < 1e-13


def test_translated_ball_is_stationary(grid):
    v = np.array([0.03, -0.02, 0.08])
    h = translated_ball(grid, v)
    f = DensityFunction.from_harmonics(
        [(1, 1, v[0]), (1, -1, v[1]), (1, 0, v[2])], base=1.0, grid=grid)
    h1 = one_step(f, h, dt=1e-3)
    assert np.max(np.abs(h1.values - h.values)) < 1e-9


def test_unnormalized_shrink_speed(grid):
    # on the radius-2 sphere with f = 1 the unnormalized speed is
    # -f/det W = -1/4 pointwise
    h = SupportFunction.constant(grid, 2.0)
    f = DensityFunction.constant(1.0)
    dt = 1e-3
    h1 = one_step(f, h, dt, renormalize=False)
    rate = (h1.values - h.values) / dt
    assert np.max(np.abs(rate + 0.25)) < 1e-9


def test_flow_step_validation(grid):
    h = SupportFunction.constant(grid, 1.0)
    f = DensityFunction.constant(1.0)
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            one_step(f, h, dt=dt)


def test_run_flow_halving_gives_up(grid):
    # after the 40 allowed halvings a step from dt=1e20 is still about 9e7,
    # far too large to keep h positive
    h = SupportFunction.constant(grid, 1.0)
    f = DensityFunction.from_harmonics([(4, 0, 0.3)], base=1.0, grid=grid)
    opts = FlowOptions(dt_init=1e20, dt_max=1e20, renormalize=False,
                       residual_check=None)
    with pytest.raises(StepFailure):
        run_flow(f, h0=h, opts=opts)


# ---------------------------------------------------------------------------
# full runs


def test_flow_options_validation():
    with pytest.raises(InvalidParameter):
        FlowOptions(dt_init=0.0)
    with pytest.raises(InvalidParameter):
        FlowOptions(stationarity_tol=-1.0)
    with pytest.raises(InvalidParameter):
        FlowOptions(t_final=0.0)
    with pytest.raises(InvalidParameter):
        FlowOptions(residual_check=0.0)
    for name in ("dt_init", "stationarity_tol", "dt_max", "t_final",
                 "residual_check"):
        for value in (np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                FlowOptions(**{name: value})
    # None is the documented way to skip the final residual check
    FlowOptions(residual_check=None)


def test_run_flow_grid_mismatch(grid):
    h0 = SupportFunction.constant(build_grid(8), 1.0)
    with pytest.raises(GridMismatch):
        run_flow(DensityFunction.constant(1.0), h0=h0, grid=grid)


def test_flow_reaches_unit_sphere(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.5)
    result = run_flow(f, h0=h0, grid=grid)
    assert result.reason == "stationary"
    assert np.max(np.abs(result.h.values - 1.0)) < 1e-7
    res = ma_residual(result.h, f)
    assert np.max(np.abs(res.values)) < 1e-7


def test_flow_scales_to_constant_density(grid):
    result = run_flow(DensityFunction.constant(8.0), grid=grid)
    assert result.reason == "stationary"
    assert np.max(np.abs(result.h.values - 2.0)) < 1e-7


def test_flow_recovers_translated_ball(grid):
    v = np.array([0.0, 0.0, 0.1])
    f = DensityFunction.from_harmonics([(1, 0, 0.1)], base=1.0, grid=grid)
    result = run_flow(f, grid=grid)
    assert result.reason == "stationary"
    exact = 1.0 + grid.nodes @ v
    assert np.max(np.abs(result.h.values - exact)) < 1e-6


def test_flow_brings_an_elongated_start_to_rest(grid):
    # the (1, 1, 3) ellipsoid needs the slow dt ramp: growing dt after every
    # accepted step (or every second one) loses convexity for 40 halvings
    stretched = np.sqrt(np.sum((grid.nodes * np.array([1.0, 1.0, 3.0])) ** 2, axis=1))
    h0 = SupportFunction(grid, grid.analyze_values(stretched))
    result = run_flow(DensityFunction.constant(1.0), h0=h0, grid=grid)
    assert result.reason == "stationary"
    assert result.steps <= 600
    assert np.max(np.abs(result.h.values - 1.0)) < 1e-7


def test_run_flow_certifies_once_per_step(monkeypatch):
    # the volume rescale and the final c_est rescale derive their
    # certificates from the scaling law, so only the Euler candidates and
    # the default h0 are certified by construction
    grid = build_grid(8)
    f = DensityFunction.from_harmonics([(2, 0, 0.05)], base=1.0, grid=grid)
    certify = SupportFunction.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(None)
        certify(self, *args, **kwargs)

    monkeypatch.setattr(SupportFunction, "__init__", counting)
    result = run_flow(f, grid=grid)
    assert result.reason == "stationary"
    assert result.steps > 1
    assert len(calls) <= result.steps + 1


@pytest.fixture(scope="module")
def flow_and_newton_L32():
    grid32 = build_grid(32)
    f = gen_density(3, 0.05, 2.0, grid=grid32)
    return run_flow(f, grid=grid32), newton_solve(f, grid=grid32)


def test_flow_matches_newton_at_L32(flow_and_newton_L32):
    flowed, newton = flow_and_newton_L32
    assert flowed.reason == "stationary"
    assert hausdorff_distance(flowed.h, newton.h) <= 1e-6


def test_flow_step_count_is_bandwidth_free(grid, flow_and_newton_L32):
    # the semi-implicit step damps the stiff l(l+1) part of the speed, so
    # the default run needs a few hundred steps at any bandwidth, where an
    # explicit step capped at 1/(L(L+1)) needs thousands
    at_16 = run_flow(gen_density(3, 0.05, 2.0, grid=grid), grid=grid)
    for result in (at_16, flow_and_newton_L32[0]):
        assert result.reason == "stationary"
        assert result.steps <= 600


def test_flow_scale_equivariance(grid):
    # f -> s**3 f moves every stationary profile h to s h and leaves the
    # step control (lambda, kappa, the relative rate) unchanged
    s = 2.0
    f = gen_density(5, 0.05, 2.0, grid=grid)
    fs = DensityFunction(HarmonicCoeffs(f.coeffs.L, s ** 3 * f.coeffs.values),
                         s ** 3 * f.lam_lo, s ** 3 * f.lam_hi, grid=grid)
    base = run_flow(f, grid=grid)
    scaled = run_flow(fs, grid=grid)
    assert scaled.reason == base.reason == "stationary"
    assert scaled.steps == base.steps
    assert np.max(np.abs(scaled.h.values - s * base.h.values)) <= \
        1e-10 * s * base.h.h_sup()


def test_flow_preserves_volume(grid):
    # renormalized runs rescale every accepted step back to the initial
    # volume, so the trace volumes are constant to rounding
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.2)
    result = run_flow(f, h0=h0, grid=grid)
    vols = np.array([row[1] for row in result.rows])
    v0 = 4.0 * np.pi / 3.0 * 1.2 ** 3
    assert np.max(np.abs(vols - v0)) < 1e-6 * v0


def test_unnormalized_shrink_law(grid):
    # with f = 1 and no renormalization a sphere obeys d(r^3)/dt = -3,
    # so r(0) = 2 gives r(0.5)^3 = 6.5
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 2.0)
    opts = FlowOptions(dt_init=1e-3, dt_max=1e-3, renormalize=False,
                       t_final=0.5, residual_check=None)
    result = run_flow(f, h0=h0, opts=opts)
    assert result.reason == "time"
    assert abs(result.t_end - 0.5) < 1e-12
    r = float(np.mean(result.h.values))
    assert abs(r ** 3 - 6.5) < 1e-3


def test_time_limited_run_reports_time(grid):
    # a shrinking run never goes stationary, so the clock is what stops it
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 2.0)
    opts = FlowOptions(renormalize=False, t_final=0.01, residual_check=None)
    result = run_flow(f, h0=h0, opts=opts)
    assert result.reason == "time"
    assert result.c_est == 1.0  # gauge estimation is skipped on timed runs
    assert abs(result.t_end - 0.01) < 1e-12


def test_trace_schema(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.1)
    result = run_flow(f, h0=h0, opts=FlowOptions(t_final=0.005))
    text = result.trace_csv()
    lines = text.splitlines()
    assert lines[0] == "t,volume,residual_sup,min_h"
    assert len(lines) == len(result.rows) + 1
    cells = lines[1].split(",")
    assert len(cells) == 4
    for cell in cells:
        float(cell)
    # times increase strictly
    times = np.array([row[0] for row in result.rows])
    assert np.all(np.diff(times) > 0.0)


def test_snapshot_hook(grid):
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 2.0)
    opts = FlowOptions(renormalize=False, t_final=0.02, residual_check=None)
    seen = []
    run_flow(f, h0=h0, opts=opts,
             snapshot_every=5, snapshot_fn=lambda step, t, h: seen.append(step))
    assert seen
    assert all(step % 5 == 0 for step in seen)
    with pytest.raises(InvalidParameter):
        run_flow(f, h0=h0, opts=opts, snapshot_every=-2,
                 snapshot_fn=lambda step, t, h: None)


def test_flow_result_fields(grid):
    # spheres are exact fixed points of the renormalized flow, so a round
    # start is detected stationary immediately; the gauge constant records
    # the cubed radius and the rescale returns the unit solution
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(grid, 1.3)
    result = run_flow(f, h0=h0)
    assert isinstance(result, FlowResult)
    assert result.steps == len(result.rows) == 1
    assert result.t_end > 0.0
    assert abs(result.c_est - 1.3 ** 3) < 1e-9
    assert np.max(np.abs(result.h.values - 1.0)) < 1e-9


def test_final_residual_check_names_the_aliasing_floor(grid):
    # the stationary profile of this density misses the default check by 5%
    # (nodal residual 1.053e-7) while its projection onto degrees <= 16 is
    # 5.3e-9: the gap is aliasing, which only a larger bandwidth removes
    f = gen_density(0, 0.3, 2.0, grid=grid)
    with pytest.raises(ConvergenceFailure) as err:
        run_flow(f, grid=grid)
    message = str(err.value)
    assert "aliasing floor of bandwidth 16" in message
    assert "raise --grid-L" in message
    assert 1e-7 < err.value.residual < 2e-7

