"""Acceptance gate: one test per numbered criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; add ``-s`` for the measured numbers behind each verdict.
The two experiment suites (20-sample uniqueness, 50-sample bound) are
computed once per session and shared by the criteria that consume them.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from logmink.cli import main
from logmink.convex import (
    ball_offset_outer,
    cone_volume_measure,
    convex_hull_3d,
    enclosing_ellipsoid,
    hausdorff_distance,
    polytope_from_support,
    surface_area_measure,
    volume,
    volume_from_support,
)
from logmink.errors import ConvexityError
from logmink.experiments import ExperimentSpec, gen_density, run_experiment
from logmink.flow import FlowOptions, run_flow
from logmink.grid import HarmonicCoeffs, build_grid, lm_index, synthesize
from logmink.solver import (
    DensityFunction,
    SupportFunction,
    linearized_operator,
    newton_solve,
)

GRID = build_grid(16)


@pytest.fixture(scope="module")
def uniqueness_suite():
    spec = ExperimentSpec(kind="uniqueness", count=20, seed=42, eps=0.05, lam=2.0)
    return run_experiment(spec)


@pytest.fixture(scope="module")
def bound_suite():
    spec = ExperimentSpec(kind="bound", count=50, seed=7, eps=0.05, lam=2.0)
    return run_experiment(spec)


def cube_points(half=1.0):
    corners = np.array([[sx, sy, sz] for sx in (-1, 1)
                        for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
    return half * corners


def random_cloud(seed, n=40):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3))


def test_criterion_01_constant_densities():
    """Constant f in {1/8, 1, 8}: exact round solutions within 1e-8."""
    worst = 0.0
    for value in (0.125, 1.0, 8.0):
        f = DensityFunction.constant(value)
        radius = value ** (1.0 / 3.0)
        for start in (None, SupportFunction.constant(GRID, 1.3 * radius)):
            result = newton_solve(f, h0=start, grid=GRID)
            assert result.iterations <= 10
            err = float(np.max(np.abs(result.h.values - radius)))
            worst = max(worst, err)
            assert err <= 1e-8
    print(f"criterion 1: worst sup error {worst:.3e} (tolerance 1e-8)")


def test_criterion_02_translated_balls():
    """f = 1 + v.u for |v| in {0.05, 0.1, 0.3}: recover the shifted ball."""
    worst = 0.0
    for speed in (0.05, 0.1, 0.3):
        v = speed * np.array([0.0, 0.0, 1.0])
        f = DensityFunction.from_harmonics([(1, 0, speed)], grid=GRID)
        result = newton_solve(f, h0=SupportFunction.constant(GRID, 1.0))
        exact = 1.0 + GRID.nodes @ v
        err = float(np.max(np.abs(result.h.values - exact)))
        worst = max(worst, err)
        assert err <= 1e-7, f"|v| = {speed}: error {err:.3e}"
    print(f"criterion 2: worst sup error {worst:.3e} (tolerance 1e-7)")


def test_criterion_03_spectral_linearization():
    """At h = 1 the linearization multiplies Y_lm by 3 - l(l+1), l <= 8."""
    h = SupportFunction.constant(GRID, 1.0)
    worst = 0.0
    for l in range(9):
        for m in range(-l, l + 1):
            c = np.zeros(GRID.n_coeffs)
            c[lm_index(l, m)] = 1.0
            phi = synthesize(HarmonicCoeffs(16, c), GRID)
            out = linearized_operator(h, phi)
            factor = 3.0 - l * (l + 1)
            err = float(np.max(np.abs(out.values - factor * phi.values)))
            worst = max(worst, err)
            assert err <= 1e-8, f"(l, m) = ({l}, {m}): error {err:.3e}"
    print(f"criterion 3: worst eigenrelation error {worst:.3e} over 81 pairs")


def test_criterion_04_jacobian_consistency():
    """Central differences match the analytic linearization to 1e-5."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = np.zeros(GRID.n_coeffs)
        c[0] = np.sqrt(4.0 * np.pi)
        bump = 0.2 * rng.standard_normal(lm_index(4, 4))
        while True:
            trial = c.copy()
            trial[1:lm_index(4, 4) + 1] = bump
            try:
                h = SupportFunction(GRID, trial)
            except ConvexityError:
                h = None
            if h is not None and h.h_min() > 0.2 and h.min_eig_w.min() > 0.2:
                break
            bump *= 0.7
        d = rng.standard_normal(GRID.n_coeffs)
        d /= np.linalg.norm(d)
        t = 1e-6
        hp = SupportFunction(GRID, h.coeffs + t * d)
        hm = SupportFunction(GRID, h.coeffs - t * d)
        fd = (hp.values * hp.det_w - hm.values * hm.det_w) / (2.0 * t)
        phi = synthesize(HarmonicCoeffs(16, d), GRID)
        lin = linearized_operator(h, phi)
        err = float(np.max(np.abs(fd - lin.values)) / np.max(np.abs(lin.values)))
        worst = max(worst, err)
        assert err <= 1e-5, f"seed {seed}: relative error {err:.3e}"
    print(f"criterion 4: worst relative Jacobian error {worst:.3e} over 20 draws")


def test_criterion_05_uniqueness_suite(uniqueness_suite):
    """20 random densities, 5 starts each: one solution per density."""
    agg = uniqueness_suite.aggregates
    assert agg["n_samples"] == 20
    assert agg["n_failures"] == 0, \
        f"{agg['n_failures']} solver failures in the uniqueness suite"
    assert agg["max_pairwise"] <= 1e-6, \
        f"solutions from different starts differ by {agg['max_pairwise']:.3e}"
    print(f"criterion 5: max pairwise distance {agg['max_pairwise']:.3e}, "
          f"worst residual {agg['worst_residual']:.3e}, 0 failures")


def test_criterion_06_apriori_bound_suite(bound_suite):
    """50-sample bound suite: every solve lands, sup norms stay capped."""
    agg = bound_suite.aggregates
    assert agg["n_samples"] == 50
    assert agg["n_failures"] == 0, \
        f"{agg['n_failures']} solver failures in the bound suite"
    assert agg["c_lambda"] <= 10.0, \
        f"empirical sup-norm constant {agg['c_lambda']:.4g} exceeds 10"
    print(f"criterion 6: c_lambda = {agg['c_lambda']:.6g}, "
          f"min h = {agg['min_h']:.6g}, "
          f"ratio caps ({agg['max_ratio_32']:.4g}, {agg['max_ratio_21']:.4g})")


def test_criterion_07_cone_volume_exactness():
    """Polytope cone-volume measures: cube atoms exact, totals match volume."""
    cube = convex_hull_3d(cube_points())
    cvm = cone_volume_measure(cube)
    assert cvm.n_atoms == 6
    assert_allclose(cvm.weights, 4.0 / 3.0, atol=1e-12)
    assert abs(cvm.total() - 8.0) < 1e-12
    worst = 0.0
    for seed in range(100):
        P = convex_hull_3d(random_cloud(seed))
        if not P.contains_origin():
            P = P.translated(-P.centroid)
        vol = volume(P)
        gap = abs(cone_volume_measure(P).total() - vol) / vol
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"criterion 7: cube atoms exact, worst relative total gap {worst:.3e} "
          f"over 100 hulls")


def test_criterion_08_volume_identity(uniqueness_suite, bound_suite):
    """Every suite solution satisfies V(h) = (1/3) integral of f."""
    checked = 0
    worst = 0.0
    pairs = []
    for rec in uniqueness_suite.records:
        for _, result in rec["_solutions"]:
            pairs.append((result.h, rec["_f"]))
    for rec in bound_suite.records:
        pairs.append((rec["_h"], rec["_f"]))
    for h, f in pairs:
        target = 4.0 * np.pi * f.mean() / 3.0
        gap = abs(volume_from_support(h) - target) / target
        worst = max(worst, gap)
        checked += 1
        assert gap <= 1e-8
    assert checked == 20 * 5 + 50
    print(f"criterion 8: worst relative volume gap {worst:.3e} "
          f"over {checked} solutions")


def test_criterion_09_enclosing_ellipsoids():
    """Ellipsoid certificates: closed forms and the 100-hull sandwich."""
    E = enclosing_ellipsoid(convex_hull_3d(cube_points() * np.array([1.0, 2.0, 3.0])))
    assert_allclose(E.radii, np.sqrt(3.0) * np.array([1.0, 2.0, 3.0]), rtol=1e-5)
    ball = enclosing_ellipsoid(convex_hull_3d(np.vstack([np.eye(3), -np.eye(3)])))
    assert_allclose(ball.radii, 1.0, rtol=1e-5)
    worst = 0.0
    for seed in range(100):
        P = convex_hull_3d(random_cloud(seed, n=25))
        E = enclosing_ellipsoid(P)
        excess = float(np.max(E.mahalanobis(P.vertices))) - 1.0
        worst = max(worst, excess)
        assert excess <= 1e-5
        small = E.scaled(1.0 / 3.0)
        assert np.all(small.support(P.normals)
                      <= P.offsets + 1e-6)
    print(f"criterion 9: closed forms to 1e-5, worst vertex excess {worst:.3e}")


def test_criterion_10_flow_agreement(uniqueness_suite):
    """The flow limit matches Newton on all 20 densities; shrink law holds."""
    worst = 0.0
    for rec in uniqueness_suite.records:
        f = rec["_f"]
        reference = rec["_solutions"][0][1].h
        flowed = run_flow(f, grid=GRID)
        assert flowed.reason == "stationary"
        d = hausdorff_distance(flowed.h, reference)
        worst = max(worst, d)
        assert d <= 1e-6, f"sample {rec['sample']}: flow-Newton gap {d:.3e}"
    f = DensityFunction.constant(1.0)
    h0 = SupportFunction.constant(GRID, 2.0)
    opts = FlowOptions(dt_init=1e-4, dt_max=1e-4, renormalize=False,
                       t_final=1.0, residual_check=None)
    shrink = run_flow(f, h0=h0, opts=opts)
    r = float(np.mean(shrink.h.values))
    law_gap = abs(r ** 3 - 5.0)
    assert law_gap <= 1e-3, f"shrink law error {law_gap:.3e}"
    print(f"criterion 10: worst flow-Newton distance {worst:.3e}, "
          f"shrink law gap {law_gap:.3e}")


def test_criterion_11_weak_continuity():
    """Rounded-cube surface measures against the cube limit.

    Offsets r = 1/i, i in {2, 4, 8, 16, 32}, outer bodies from
    :func:`ball_offset_outer`; integrals of three test functions against
    the surface area measures must approach the cube values, with the
    final gap at most 1e-3.  The closed Steiner form S(r) = 24 + 12 pi r
    + 4 pi r^2 puts the i = 32 gap for g = 1 at 12 pi / 32 + 4 pi / 1024
    = 1.19, three orders above that tolerance, so the two test functions
    with nonzero curvature contribution fail by construction; the odd
    function integrates to zero for every body and passes.
    """
    cube = convex_hull_3d(cube_points())
    cube_S = surface_area_measure(cube)
    tests = {
        "g=1": lambda u: np.ones(u.shape[0]),
        "g=u.e3": lambda u: u[:, 2],
        "g=(u.e1)^2": lambda u: u[:, 0] ** 2,
    }
    limits = {name: cube_S.integrate(g) for name, g in tests.items()}
    gaps = {name: [] for name in tests}
    for i in (2, 4, 8, 16, 32):
        S = surface_area_measure(ball_offset_outer(cube, 1.0 / i))
        for name, g in tests.items():
            gaps[name].append(abs(S.integrate(g) - limits[name]))
    failures = []
    for name in tests:
        seq = gaps[name]
        print(f"criterion 11: {name} gaps " +
              ", ".join(f"{v:.6g}" for v in seq))
        decreasing = all(seq[k + 1] <= seq[k] + 1e-12 for k in range(len(seq) - 1))
        if not decreasing:
            failures.append(f"{name}: gaps not decreasing ({seq})")
        if seq[-1] > 1e-3:
            failures.append(f"{name}: final gap {seq[-1]:.6g} > 1e-3")
    assert not failures, "; ".join(failures)


def test_criterion_12_suite_determinism():
    """Re-running a suite from the same spec reproduces the report bytes."""
    spec = ExperimentSpec(kind="uniqueness", count=2, seed=0, eps=0.05, lam=2.0)
    first = run_experiment(spec).to_csv()
    second = run_experiment(spec).to_csv()
    assert first == second
    print(f"criterion 12: {len(first)} report bytes reproduced exactly")


# Every command at L <= 16, in dependency order (measure, john and diag
# read the solved body), then one run per error exit.
_RERUN_CORPUS = [
    ["solve", "--f", "random:3,0.05,2.0", "--write-obj", "--out", "solve"],
    ["flow", "--f", "harmonics:[(2,1,0.05)]", "--write-obj", "--snapshot-every", "100",
     "--out", "flow"],
    *[[command, "--obj", "solve/body.obj", "--out", command]
      for command in ("measure", "john", "diag")],
    *[["experiment", "--kind", kind, "--count", "2", "--out", kind]
      for kind in ("uniqueness", "bound", "diagnostics")],
    ["solve", "--f", "const:0", "--out", "zero"],
    ["measure", "--obj", "missing.obj", "--out", "missing"],
    ["solve", "--f", "harmonics:[(1,0,2.0)]", "--out", "negative"],
    ["solve", "--grid-L", "8", "--tol", "1e-8", "--f", "random:2,0.05,2.0", "--out", "floor"],
]


def test_criterion_12_every_command_reruns_byte_identically(tmp_path, monkeypatch, capsys):
    """The CLI corpus, run twice in fresh directories, writes the same bytes
    to every file, stdout and stderr, with the same exit codes."""
    runs = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.chdir(root)
        outcomes = []
        for argv in _RERUN_CORPUS:
            code = main(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        files = {str(path.relative_to(root)): path.read_bytes()
                 for path in sorted(root.rglob("*")) if path.is_file()}
        runs.append((outcomes, files))
    assert runs[0] == runs[1]
    outcomes, files = runs[0]
    assert [code for code, _, _ in outcomes] == [0] * 8 + [2, 1, 2, 1]
    assert "flow/body_000200.obj" in files
    print(f"criterion 12: {len(outcomes)} runs and {len(files)} files "
          f"({sum(map(len, files.values()))} bytes) reproduced exactly")
