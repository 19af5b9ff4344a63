import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemsub import geometry
from riemsub.expr import Const, DomainError, Mul, parse
from riemsub.geometry import (
    DomainExitError,
    ExclusionTube,
    GeometryError,
    ManifoldSpec,
    SingularMetricError,
    VectorField,
    box_domain,
    christoffel,
    covariant_derivative,
    geodesic_integrate,
    gradient,
    koszul,
    sample_points,
)
from riemsub.presets import conformal_r2, euclidean_manifold
from riemsub.scenario import load_scenario, resolve_scenario_path
from riemsub.state import SampleState

from conftest import build_scenario_ii, build_warped_map


@pytest.fixture(scope="module")
def r4():
    return euclidean_manifold(4)


@pytest.fixture(scope="module")
def conformal():
    return conformal_r2()


def _fd_christoffel(M, p, h=1e-6):
    """Independent finite-difference assembly of the same formula."""
    m = M.dim
    dg = np.zeros((m, m, m))
    for l in range(m):
        plus, minus = np.array(p, dtype=float), np.array(p, dtype=float)
        plus[l] += h
        minus[l] -= h
        dg[l] = (M.metric_at(plus) - M.metric_at(minus)) / (2.0 * h)
    ginv = np.linalg.inv(M.metric_at(p))
    gam = np.zeros((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                gam[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(m)
                )
    return gam


def _metric(entries) -> ManifoldSpec:
    """The metric given by expression strings on the box [-1, 1]^dim."""
    dim = len(entries)
    return ManifoldSpec(dim, [[parse(e, dim) for e in row] for row in entries], box_domain(dim, -1.0, 1.0))


def _diagonal_metric(diagonal, off="0") -> ManifoldSpec:
    dim = len(diagonal)
    return _metric([[diagonal[i] if i == j else off for j in range(dim)] for i in range(dim)])


def _off_diagonal_metric() -> ManifoldSpec:
    return _metric([["1", "0.5 * x1"], ["0.5 * x1", "1"]])


def _h2xh2():
    return load_scenario(resolve_scenario_path("h2xh2")).scenario


# Every curved metric in the package, a diagonal one with negative entries
# and one with off-diagonal entries; each with whether it is diagonal.
_CURVED = {
    "warped": (lambda: build_warped_map().source, True),
    "h2xh2-source": (lambda: _h2xh2().M, True),
    "h2xh2-target": (lambda: _h2xh2().F.target, True),
    "conformal-r2": (conformal_r2, True),
    "negative-diagonal": (lambda: _diagonal_metric(["-exp(x1 * x2)", "1 + x3^2", "-(2 + sin(x1))"]), True),
    "off-diagonal": (_off_diagonal_metric, False),
}


def _reference_christoffel(M, p):
    """The array formula: LAPACK's invertibility test and inverse of the
    metric, contracted with B assembled from the metric derivatives."""
    g = M.metric_at(p)
    geometry._check_invertible(g, p)
    ginv = np.linalg.inv(g)
    D = M.metric_derivs_at(p)
    B = D + D.swapaxes(-3, -2) - D.swapaxes(-3, -2).swapaxes(-2, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, B)


def _outcome(fn, *args):
    """The bytes ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_CURVED))
def test_christoffel_matches_the_array_formula_bit_for_bit(name):
    build, diagonal = _CURVED[name]
    M = build()
    assert M.is_diagonal is diagonal and not M.is_flat_constant
    pts = sample_points(M.domain, 40, seed=17)
    assert christoffel(M, pts).tobytes() == _reference_christoffel(M, pts).tobytes()
    for p in pts:
        assert christoffel(M, p).tobytes() == _reference_christoffel(M, p).tobytes()


def test_off_diagonal_christoffel_matches_fd():
    M = _off_diagonal_metric()
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        assert abs(christoffel(M, p) - _fd_christoffel(M, p)).max() < 1e-7


def test_off_diagonal_singular_metric_raises():
    M = _metric([["1", "x1"], ["x1", "1"]])
    with pytest.raises(SingularMetricError, match=r"singular at \[1.0, 0.5\]"):
        christoffel(M, (1.0, 0.5))


# x1 at or below RANK_RTOL times the largest diagonal entry, 1.
@pytest.mark.parametrize("x1", [1e-8, 0.5e-8, -1e-8, 0.0, -0.0, 1e-300])
def test_diagonal_singular_test_matches_the_svd(x1, monkeypatch):
    diagonal = ["1 + x2^2", "x1", "1"]
    M = _diagonal_metric(diagonal)
    twin = _diagonal_metric(diagonal, off="x3 - x3")  # zero, but not structurally
    assert M.is_diagonal and not twin.is_diagonal
    p = (x1, 0.0, 0.3)
    stack = [(0.5, 0.1, 0.2), p, (0.0, 0.2, 0.1)]
    for point in (p, stack):
        with pytest.raises(SingularMetricError) as diag:
            christoffel(M, point)
        with pytest.raises(SingularMetricError) as general:
            christoffel(twin, point)
        assert str(diag.value) == str(general.value) == f"metric is singular at {list(p)}"
        with pytest.raises(SingularMetricError) as inverse:
            M.inverse_metric_at(point)
        assert str(inverse.value) == str(diag.value)
        with pytest.raises(SingularMetricError) as rate:
            geometry._rate(M, np.concatenate([point, np.ones(np.shape(point))], axis=-1))
        assert str(rate.value) == str(diag.value)
        # The RK4 loop stops at its first stage and raises the same error.
        with pytest.raises(SingularMetricError) as loop:
            geodesic_integrate(M, point, np.ones(np.shape(point)), 0.01, 0.01)
        assert str(loop.value) == str(diag.value)
    above = (np.nextafter(1e-8, 1.0), 0.0, 0.3)
    assert christoffel(M, above).tobytes() == _reference_christoffel(M, above).tobytes()
    # The loop's own diagonal test passes it: it steps without christoffel
    # (along x3 the acceleration is zero, so every stage is at x1 = above).
    monkeypatch.setattr(geometry, "christoffel", None)
    assert len(geodesic_integrate(M, above, (0.0, 0.0, 1.0), 0.01, 0.01)) == 2


@pytest.mark.parametrize(
    "diagonal, x1",
    [
        (["1", "1e308 * (1 + x1)", "1"], 1.0),  # inf
        (["1", "-1e308 * (1 + x1)", "2"], 1.0),  # -inf
        (["1", "1e308 * 10 * x1 - 1e308 * 10 * x1 + 1", "1"], 0.5),  # NaN
        (["1", "sqrt(x1)", "1"], 0.0),  # singular where a derivative divides by zero
        (["1", "1 + sqrt(x1)", "1"], 0.0),  # a derivative divides by zero
        (["1", "ln(x1)", "1"], 0.0),  # the metric cannot be evaluated
    ],
)
def test_diagonal_metric_fails_as_the_array_formula(diagonal, x1):
    M = _diagonal_metric(diagonal)
    twin = _diagonal_metric(diagonal, off="x3 - x3")  # zero, but not structurally
    p = (x1, 0.2, 0.3)
    for point in (p, [(0.5, 0.2, 0.3), p]):
        expected = _outcome(_reference_christoffel, M, point)
        assert _outcome(christoffel, M, point) == expected
        # The general path fails the same way; on the inf, -inf and NaN
        # rows because a metric value that is not finite is singular on both.
        assert _outcome(christoffel, twin, point) == expected


def test_euclidean_christoffel_vanishes(r4):
    gam = christoffel(r4, (0.3, -1.2, 0.5, 2.0))
    assert abs(gam).max() == 0.0


def test_conformal_christoffel_values(conformal):
    gam = christoffel(conformal, (0.4, -0.7))
    assert gam[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert gam[0, 1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert gam[1, 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_conformal_christoffel_matches_fd(conformal):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        gam = christoffel(conformal, p)
        assert abs(gam - _fd_christoffel(conformal, p)).max() < 1e-7


def test_christoffel_symmetry(conformal):
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, size=2)
        gam = christoffel(conformal, p)
        assert abs(gam - gam.transpose(0, 2, 1)).max() < 1e-12


def test_degenerate_metric_raises():
    zero = [[parse("0", 2) for _ in range(2)] for _ in range(2)]
    M = ManifoldSpec(2, zero, box_domain(2, -1.0, 1.0))
    with pytest.raises(SingularMetricError):
        christoffel(M, (0.1, 0.2))


def test_koszul_flat_constant_fields(r4):
    e1 = VectorField.coordinate(1, 4)
    assert koszul(r4, e1, e1, e1, (0.0, 1.0, 2.0, 3.0)) == 0.0


def test_koszul_cross_oracle(conformal):
    rng = np.random.default_rng(42)
    strings = ["x1 * x2", "sin(x1)", "x2^2 - x1", "exp(x2)", "cos(x2) + x1"]
    fields = [
        VectorField.from_strings([strings[i], strings[(i + 2) % 5]], 2)
        for i in range(4)
    ]
    for _ in range(100):
        p = rng.uniform(-1.0, 1.0, size=2)
        X, Y, Z = (fields[rng.integers(len(fields))] for _ in range(3))
        g = conformal.metric_at(p)
        lhs = koszul(conformal, X, Y, Z, p)
        rhs = 2.0 * float(covariant_derivative(conformal, X, Y, p) @ g @ Z.at(p))
        assert abs(lhs - rhs) < 1e-8


def test_covariant_derivative_constant_field_flat(r4):
    X = VectorField.from_strings(["x2", "-x1", "0", "x3"], 4)
    Y = VectorField.constant([1.0, 2.0, 3.0, 4.0])
    assert abs(covariant_derivative(r4, X, Y, (0.5, 0.6, 0.7, 0.8))).max() == 0.0


def test_covariant_derivative_fiber_field(r4):
    X1 = VectorField.from_strings(
        ["x2 / sqrt(x1^2 + x2^2)", "-x1 / sqrt(x1^2 + x2^2)", "0", "0"], 4
    )
    out = covariant_derivative(r4, X1, X1, (1.0, 1.0, 0.0, 0.0))
    assert out == pytest.approx([-0.5, -0.5, 0.0, 0.0], abs=1e-12)


def test_covariant_derivative_tensorial_in_direction(conformal):
    X = VectorField.from_strings(["x2", "x1"], 2)
    Y = VectorField.from_strings(["sin(x1)", "x2^2"], 2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        a = rng.uniform(-2.0, 2.0)
        scaled = VectorField(tuple(Mul(c, Const(a)) for c in X.components))
        lhs = covariant_derivative(conformal, scaled, Y, p)
        rhs = a * covariant_derivative(conformal, X, Y, p)
        assert abs(lhs - rhs).max() < 1e-12


def test_gradient_constant_zero(r4):
    f = parse("5", 4)
    assert abs(gradient(r4, f, (1.0, 2.0, 3.0, 4.0))).max() == 0.0


def test_gradient_log_radius(r4):
    f = parse("ln(sqrt(x1^2 + x2^2))", 4)
    assert gradient(r4, f, (1.0, 1.0, 0.0, 0.0)) == pytest.approx(
        [0.5, 0.5, 0.0, 0.0], abs=1e-12
    )


def test_gradient_coordinate_function(r4):
    f = parse("x3", 4)
    assert gradient(r4, f, (0.1, 0.2, 0.3, 0.4)) == pytest.approx(
        [0.0, 0.0, 1.0, 0.0], abs=1e-15
    )


def test_gradient_duality(conformal):
    f = parse("sin(x1) * x2", 2)
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = rng.uniform(-1.0, 1.0, size=2)
        g = conformal.metric_at(p)
        grad = gradient(conformal, f, p)
        for i in range(2):
            e = np.eye(2)[i]
            df = f.diff(i + 1).eval(p)
            assert abs(float(grad @ g @ e) - df) < 1e-9


def test_flat_geodesics_are_straight_lines(r4):
    p0 = np.array([0.1, -0.2, 0.3, 0.0])
    v0 = np.array([0.4, 0.3, -0.2, 0.1])
    traj = geodesic_integrate(r4, p0, v0, length=1.0, step=1e-3)
    expected = p0[None, :] + traj.s[:, None] * v0[None, :]
    assert abs(traj.points - expected).max() < 1e-10
    assert traj.energy_drift < 1e-12


def test_conformal_energy_drift(conformal):
    traj = geodesic_integrate(conformal, (0.0, 0.0), (0.6, 0.4), length=1.0, step=1e-3)
    assert traj.energy_drift < 1e-8
    assert np.allclose(np.diff(traj.s), 1e-3)


def test_step_must_be_positive(r4):
    with pytest.raises(ValueError):
        geodesic_integrate(r4, (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0, 0.0)


def test_domain_exit_reports_partial_trajectory(r4):
    with pytest.raises(DomainExitError) as err:
        geodesic_integrate(r4, (1.5, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 2.0, 1e-2)
    assert err.value.s <= 2.0
    assert len(err.value.trajectory) > 10


def _acceleration(M):
    """What the integrator takes as the acceleration at one point: the
    accel entries of the compiled rate array on a curved diagonal metric,
    the Christoffel contraction on any other."""
    if M._geodesic_rate is None:
        return lambda x, v: -np.einsum("kij,i,j->k", christoffel(M, x), v, v)
    return lambda x, v: M._geodesic_rate.eval(np.concatenate([x, v]))[M.dim :]


def _reference_rk4(M, p0, v0, n_steps, step, acceleration):
    """Classical RK4 as separate point and velocity stage chains, sample by
    sample, with ``acceleration(x, v)``: the points, the velocities and, on
    leaving the domain, the exit point and arc parameter (else None, None)."""
    x, v = np.asarray(p0, dtype=float), np.asarray(v0, dtype=float)
    points, velocities = [x], [v]
    for k in range(n_steps):
        k1x, k1v = v, acceleration(x, v)
        k2x, k2v = v + 0.5 * step * k1v, acceleration(x + 0.5 * step * k1x, v + 0.5 * step * k1v)
        k3x, k3v = v + 0.5 * step * k2v, acceleration(x + 0.5 * step * k2x, v + 0.5 * step * k2v)
        k4x, k4v = v + step * k3v, acceleration(x + step * k3x, v + step * k3v)
        x = x + (step / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (step / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not M.domain.contains(x):
            return np.array(points), np.array(velocities), x, (k + 1) * step
        points.append(x)
        velocities.append(v)
    return np.array(points), np.array(velocities), None, None


def _assert_energies_match_per_sample(M, traj):
    # The stacked energies against ``v @ g @ v`` sample by sample; a bound,
    # not equality, because BLAS kernels may sum in another order.
    reference = np.array([v @ M.metric_at(p) @ v for p, v in zip(traj.points, traj.velocities)])
    scale = abs(reference).max()
    assert abs(traj.energies - reference).max() <= 4 * np.finfo(float).eps * scale
    assert traj.energy_drift == abs(traj.energies - traj.energies[0]).max()


def _wrong_exponent():
    return load_scenario(resolve_scenario_path("h2xh2-wrong-exponent")).scenario


_ORACLE_METRICS = {name: build for name, (build, diagonal) in _CURVED.items() if diagonal}
_ORACLE_METRICS["h2xh2-wrong-exponent-source"] = lambda: _wrong_exponent().M
_ORACLE_METRICS["h2xh2-wrong-exponent-target"] = lambda: _wrong_exponent().F.target


@pytest.mark.parametrize("name", sorted(_ORACLE_METRICS))
def test_compiled_acceleration_matches_christoffel_to_summation_order(name):
    # The compiled sum and the einsum add the same products in another
    # order, so each component may differ by a few ulps of the sum of the
    # absolute products; a relative bound per component is the wrong test,
    # since the sum may cancel.
    M = _ORACLE_METRICS[name]()
    assert M._geodesic_rate is not None
    m, n = M.dim, 2000
    x = sample_points(M.domain, n, seed=23)
    v = np.random.default_rng(23).uniform(-1.0, 1.0, (n, m))
    acceleration = _acceleration(M)
    compiled = np.array([acceleration(p, w) for p, w in zip(x, v)])
    gamma = christoffel(M, x)
    reference = -np.einsum("nkij,ni,nj->nk", gamma, v, v)
    scale = np.einsum("nkij,ni,nj->nk", abs(gamma), abs(v), abs(v))
    assert (abs(compiled - reference) <= 4 * np.finfo(float).eps * scale).all()
    assert (compiled != reference).any()


@pytest.mark.parametrize(
    "manifold, p0, v0, n_steps",
    [
        ("example-ii", (1.0, 0.2, 0.1, -0.2), (0.1, 0.8, 0.3, 0.2), 2000),
        ("warped", (0.2, 0.1, -0.3, 0.4), (0.3, 0.5, -0.2, 0.4), 1000),
        ("off-diagonal", (0.1, -0.2), (0.3, 0.4), 1000),
    ],
)
def test_integrator_matches_reference_rk4_bit_for_bit(manifold, p0, v0, n_steps):
    M = build_scenario_ii().M if manifold == "example-ii" else _CURVED[manifold][0]()
    step = 1e-3
    points, velocities, exit_point, _ = _reference_rk4(M, p0, v0, n_steps, step, _acceleration(M))
    assert exit_point is None
    traj = geodesic_integrate(M, p0, v0, n_steps * step, step)
    assert len(traj) == n_steps + 1
    assert traj.points.tobytes() == points.tobytes()
    assert traj.velocities.tobytes() == velocities.tobytes()
    assert traj.s.tobytes() == (step * np.arange(n_steps + 1)).tobytes()
    _assert_energies_match_per_sample(M, traj)


def test_domain_exit_matches_reference_rk4_bit_for_bit():
    M = build_scenario_ii().M
    p0, v0, step = (3.9, 0.2, 0.1, -0.2), (1.0, 0.8, 0.3, 0.2), 1e-3
    points, velocities, exit_point, s = _reference_rk4(M, p0, v0, 3000, step, _acceleration(M))
    with pytest.raises(DomainExitError) as err:
        geodesic_integrate(M, p0, v0, 3.0, step)
    partial = err.value.trajectory
    assert len(partial) == len(points) == 101
    assert partial.points.tobytes() == points.tobytes()
    assert partial.velocities.tobytes() == velocities.tobytes()
    assert err.value.exit_point.tobytes() == exit_point.tobytes()
    assert err.value.s == s
    _assert_energies_match_per_sample(M, partial)


# Per manifold: the box, a start that leaves it within 50 steps of 0.01 and
# a start outside it.
_STACK_CASES = {
    "example-ii": (build_scenario_ii().M, ((3.9, 0.2, 0.1, -0.2), (1.0, 0.8, 0.3, 0.2)), (0.05, 0.0, 0.0, 0.0)),
    "warped": (build_warped_map().source, ((1.4, 0.1, -0.3, 0.4), (1.0, 0.5, -0.2, 0.4)), (1.6, 0.0, 0.0, 0.0)),
}
_unit = st.floats(-1.0, 1.0)
_random_rows = st.lists(
    st.tuples(st.tuples(*[_unit] * 4), st.tuples(*[_unit] * 4), st.integers(0, 40)), min_size=1, max_size=4
)


def _integrate_one(M, p0, v0, length, step):
    try:
        return geodesic_integrate(M, p0, v0, length, step)
    except (DomainExitError, ValueError) as exc:
        return exc


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_STACK_CASES)), _random_rows, st.randoms(use_true_random=False))
def test_stacked_rows_match_one_row_and_reference_rk4_bit_for_bit(manifold, random_rows, rnd):
    M, exiting, outside = _STACK_CASES[manifold]
    step = 0.01
    half = 0.5 * (M.domain.intervals[0][1] - M.domain.intervals[0][0])
    # Random starts inside the box (some land in example-ii's tube), unequal
    # lengths, then a curve that exits, a start outside and a row over the cap.
    rows = [(half * np.array(p), np.array(v), n * step) for p, v, n in random_rows]
    rows += [(*map(np.array, exiting), 0.5), (np.array(outside), np.ones(4), 0.2)]
    rows.append((np.zeros(4), np.ones(4), 2 * geometry.MAX_STEPS * step))
    rnd.shuffle(rows)
    p0, v0, lengths = (np.array(c) for c in zip(*rows))
    results = geodesic_integrate(M, p0, v0, lengths, step)
    assert len(results) == len(rows)
    kinds = set()
    for (p, v, length), got in zip(rows, results):
        one = _integrate_one(M, p, v, length, step)
        assert type(got) is type(one)
        kinds.add(type(got))
        if isinstance(got, ValueError):
            assert str(got) == str(one)
            continue
        n_steps = int(round(length / step))
        points, velocities, exit_point, s = _reference_rk4(M, p, v, n_steps, step, _acceleration(M))
        if isinstance(got, DomainExitError):
            assert str(got) == str(one)
            assert got.exit_point.tobytes() == one.exit_point.tobytes() == exit_point.tobytes()
            assert got.s == one.s == s
            got, one = got.trajectory, one.trajectory
        else:
            assert exit_point is None
        assert got.points.tobytes() == one.points.tobytes() == points.tobytes()
        assert got.velocities.tobytes() == one.velocities.tobytes() == velocities.tobytes()
        assert got.s.tobytes() == one.s.tobytes() == (step * np.arange(len(points))).tobytes()
        assert got.energies.tobytes() == one.energies.tobytes()
    assert {DomainExitError, ValueError} <= kinds


# A curved diagonal metric with an exclusion tube: starts in the tube are
# refused, and curves leave through the box or into the tube.
_TUBE_METRIC = ManifoldSpec(
    3,
    [[parse(e if i == j else "0", 3) for j, e in enumerate(["exp(x3)", "1 + x1^2", "1 / (1 + x2^2)"])] for i in range(3)],
    box_domain(3, -1.0, 1.0, tubes=[ExclusionTube(parse("sqrt(x1^2 + x2^2)", 3), 0.2)]),
)
_tube_rows = st.lists(
    st.tuples(st.tuples(*[_unit] * 3), st.tuples(*[_unit] * 3), st.integers(0, 40)), min_size=1, max_size=4
)


@settings(max_examples=40, deadline=None)
@given(_tube_rows, st.floats(1e-3, 0.05))
def test_compiled_loop_matches_reference_rk4_bit_for_bit(rows, step):
    M = _TUBE_METRIC
    assert M._geodesic_rate is not None
    p0, v0, n = (np.array(c) for c in zip(*rows))
    # Every row runs through the loop: the numpy path's rate is never called.
    with mock.patch.object(geometry, "_rate", side_effect=AssertionError("numpy path")):
        results = geodesic_integrate(M, p0, v0, n * step, step)
    for p, v, n_steps, got in zip(p0, v0, n, results):
        if isinstance(got, ValueError):
            assert not M.domain.contains(p)
            continue
        points, velocities, exit_point, s = _reference_rk4(M, p, v, n_steps, step, _acceleration(M))
        if exit_point is None:
            assert isinstance(got, geometry.GeodesicTrajectory)
        else:
            assert isinstance(got, DomainExitError)
            assert got.exit_point.tobytes() == exit_point.tobytes()
            assert got.s == s
            got = got.trajectory
        assert got.points.tobytes() == points.tobytes()
        assert got.velocities.tobytes() == velocities.tobytes()
        assert got.s.tobytes() == (step * np.arange(len(points))).tobytes()


def test_tube_error_in_the_loop_propagates():
    # ln(x1) cannot be evaluated once the second curve reaches x1 <= 0: the
    # loop's domain test raises the tube's error, and no numpy stage runs.
    tube = ExclusionTube(parse("ln(x1)", 3), -10.0)
    M = ManifoldSpec(3, _TUBE_METRIC.metric, box_domain(3, -1.0, 1.0, tubes=[tube]))
    with mock.patch.object(geometry, "_rate", side_effect=AssertionError("numpy path")):
        with pytest.raises(DomainError, match=r"logarithm of a non-positive value in ln\(x1\)"):
            geodesic_integrate(M, [(0.5, 0.2, 0.3), (0.5, 0.0, 0.0)], [(0.0, 0.1, 0.1), (-1.0, 0.0, 0.0)], 1.0, 0.01)


def test_stacked_metric_error_ends_the_call():
    # (1, 1e150, 1, 1) leaves x2 at 5e146 in the second RK4 stage, where
    # the metric 1/x2^2 is singular; the stack raises what the row raises.
    M = load_scenario(resolve_scenario_path("h2xh2")).scenario.M
    p0, v0 = (0.0, 1.0, 0.0, 1.0), (1.0, 1e150, 1.0, 1.0)
    with pytest.raises(SingularMetricError) as one:
        geodesic_integrate(M, p0, v0, 1.0, 1e-3)
    with pytest.raises(SingularMetricError) as stacked:
        geodesic_integrate(M, [p0, p0], [(0.3, 0.2, 0.1, 0.1), v0], 1.0, 1e-3)
    assert str(stacked.value) == str(one.value)


# Starts at which the RK4 loop stops, per case: the metric diagonal on
# [-1, 1]^dim, the start, a regular start, and what the Christoffel path
# raises at the stage point where the loop stops (steps of 0.01, alone and
# stacked under the regular row).  Where the metric values are finite, that
# is what the numpy stepping raised before the loop existed.
_RATE_FALLBACKS = {
    # 1/x2^2 turns singular in the second RK4 stage
    "singular mid-curve": (
        ["1/x2^2", "1/x2^2", "1/x4^2", "1/x4^2"],
        ((0.0, 1.0, 0.0, 1.0), (1.0, 1e150, 1.0, 1.0)),
        (0.0, 0.5, 0.0, 0.5),
        (SingularMetricError, "metric is singular at [0.005, 5e+147, 0.005, 1.005]"),
    ),
    # the compiled accel divides by g_22 = 0 in the second stage
    "zero diagonal": (
        ["1 + x2^2", "x1", "1"],
        ((-0.005, 0.2, 0.3), (1.0, 0.5, 0.5)),
        (0.5, 0.2, 0.3),
        (SingularMetricError, "metric is singular at [0.0, 0.2025, 0.3025]"),
    ),
    "domain error mid-curve": (
        ["1 + x2^2", "2 + ln(x1)", "1"],
        ((0.004, 0.2, 0.3), (-1.0, 0.5, 0.5)),
        (0.5, 0.2, 0.3),
        (DomainError, "logarithm of a non-positive value in ln(x1)"),
    ),
    # a metric value that is not finite is singular
    "inf diagonal": (
        ["1", "1 + x1 * 1e308 * x1 * 10", "1"],
        ((0.5, 0.2, 0.3), (1.0, 0.5, 0.5)),
        (0.0, 0.2, 0.3),
        (SingularMetricError, "metric is singular at [0.5, 0.2, 0.3]"),
    ),
    "nan diagonal": (
        ["1", "1 + x1 * 1e308 * x1 * 10 - x1 * 1e308 * x1 * 10", "1"],
        ((0.5, 0.2, 0.3), (1.0, 0.5, 0.5)),
        (0.0, 0.2, 0.3),
        (SingularMetricError, "metric is singular at [0.5, 0.2, 0.3]"),
    ),
}


@pytest.mark.parametrize("case", sorted(_RATE_FALLBACKS))
def test_rate_fallback_raises_the_christoffel_error(case):
    diagonal, (p0, v0), regular, expected = _RATE_FALLBACKS[case]
    M = _diagonal_metric(diagonal)
    assert M._geodesic_rate is not None
    still = (0.0,) + (0.1,) * (M.dim - 1)
    geodesic_integrate(M, regular, still, 0.01, 0.01)
    for starts, velocities in ((p0, v0), ([regular, p0], [still, v0])):
        with pytest.raises(Exception) as err:
            geodesic_integrate(M, starts, velocities, 1.0, 0.01)
        assert (type(err.value), str(err.value)) == expected


@pytest.mark.parametrize("off", ["0", "x3 - x3"])
def test_christoffel_names_the_first_finite_point_with_non_finite_symbols(off):
    # The x1-derivative of x1 * 1e308 * 10 folds to inf, while the metric
    # is finite below x1 = 0.17: the first point, not finite itself, is
    # passed over.  The RK4 step from (0.1, 0.2, 0.3) names its start, on
    # the compiled loop (diagonal) and on the numpy stepping alike.
    M = _diagonal_metric(["x1 * 1e308 * 10"] * 3, off)
    message = "Christoffel symbols are not finite at [0.12, 0.0, 0.0]"
    with pytest.raises(GeometryError, match=re.escape(message)):
        christoffel(M, [(0.1, float("inf"), 0.0), (0.12, 0.0, 0.0)])
    message = "Christoffel symbols are not finite at [0.1, 0.2, 0.3]"
    with pytest.raises(GeometryError, match=re.escape(message)):
        geodesic_integrate(M, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0), 1.0, 0.01)


# Both places the loop stops: the rate raising, and the diagonal test.
@pytest.mark.parametrize("case", ["zero diagonal", "singular mid-curve"])
def test_loop_stop_never_returns(case, monkeypatch):
    # Should christoffel not raise where the loop cannot step (here it
    # returns zero symbols, so the stop's replay of the step steps too), the
    # stop still raises instead of stepping on.
    diagonal, (p0, v0), _, (_, message) = _RATE_FALLBACKS[case]
    M = _diagonal_metric(diagonal)
    monkeypatch.setattr(geometry, "christoffel", lambda M, point: np.zeros(np.shape(point)[:-1] + (M.dim,) * 3))
    point = message.removeprefix("metric is singular at ")
    with pytest.raises(GeometryError) as err:
        geodesic_integrate(M, p0, v0, 1.0, 0.01)
    assert type(err.value) is GeometryError
    assert str(err.value) == f"the geodesic rate cannot be evaluated at {point}"


def test_exclusion_tube_sampling():
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.5)
    domain = box_domain(4, -2.0, 2.0, tubes=[tube])
    pts = sample_points(domain, 100, seed=42)
    radii = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert radii.min() >= 0.5
    again = sample_points(domain, 100, seed=42)
    assert np.array_equal(pts, again)


def test_numpy_generators_are_refused_by_name():
    # Samples and probes are drawn from random.Random; a numpy Generator
    # passed where one is expected is a TypeError that says so.
    M = euclidean_manifold(2)
    generator = np.random.default_rng(0)
    with pytest.raises(TypeError, match=r"^seed must be an int or a str, not Generator$"):
        sample_points(M.domain, 3, seed=generator)
    with pytest.raises(TypeError, match=r"^rng must be a random\.Random, not Generator$"):
        M.domain.sample(generator, 3)
    state = SampleState(sample_points(M.domain, 3, seed=0), M)
    with pytest.raises(TypeError, match=r"^rng must be a random\.Random, not Generator$"):
        state.unit_probes(generator, ())


def test_initial_point_outside_domain_rejected():
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.5)
    M = euclidean_manifold(4, domain=box_domain(4, -2.0, 2.0, tubes=[tube]))
    with pytest.raises(ValueError):
        geodesic_integrate(M, (0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0), 1.0, 1e-2)


def test_manifold_validate_rejects_indefinite():
    entries = [["1", "0"], ["0", "-1"]]
    M = ManifoldSpec(
        2, [[parse(s, 2) for s in row] for row in entries], box_domain(2, -1.0, 1.0)
    )
    with pytest.raises(Exception):
        M.validate([(0.0, 0.0)])


def test_manifold_validate_rejects_asymmetric():
    entries = [["1", "x1"], ["0", "1"]]
    M = ManifoldSpec(
        2, [[parse(s, 2) for s in row] for row in entries], box_domain(2, -1.0, 1.0)
    )
    with pytest.raises(Exception, match="symmetric"):
        M.validate([(0.5, 0.2)])


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0.0, 1.0), (0.0, -1.0), (0.5, 1.0)], "not positive definite at [0.0, -1.0]"),
        ([(0.0, 1.0), (0.5, 1.0), (0.0, -1.0)], "not symmetric at [0.5, 1.0]"),
    ],
)
def test_manifold_validate_reports_the_first_failing_point(points, message):
    # Symmetric where x1 = 0, positive definite where also x2 > 0.
    entries = [["1", "x1"], ["0", "x2"]]
    M = ManifoldSpec(
        2, [[parse(s, 2) for s in row] for row in entries], box_domain(2, -1.0, 1.0)
    )
    M.validate(points[:1])
    with pytest.raises(GeometryError) as err:
        M.validate(points)
    assert str(err.value) == f"metric {message}"


# x1 on both sides of the floor, RANK_RTOL times the largest diagonal entry
# (1), negative, zero and not finite.
@pytest.mark.parametrize("x1", [2e-8, np.nextafter(1e-8, 1.0), 1e-8, 0.5e-8, 0.0, -1.0, np.inf, np.nan])
def test_diagonal_validate_matches_eigvalsh(x1):
    diagonal = ["1 + x2^2", "x1", "1"]
    M = _diagonal_metric(diagonal)
    twin = _diagonal_metric(diagonal, off="x3 - x3")  # validated by eigvalsh
    assert M.is_diagonal and not twin.is_diagonal
    stack = [(0.5, 0.1, 0.2), (x1, 0.0, 0.3), (0.0, 0.2, 0.1)]

    def outcome(manifold):
        try:
            return manifold.validate(stack)
        except GeometryError as exc:
            return type(exc), str(exc)

    assert outcome(M) == outcome(twin)
