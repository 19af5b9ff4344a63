import numpy as np
import pytest

from riemsub.expr import Const, Mul, parse
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


def _reference_rk4(M, p0, v0, n_steps, step):
    """Classical RK4 as separate point and velocity stage chains, sample by
    sample: the points, the velocities and, on leaving the domain, the exit
    point and arc parameter (else None, None)."""

    def acceleration(x, v):
        return -np.einsum("kij,i,j->k", christoffel(M, x), v, v)

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


@pytest.mark.parametrize(
    "manifold, p0, v0, n_steps",
    [
        ("example-ii", (1.0, 0.2, 0.1, -0.2), (0.1, 0.8, 0.3, 0.2), 2000),
        ("warped", (0.2, 0.1, -0.3, 0.4), (0.3, 0.5, -0.2, 0.4), 1000),
    ],
)
def test_integrator_matches_reference_rk4_bit_for_bit(manifold, p0, v0, n_steps):
    M = build_scenario_ii().M if manifold == "example-ii" else build_warped_map().source
    step = 1e-3
    points, velocities, exit_point, _ = _reference_rk4(M, p0, v0, n_steps, step)
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
    points, velocities, exit_point, s = _reference_rk4(M, p0, v0, 3000, step)
    with pytest.raises(DomainExitError) as err:
        geodesic_integrate(M, p0, v0, 3.0, step)
    partial = err.value.trajectory
    assert len(partial) == len(points) == 101
    assert partial.points.tobytes() == points.tobytes()
    assert partial.velocities.tobytes() == velocities.tobytes()
    assert err.value.exit_point.tobytes() == exit_point.tobytes()
    assert err.value.s == s
    _assert_energies_match_per_sample(M, partial)


def test_exclusion_tube_sampling():
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.5)
    domain = box_domain(4, -2.0, 2.0, tubes=[tube])
    pts = sample_points(domain, 100, seed=42)
    radii = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert radii.min() >= 0.5
    again = sample_points(domain, 100, seed=42)
    assert np.array_equal(pts, again)


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
