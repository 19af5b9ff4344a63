import numpy as np
import pytest

from conftest import build_scenario_ii, circle_trajectory
from riemsub.clairaut import (
    NonGeodesicError,
    alpha_beta_split,
    check_anti_invariant,
    check_bishop,
    check_clairaut_condition,
    check_dichotomies,
    check_geodesic_conditions,
    check_pq_identities,
    check_thm33_identity,
    clairaut_invariant,
    geodesic_condition_residuals,
    interior_indices,
    invariant_series,
    mu_basis,
    pq_curve_residual,
    pq_tensors,
)
from riemsub.expr import parse
from riemsub.geometry import (
    box_domain,
    geodesic_integrate,
    metric_norm,
    sample_points,
)
from riemsub.hermitian import AlmostComplexField
from riemsub.presets import euclidean_manifold, twisted_phi
from riemsub.submersion import SmoothMap, build_frame

SQ2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def samples_i(scenario_i):
    return sample_points(scenario_i.M.domain, 40, seed=42)


@pytest.fixture(scope="module")
def samples_ii(scenario_ii):
    return sample_points(scenario_ii.M.domain, 40, seed=42)


def test_anti_invariant_example_i(scenario_i, samples_i):
    rep = check_anti_invariant(scenario_i, samples_i)
    assert rep.passed
    assert rep.details["mu_dim"] == 2
    assert not rep.details["lagrangian"]


def test_anti_invariant_example_ii(scenario_ii, samples_ii):
    rep = check_anti_invariant(scenario_ii, samples_ii)
    assert rep.passed
    assert rep.max_residual < 1e-10


def test_anti_invariant_fails_on_invariant_kernel():
    # Kernel spanned by e1, e2 with phi(e1) = -e2: the structure maps the
    # fibers into themselves, so the residual is order one.
    source = euclidean_manifold(4)
    target = euclidean_manifold(2, domain=box_domain(2, -10.0, 10.0))
    F = SmoothMap(source, target, tuple(parse(s, 4) for s in ["x3", "x4"]))
    from conftest import build_scenario_i
    from riemsub.clairaut import ClairautScenario

    base = build_scenario_i()
    sc = ClairautScenario(name="invariant", J=base.J, F=F, f=parse("0", 4))
    rep = check_anti_invariant(sc, [(0.1, 0.2, 0.3, 0.4)])
    assert not rep.passed
    assert rep.max_residual > 0.9


def test_mu_basis_properties(scenario_ii, samples_ii):
    from riemsub.hermitian import apply_phi

    for p in samples_ii[:10]:
        fr = build_frame(scenario_ii.F, p)
        mu = mu_basis(scenario_ii, fr)
        assert mu.shape == (2, 4)
        g = fr.metric
        gram = mu @ g @ mu.T
        assert abs(gram - np.eye(2)).max() < 1e-10
        for row in mu:
            assert metric_norm(g, fr.vertical_part(row)) < 1e-10
            for v in fr.vertical:
                assert abs(float(row @ g @ apply_phi(scenario_ii.J, p, v))) < 1e-10


def test_alpha_beta_radial(scenario_ii):
    p = np.array([1.0, 1.0, 0.0, 0.0])
    X = np.array([1.0, 1.0, 0.0, 0.0]) / SQ2
    split = alpha_beta_split(scenario_ii, p, X)
    assert abs(split.beta).max() < 1e-10
    assert abs(split.alpha) == pytest.approx([1 / SQ2, 1 / SQ2, 0.0, 0.0], abs=1e-10)
    assert split.vertical_residual < 1e-10
    assert split.phiker_residual < 1e-10


def test_alpha_beta_e3(scenario_ii):
    p = np.array([1.0, 1.0, 0.0, 0.0])
    X = np.array([0.0, 0.0, 1.0, 0.0])
    split = alpha_beta_split(scenario_ii, p, X)
    assert abs(split.alpha).max() < 1e-12
    assert split.beta == pytest.approx([0.0, 0.0, 0.0, -1.0], abs=1e-12)


def test_alpha_beta_zero_vector(scenario_ii):
    split = alpha_beta_split(scenario_ii, (1.0, 0.5, 0.0, 0.0), np.zeros(4))
    assert abs(split.alpha).max() == 0.0
    assert abs(split.beta).max() == 0.0


def test_alpha_beta_rejects_non_horizontal(scenario_ii):
    p = np.array([1.0, 1.0, 0.0, 0.0])
    vert = build_frame(scenario_ii.F, p).vertical[0]
    with pytest.raises(ValueError):
        alpha_beta_split(scenario_ii, p, vert)


def test_alpha_beta_reconstruction(scenario_ii, samples_ii):
    from riemsub.hermitian import apply_phi

    rng = np.random.default_rng(12)
    for p in samples_ii[:15]:
        fr = build_frame(scenario_ii.F, p)
        X = fr.horizontal_part(rng.standard_normal(4))
        X = X - fr.vertical_part(X)
        split = alpha_beta_split(scenario_ii, p, X, fr)
        phiX = apply_phi(scenario_ii.J, p, X)
        assert metric_norm(fr.metric, phiX - split.alpha - split.beta) < 1e-10
        assert split.vertical_residual < 1e-10
        assert split.phiker_residual < 1e-10


def test_pq_zero_for_parallel_structure(scenario_i, samples_i):
    rng = np.random.default_rng(5)
    for p in samples_i[:10]:
        U = rng.standard_normal(4)
        V = rng.standard_normal(4)
        P, Q = pq_tensors(scenario_i, U, V, p)
        assert abs(P).max() < 1e-12
        assert abs(Q).max() < 1e-12


def test_pq_twisted_nonzero():
    sc = build_scenario_ii()
    from riemsub.clairaut import ClairautScenario

    sc_t = ClairautScenario(
        name="twisted", J=AlmostComplexField(twisted_phi()), F=sc.F, f=sc.f
    )
    p = (0.9, 0.4, 0.3, -0.2)
    P, Q = pq_tensors(sc_t, [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], p)
    # Frozen from an oracle run at this point.
    assert np.linalg.norm(Q) == pytest.approx(0.318139189494, abs=1e-9)
    assert np.linalg.norm(P + Q) == pytest.approx(1.0, abs=1e-12)


def test_bishop_example_ii(scenario_ii, samples_ii):
    rep = check_bishop(scenario_ii, samples_ii)
    assert rep.passed
    assert rep.max_residual < 1e-6
    assert not rep.details["f_constant"]


def test_bishop_example_i_trivial(scenario_i, samples_i):
    rep = check_bishop(scenario_i, samples_i)
    assert rep.passed
    assert rep.details["f_constant"]
    assert rep.max_residual < 1e-12


def test_bishop_wrong_exponent_fails():
    sc = build_scenario_ii(f_text="x3")
    rep = check_bishop(sc, [(1.0, 1.0, 0.0, 0.0)])
    assert not rep.passed
    assert rep.max_residual == pytest.approx(np.sqrt(1.5), abs=1e-6)


def test_invariant_line_geodesic(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), 2.0, 1e-3
    )
    rep = clairaut_invariant(scenario_ii, traj)
    assert rep.passed
    assert rep.details["initial"] == pytest.approx(1.0, abs=1e-12)
    assert rep.max_residual < 1e-6


def test_invariant_horizontal_geodesic(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.0, 0.5, 0.0), (1 / SQ2, 0.0, 1 / SQ2, 0.0), 1.0, 1e-3
    )
    sin_theta, invariant = invariant_series(scenario_ii, traj)
    assert sin_theta.max() < 1e-10
    assert abs(invariant).max() < 1e-10


def test_invariant_vertical_geodesic_example_i(scenario_i):
    traj = geodesic_integrate(
        scenario_i.M, (0.1, 0.3, 0.0, 0.0), (1 / SQ2, -1 / SQ2, 0.0, 0.0), 1.0, 1e-3
    )
    sin_theta, invariant = invariant_series(scenario_i, traj)
    assert abs(sin_theta - 1.0).max() < 1e-10
    assert abs(invariant - 1.0).max() < 1e-10


def test_geodesic_conditions_on_integrated_geodesics(scenario_i, scenario_ii):
    cases = [
        (scenario_i, (0.2, -0.1, 0.3, 0.0), (0.5, 0.2, 0.4, -0.3)),
        (scenario_ii, (1.0, 0.2, 0.1, -0.2), (0.1, 0.8, 0.3, 0.2)),
    ]
    for sc, p0, v0 in cases:
        traj = geodesic_integrate(sc.M, p0, v0, 1.0, 1e-3)
        for i in interior_indices(traj, count=5):
            rv, rh = geodesic_condition_residuals(sc, traj, i)
            assert rv < 1e-5
            assert rh < 1e-5


def test_geodesic_conditions_horizontal_line_example_i(scenario_i):
    traj = geodesic_integrate(
        scenario_i.M, (0.0, 0.0, 0.0, 0.0), (1 / SQ2, 1 / SQ2, 0.0, 0.0), 1.0, 1e-3
    )
    rv, rh = geodesic_condition_residuals(scenario_i, traj, len(traj) // 2)
    assert rv < 1e-12
    assert rh < 1e-12


def test_circle_is_not_a_geodesic(scenario_ii):
    traj = circle_trajectory(scenario_ii.M, n=200, step=1e-3)
    residuals = [
        max(geodesic_condition_residuals(scenario_ii, traj, i))
        for i in interior_indices(traj, count=5)
    ]
    assert min(residuals) > 1e-2


def test_check_geodesic_conditions_report(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), 2.0, 1e-3
    )
    rep = check_geodesic_conditions(scenario_ii, traj)
    assert rep.passed


def test_clairaut_condition_line_geodesic(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), 2.0, 1e-3
    )
    rep = check_clairaut_condition(scenario_ii, traj)
    assert rep.passed
    assert rep.max_residual < 1e-5


def test_clairaut_condition_horizontal_trivial(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.0, 0.5, 0.0), (1 / SQ2, 0.0, 1 / SQ2, 0.0), 1.0, 1e-3
    )
    rep = check_clairaut_condition(scenario_ii, traj)
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_clairaut_condition_wrong_exponent():
    sc = build_scenario_ii(f_text="x3")
    traj = geodesic_integrate(sc.M, (1.0, 0.0, 0.2, 0.0), (0.0, 1.0, 0.3, 0.0), 2.0, 1e-3)
    rep = check_clairaut_condition(sc, traj)
    assert not rep.passed
    assert rep.max_residual > 1e-3


def test_clairaut_condition_rejects_non_geodesic(scenario_ii):
    traj = circle_trajectory(scenario_ii.M, n=200, step=1e-3)
    with pytest.raises(NonGeodesicError):
        check_clairaut_condition(scenario_ii, traj)


def test_thm33_identity_example_ii(scenario_ii, samples_ii):
    rep = check_thm33_identity(scenario_ii, samples_ii)
    assert rep.passed
    assert rep.max_residual < 1e-6
    assert rep.details["basic_ok"]
    # Over the full horizontal frame the identity picks up the phi-image of
    # the fibers, where it does not hold; the separate reporting records it.
    assert rep.details["horizontal_frame_residual"] > 1e-2


@pytest.mark.parametrize(
    "point",
    [[1.0, 1.0, 0.3, 0.2], [-1.0, 1.0, 0.3, 0.2], [2.0, -2.0, 0.0, 0.0], [0.5, 0.5, -1.0, 2.0]],
)
def test_thm33_identity_at_sign_rule_ties(scenario_ii, point):
    # At |x1| = |x2| the two largest components of the vertical vector tie,
    # so the frame sign rule flips inside the basicness stencil; the
    # displaced vectors must be aligned with the base one.
    rep = check_thm33_identity(scenario_ii, [point])
    assert rep.passed
    assert rep.details["basic_residual"] < 1e-9


def test_thm33_identity_example_i(scenario_i, samples_i):
    rep = check_thm33_identity(scenario_i, samples_i)
    assert rep.passed
    assert rep.max_residual < 1e-10
    assert rep.details["horizontal_frame_residual"] < 1e-10


def test_dichotomies_example_ii(scenario_ii, samples_ii):
    rep = check_dichotomies(scenario_ii, samples_ii)
    assert rep.passed
    assert rep.details["one_dimensional_fibers"]
    assert not rep.details["f_constant_on_phiker"]


def test_dichotomies_example_i(scenario_i, samples_i):
    rep = check_dichotomies(scenario_i, samples_i)
    assert rep.passed
    assert rep.details["f_constant_on_phiker"]
    assert rep.details["totally_geodesic"]


@pytest.fixture(scope="module")
def scenario_lagrangian():
    # Two-dimensional fibers spanned by e2, e3; their images under the
    # canonical structure (e1 and -e4) exhaust the horizontal space.
    from riemsub.clairaut import ClairautScenario
    from riemsub.hermitian import AlmostComplexField
    from riemsub.presets import canonical_phi

    source = euclidean_manifold(4)
    target = euclidean_manifold(2, domain=box_domain(2, -10.0, 10.0))
    F = SmoothMap(source, target, tuple(parse(s, 4) for s in ["x1", "x4"]))
    return ClairautScenario(
        name="lagrangian", J=AlmostComplexField(canonical_phi()), F=F, f=parse("0", 4)
    )


def test_lagrangian_flag_and_dichotomy(scenario_lagrangian):
    pts = sample_points(scenario_lagrangian.M.domain, 20, seed=3)
    anti = check_anti_invariant(scenario_lagrangian, pts)
    assert anti.passed
    assert anti.details["lagrangian"]
    assert anti.details["mu_dim"] == 0
    rep = check_dichotomies(scenario_lagrangian, pts)
    assert rep.passed
    assert rep.details["lagrangian"]
    assert rep.details["totally_geodesic"]
    assert rep.details["lagrangian_dichotomy_residual"] == 0.0


def test_lagrangian_two_dim_fiber_machinery(scenario_lagrangian):
    from riemsub.submersion import fiber_character

    pts = sample_points(scenario_lagrangian.M.domain, 10, seed=4)
    fr = build_frame(scenario_lagrangian.F, pts[0])
    assert fr.vertical.shape == (2, 4)
    rep = fiber_character(scenario_lagrangian.F, pts)
    assert rep.passed
    assert rep.details["fiber_dim"] == 2
    assert rep.details["totally_geodesic"]
    rep = check_bishop(scenario_lagrangian, pts)
    assert rep.passed and rep.details["f_constant"]
    rep = check_thm33_identity(scenario_lagrangian, pts)
    assert rep.passed
    assert rep.max_residual < 1e-10


def test_pq_identities_canonical(scenario_ii, samples_ii):
    rep = check_pq_identities(
        scenario_ii, samples_ii, rng=np.random.default_rng(1)
    )
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_pq_identities_twisted():
    from riemsub.clairaut import ClairautScenario

    base = build_scenario_ii()
    sc = ClairautScenario(
        name="twisted", J=AlmostComplexField(twisted_phi()), F=base.F, f=base.f
    )
    samples = sample_points(sc.M.domain, 30, seed=7)
    rep = check_pq_identities(
        sc, samples, rng=np.random.default_rng(2), include_antisymmetry=False
    )
    # Duality and the chain identity follow from compatibility alone.
    assert rep.passed
    assert rep.details["duality_residual"] < 1e-8
    assert rep.details["chain_residual"] < 1e-8
    assert rep.details["antisymmetry_residual"] > 1e-3


def test_pq_curve_identity(scenario_ii):
    traj = geodesic_integrate(
        scenario_ii.M, (1.0, 0.2, 0.0, 0.1), (0.2, 0.9, 0.1, 0.0), 1.0, 1e-3
    )
    assert pq_curve_residual(scenario_ii, traj, interior_indices(traj)) < 1e-8


def test_invariant_drift_bound_for_bishop_scenarios(scenario_ii):
    # Any geodesic of a scenario passing the umbilicity criterion keeps the
    # invariant within the drift tolerance per unit arc length.
    rng = np.random.default_rng(33)
    for _ in range(3):
        p0 = np.array([1.2, 0.0, 0.0, 0.0]) + 0.2 * rng.standard_normal(4)
        v0 = rng.standard_normal(4)
        v0 /= np.linalg.norm(v0)
        traj = geodesic_integrate(scenario_ii.M, p0, v0, 1.0, 1e-3)
        rep = clairaut_invariant(scenario_ii, traj)
        assert rep.max_residual < 1e-5
