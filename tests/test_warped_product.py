"""Curved-metric end-to-end fixture.

The flat fixtures never exercise the connection corrections inside the
tensor machinery, so this module runs a classical warped product: the
metric dx1^2 + e^{2x1}(dx2^2 + dx3^2) + dx4^2 fibred over (x1, x4).  Its
fibers are totally umbilical with mean curvature -grad(x1), making it a
Clairaut submersion with exponent f = x1, and the expected tensor values
are known in closed form (T_V V = -e1 for unit vertical V).  The adapted
complex structure is compatible but deliberately not parallel.
"""

import numpy as np
import pytest
from conftest import build_warped_map

from riemsub.clairaut import (
    ClairautScenario,
    check_anti_invariant,
    check_bishop,
    check_dichotomies,
    check_pq_identities,
    clairaut_invariant,
)
from riemsub.expr import parse
from riemsub.geometry import geodesic_integrate, sample_points
from riemsub.hermitian import AlmostComplexField, check_nearly_kaehler, check_structure
from riemsub.submersion import (
    build_frame,
    check_decompositions,
    check_skew,
    check_submersion,
    fiber_character,
    tensor_T,
)


@pytest.fixture(scope="module")
def warped():
    F = build_warped_map()
    # Structure adapted to the warped orthonormal frame: compatible and
    # squaring to -I, but with x1-dependent entries (not parallel).
    phi = [
        ["0", "exp(x1)", "0", "0"],
        ["-exp(0 - x1)", "0", "0", "0"],
        ["0", "0", "0", "exp(0 - x1)"],
        ["0", "0", "-exp(x1)", "0"],
    ]
    J = AlmostComplexField([[parse(s, 4) for s in row] for row in phi])
    return ClairautScenario(name="warped", J=J, F=F, f=parse("x1", 4))


@pytest.fixture(scope="module")
def samples(warped):
    return sample_points(warped.M.domain, 30, seed=9)


def test_structure_holds_but_not_parallel(warped, samples):
    assert check_structure(
        warped.M, warped.J, samples, rng=np.random.default_rng(0)
    ).passed
    nk = check_nearly_kaehler(warped.M, warped.J, samples, rng=np.random.default_rng(1))
    assert not nk.passed
    assert nk.max_residual > 1.0


def test_submersion_and_lagrangian_fibers(warped, samples):
    assert check_submersion(warped.F, samples).passed
    anti = check_anti_invariant(warped, samples)
    assert anti.passed
    assert anti.details["lagrangian"]


def test_fiber_tensor_closed_form(warped):
    p = np.array([0.3, 0.5, -0.2, 0.7])
    fr = build_frame(warped.F, p)
    for v in fr.vertical:
        assert tensor_T(warped.F, v, v, p, fr) == pytest.approx(
            [-1.0, 0.0, 0.0, 0.0], abs=1e-9
        )


def test_dichotomy_branch_is_the_fiber_geodesic_residual(warped, samples):
    # Two-dimensional Lagrangian fibers: the fiber branch of the dichotomy
    # is the totally-geodesic residual, which fiber-character reports too.
    fiber = fiber_character(warped.F, samples, tolerance=warped.tolerances.fd)
    rep = check_dichotomies(warped, samples)
    assert rep.details["lagrangian"] and not rep.details["one_dimensional_fibers"]
    assert rep.details["totally_geodesic"] is fiber.details["totally_geodesic"] is False
    assert rep.details["lagrangian_dichotomy_residual"] == fiber.details["geodesic_residual"] > 0.1


def test_umbilical_with_exponent_gradient(warped, samples):
    rep = fiber_character(warped.F, samples[:10])
    assert rep.passed
    assert rep.details["totally_umbilical"]
    assert not rep.details["totally_geodesic"]
    for H in rep.details["mean_curvature"]:
        assert np.asarray(H) == pytest.approx([-1.0, 0.0, 0.0, 0.0], abs=1e-8)
    bishop = check_bishop(warped, samples)
    assert bishop.passed
    assert bishop.max_residual < 1e-9


def test_tensor_identities_in_curved_metric(warped, samples):
    assert check_skew(warped.F, samples[:15], rng=np.random.default_rng(2)).passed
    assert check_decompositions(warped.F, samples[:15]).passed
    # Duality and the chain identity need only compatibility.
    rep = check_pq_identities(
        warped, samples[:15], rng=np.random.default_rng(3), include_antisymmetry=False
    )
    assert rep.passed


def test_scenario_run_skips_out_of_setting_checks(tmp_path):
    # The umbilicity criterion and the invariant are pure Riemannian facts
    # and must pass; the structure-derivative identities do not apply here
    # and must be skipped rather than failed.
    import yaml

    from riemsub.cli import run_scenario

    doc = {
        "name": "warped",
        "source": {
            "dim": 4,
            "metric": [
                ["1", "0", "0", "0"],
                ["0", "exp(2 * x1)", "0", "0"],
                ["0", "0", "exp(2 * x1)", "0"],
                ["0", "0", "0", "1"],
            ],
            "domain": {"intervals": [[-1.5, 1.5]] * 4},
        },
        "target": {
            "dim": 2,
            "metric": "euclidean",
            "domain": {"intervals": [[-10.0, 10.0]] * 2},
        },
        "phi": [
            ["0", "exp(x1)", "0", "0"],
            ["-exp(0 - x1)", "0", "0", "0"],
            ["0", "0", "0", "exp(0 - x1)"],
            ["0", "0", "-exp(x1)", "0"],
        ],
        "map": ["x1", "x4"],
        "clairaut": {"f": "x1"},
        "sampling": {"count": 30, "seed": 9},
        "geodesics": [
            {"p0": [0.1, 0.2, -0.1, 0.3], "v0": [0.4, 0.5, 0.3, -0.2], "length": 1.0}
        ],
    }
    path = tmp_path / "warped.yaml"
    path.write_text(yaml.safe_dump(doc))
    report = run_scenario(path)
    by_name = {c.name: c for c in report.checks}
    assert by_name["nearly-kaehler"].verdict == "fail"
    assert by_name["bishop-clairaut"].verdict == "pass"
    assert by_name["geodesic-0-invariant"].verdict == "pass"
    assert by_name["aq-gradient-identity"].verdict == "skip"
    assert by_name["dichotomies"].verdict == "skip"
    assert by_name["geodesic-0-conditions"].verdict == "skip"
    assert by_name["geodesic-0-clairaut-condition"].verdict == "skip"
    # The structure-derivative condition genuinely fails, so the scenario
    # as a whole reports failure; everything Riemannian passed.
    assert report.overall == "fail"


def test_invariant_conserved_along_curved_geodesics(warped):
    rng = np.random.default_rng(4)
    for _ in range(3):
        p0 = rng.uniform(-0.3, 0.3, size=4)
        v0 = rng.standard_normal(4)
        v0 /= np.linalg.norm(v0)
        traj = geodesic_integrate(warped.M, p0, v0, 1.0, 1e-3)
        assert traj.energy_drift < 1e-8
        rep = clairaut_invariant(warped, traj)
        assert rep.passed
        assert rep.max_residual < 1e-5
