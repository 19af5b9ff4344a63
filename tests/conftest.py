import numpy as np
import pytest

from riemsub.clairaut import ClairautScenario
from riemsub.expr import parse
from riemsub.geometry import ExclusionTube, ManifoldSpec, box_domain
from riemsub.hermitian import AlmostComplexField
from riemsub.presets import (
    canonical_phi,
    euclidean_manifold,
    map_example_i_components,
    map_example_ii_components,
)
from riemsub.state import SampleState
from riemsub.submersion import SmoothMap


def one_row(point, M, F=None, J=None, f=None):
    """The per-sample state at the single point ``point``: each stacked
    kernel's row 0 is its value there."""
    return SampleState(np.asarray(point, dtype=float)[None], M, F, J, f)


def metric_norm(g, v):
    """Reference norm of the vector ``v`` in the metric ``g``, by matrix products."""
    return np.sqrt(max(float(v @ g @ v), 0.0))


def build_scenario_i(f_text="0"):
    source = euclidean_manifold(4, domain=box_domain(4, -2.0, 2.0))
    target = euclidean_manifold(3, domain=box_domain(3, -10.0, 10.0))
    F = SmoothMap(source, target, map_example_i_components())
    return ClairautScenario(
        name="example-i",
        J=AlmostComplexField(canonical_phi()),
        F=F,
        f=parse(f_text, 4),
    )


def build_scenario_ii(f_text="ln(sqrt(x1^2 + x2^2))"):
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.1)
    source = euclidean_manifold(4, domain=box_domain(4, -4.0, 4.0, tubes=[tube]))
    target = euclidean_manifold(3, domain=box_domain(3, -10.0, 10.0))
    F = SmoothMap(source, target, map_example_ii_components())
    return ClairautScenario(
        name="example-ii",
        J=AlmostComplexField(canonical_phi()),
        F=F,
        f=parse(f_text, 4),
    )


def build_warped_map(components=("x1", "x4")):
    """Map onto R^2 from the warped product
    ``dx1^2 + e^{2x1}(dx2^2 + dx3^2) + dx4^2`` on the box ``[-1.5, 1.5]^4``."""
    entries = [
        ["1", "0", "0", "0"],
        ["0", "exp(2 * x1)", "0", "0"],
        ["0", "0", "exp(2 * x1)", "0"],
        ["0", "0", "0", "1"],
    ]
    M = ManifoldSpec(
        4, [[parse(s, 4) for s in row] for row in entries], box_domain(4, -1.5, 1.5)
    )
    N = euclidean_manifold(2, domain=box_domain(2, -10.0, 10.0))
    return SmoothMap(M, N, tuple(parse(s, 4) for s in components))


@pytest.fixture(scope="session")
def scenario_i():
    return build_scenario_i()


@pytest.fixture(scope="session")
def scenario_ii():
    return build_scenario_ii()


def circle_trajectory(M, n=200, step=1e-3, radius=1.0):
    """Samples of the unit-speed circle in the (x1, x2)-plane; not a geodesic."""
    from riemsub.geometry import GeodesicTrajectory

    t = step * np.arange(n)
    points = np.stack(
        [radius * np.cos(t), radius * np.sin(t), np.zeros(n), np.zeros(n)], axis=1
    )
    velocities = np.stack(
        [-radius * np.sin(t), radius * np.cos(t), np.zeros(n), np.zeros(n)], axis=1
    )
    return GeodesicTrajectory.from_samples(M, t, points, velocities, step)
