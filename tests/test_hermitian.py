import math
import random

import numpy as np
import pytest
from conftest import one_row

from riemsub.geometry import VectorField, sample_points
from riemsub.hermitian import (
    AlmostComplexField,
    check_nearly_kaehler,
    check_structure,
    nabla_phi,
)
from riemsub.presets import canonical_phi, euclidean_manifold, twisted_phi


@pytest.fixture(scope="module")
def r4():
    return euclidean_manifold(4)


@pytest.fixture(scope="module")
def canonical():
    return AlmostComplexField(canonical_phi())


@pytest.fixture(scope="module")
def twisted():
    return AlmostComplexField(twisted_phi())


@pytest.fixture(scope="module")
def samples(r4):
    return sample_points(r4.domain, 60, seed=42)


def test_canonical_frame_action(r4, canonical):
    p = (0.1, 0.2, 0.3, 0.4)
    phi = one_row(p, r4, J=canonical).phi[0]
    assert phi @ [1, 0, 0, 0] == pytest.approx([0, -1, 0, 0])
    assert phi @ [0, 1, 0, 0] == pytest.approx([1, 0, 0, 0])
    assert phi @ [0, 0, 1, 0] == pytest.approx([0, 0, 0, -1])
    assert phi @ [0, 0, 0, 1] == pytest.approx([0, 0, 1, 0])


def test_square_is_minus_identity(r4, canonical, twisted, samples):
    rng = np.random.default_rng(0)
    for J in (canonical, twisted):
        for p in samples[:20]:
            v = rng.standard_normal(4)
            phi = one_row(p, r4, J=J).phi[0]
            assert phi @ (phi @ v) == pytest.approx(-v, abs=1e-12)


def test_twisted_is_canonical_conjugated_by_rotation(canonical, twisted):
    # twisted-phi is R C R^T, C the canonical structure and R the rotation
    # of the (e2, e3) plane by x1; its only non-zero derivative is along x1,
    # R' C R^T + R C R'^T.  Each entry has at most one non-zero term, +-cos
    # or +-sin of x1, so the comparison is exact.
    C = canonical.matrix_at((0.0, 0.0, 0.0, 0.0))
    points = np.random.default_rng(11).uniform(-4.0, 4.0, size=(50, 4))
    for p in points:
        c, s = math.cos(p[0]), math.sin(p[0])
        R = np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])
        dR = np.array([[0, 0, 0, 0], [0, -s, -c, 0], [0, c, -s, 0], [0, 0, 0, 0]])
        assert np.array_equal(twisted.matrix_at(p), R @ C @ R.T)
        expected = np.zeros((4, 4, 4))
        expected[0] = dR @ C @ R.T + R @ C @ dR.T
        assert np.array_equal(twisted.derivs_at(p), expected)


def test_example_i_kernel_image(r4, canonical):
    # phi sends the fiber direction (e1 - e2) to -(e1 + e2).
    p = (0.0, 0.0, 0.0, 0.0)
    out = one_row(p, r4, J=canonical).phi[0] @ [1, -1, 0, 0]
    assert out == pytest.approx([-1, -1, 0, 0])


def test_nabla_phi_canonical_vanishes(r4, canonical, samples):
    rng = np.random.default_rng(1)
    for p in samples[:10]:
        X = rng.standard_normal(4)
        Y = VectorField.from_strings(["x2", "sin(x1)", "x4^2", "x3 * x1"], 4)
        assert abs(nabla_phi(r4, canonical, X, Y, p)).max() < 1e-12


def test_nabla_phi_twisted_value(r4, twisted):
    # Derivative along e1 of the conjugating rotation: the value is
    # (-sin(x1), 0, 0, cos(x1)), frozen from an oracle run.
    p = (0.7, 0.3, -0.2, 0.5)
    X = np.array([1.0, 0.0, 0.0, 0.0])
    Y = VectorField.constant([0.0, 1.0, 0.0, 0.0])
    out = nabla_phi(r4, twisted, X, Y, p)
    assert out == pytest.approx([-np.sin(0.7), 0.0, 0.0, np.cos(0.7)], abs=1e-12)


def test_nabla_phi_antisymmetry_iff_nearly_kaehler(r4, canonical, samples):
    rng = np.random.default_rng(2)
    for p in samples[:10]:
        xv = rng.standard_normal(4)
        yv = rng.standard_normal(4)
        X, Y = VectorField.constant(xv), VectorField.constant(yv)
        s = nabla_phi(r4, canonical, xv, Y, p) + nabla_phi(r4, canonical, yv, X, p)
        assert abs(s).max() < 1e-12


def test_nabla_phi_metric_antisymmetry(r4, canonical, twisted, samples):
    # g((nabla_X phi)Y, Z) = -g(Y, (nabla_X phi)Z): consequence of
    # compatibility alone, so it holds for the twisted structure too.
    rng = np.random.default_rng(3)
    for J in (canonical, twisted):
        for p in samples[:15]:
            g = r4.metric_at(p)
            xv = rng.standard_normal(4)
            yv = rng.standard_normal(4)
            zv = rng.standard_normal(4)
            dY = nabla_phi(r4, J, xv, VectorField.constant(yv), p)
            dZ = nabla_phi(r4, J, xv, VectorField.constant(zv), p)
            assert abs(float(dY @ g @ zv) + float(yv @ g @ dZ)) < 1e-8


def test_check_structure_canonical(r4, canonical, samples):
    rep = check_structure(r4, canonical, samples, rng=random.Random(4))
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_check_structure_twisted(r4, twisted, samples):
    rep = check_structure(r4, twisted, samples, rng=random.Random(5))
    assert rep.passed


def test_check_structure_identity_matrix_fails(r4, samples):
    from riemsub.expr import Const

    eye = AlmostComplexField(
        [[Const(1.0 if i == j else 0.0) for j in range(4)] for i in range(4)]
    )
    rep = check_structure(r4, eye, samples[:5], rng=random.Random(6))
    assert not rep.passed
    assert rep.details["square_residual"] > 1.0


def test_check_structure_empty_samples(r4, canonical):
    with pytest.raises(ValueError):
        check_structure(r4, canonical, np.empty((0, 4)))


def test_check_nearly_kaehler_canonical(r4, canonical, samples):
    rep = check_nearly_kaehler(r4, canonical, samples, rng=random.Random(7))
    assert rep.passed
    assert rep.details["kaehler"]
    assert rep.max_residual < 1e-12
    assert rep.details["kaehler_residual"] < 1e-12


def test_check_nearly_kaehler_twisted_fails(r4, twisted, samples):
    rep = check_nearly_kaehler(r4, twisted, samples, rng=random.Random(8))
    assert not rep.passed
    per_sample = np.array(rep.details["per_sample"])
    assert (per_sample > 1e-3).mean() >= 0.9


def test_kaehler_zero_implies_nearly_kaehler_zero(r4, canonical, twisted, samples):
    for J in (canonical, twisted):
        rep = check_nearly_kaehler(r4, J, samples, rng=random.Random(9))
        nk = np.array(rep.details["per_sample"])
        ka = np.array(rep.details["kaehler_per_sample"])
        mask = ka <= 1e-10
        assert (nk[mask] <= 2e-10).all()


def test_symmetrized_self_term(r4, canonical, samples):
    # X = Y gives twice the single derivative; zero for the parallel preset.
    for p in samples[:5]:
        X = VectorField.constant([0.3, -0.8, 0.1, 0.5])
        out = nabla_phi(r4, canonical, X.at(p), X, p)
        assert abs(2.0 * out).max() < 1e-12
