import numpy as np
import pytest
from conftest import metric_norm, one_row

from riemsub.expr import parse
from riemsub.geometry import (
    ExclusionTube,
    VectorField,
    box_domain,
    covariant_derivative,
    gradient,
    sample_points,
)
from riemsub.presets import (
    euclidean_manifold,
    map_example_i_components,
    map_example_ii_components,
)
from riemsub.state import _oneill
from riemsub.submersion import (
    RankDeficiencyError,
    SmoothMap,
    _sff,
    build_frame,
    check_decompositions,
    check_skew,
    check_submersion,
    fiber_character,
    tensor_A,
    tensor_T,
)

SQ2 = np.sqrt(2.0)


def _target_r3():
    return euclidean_manifold(3, domain=box_domain(3, -10.0, 10.0))


@pytest.fixture(scope="module")
def map_i():
    return SmoothMap(euclidean_manifold(4), _target_r3(), map_example_i_components())


@pytest.fixture(scope="module")
def map_ii():
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.1)
    source = euclidean_manifold(4, domain=box_domain(4, -4.0, 4.0, tubes=[tube]))
    return SmoothMap(source, _target_r3(), map_example_ii_components())


@pytest.fixture(scope="module")
def samples_ii(map_ii):
    return sample_points(map_ii.source.domain, 50, seed=42)


def test_differential_example_i(map_i):
    J = map_i.jacobian_at((0.3, 0.7, -1.0, 0.2))
    expected = np.array(
        [[1 / SQ2, 1 / SQ2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert abs(J - expected).max() < 1e-15


def test_differential_example_ii(map_ii):
    J = map_ii.jacobian_at((1.0, 1.0, 0.0, 0.0))
    assert J[0] == pytest.approx([1 / SQ2, 1 / SQ2, 0.0, 0.0], abs=1e-14)
    assert J[1] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-15)
    assert J[2] == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)


def test_differential_coordinate_projection():
    # Identity-block case: projecting onto the first three coordinates.
    F = SmoothMap(
        euclidean_manifold(4), _target_r3(), tuple(parse(s, 4) for s in ["x1", "x2", "x3"])
    )
    J = F.jacobian_at((0.5, -0.1, 0.9, 0.2))
    assert abs(J - np.eye(3, 4)).max() == 0.0


def test_equal_dimensions_rejected():
    with pytest.raises(ValueError):
        SmoothMap(
            euclidean_manifold(3, domain=box_domain(3, -1.0, 1.0)),
            _target_r3(),
            tuple(parse(s, 3) for s in ["x1", "x2", "x3"]),
        )


def test_frame_example_i(map_i):
    fr = build_frame(map_i, (0.2, -0.5, 1.0, 0.3))
    assert fr.vertical.shape == (1, 4)
    assert fr.vertical[0] == pytest.approx([1 / SQ2, -1 / SQ2, 0.0, 0.0], abs=1e-12)


def test_frame_example_ii_sign_rule(map_ii):
    fr = build_frame(map_ii, (1.0, 1.0, 0.0, 0.0))
    assert fr.vertical[0] == pytest.approx([1 / SQ2, -1 / SQ2, 0.0, 0.0], abs=1e-12)


def test_frame_gram_orthonormal(map_ii, samples_ii):
    for p in samples_ii[:20]:
        fr = build_frame(map_ii, p)
        basis = np.vstack([fr.vertical, fr.horizontal])
        gram = basis @ fr.metric @ basis.T
        assert abs(gram - np.eye(4)).max() < 1e-10


def test_vertical_frame_in_jacobian_kernel(map_ii, samples_ii):
    for p in samples_ii:
        fr = build_frame(map_ii, p)
        J = map_ii.jacobian_at(p)
        smax = np.linalg.svd(J, compute_uv=False)[0]
        for v in fr.vertical:
            assert np.linalg.norm(J @ v) < 1e-8 * smax


def test_rank_deficiency_reported():
    comps = tuple(parse(s, 4) for s in ["x1", "x1", "x3"])
    F = SmoothMap(euclidean_manifold(4), _target_r3(), comps)
    with pytest.raises(RankDeficiencyError) as err:
        build_frame(F, (0.5, 0.5, 0.0, 0.0))
    assert err.value.rank == 2


def test_check_submersion_fixtures(map_i, map_ii, samples_ii):
    samples = sample_points(map_i.source.domain, 50, seed=1)
    assert check_submersion(map_i, samples).passed
    assert check_submersion(map_ii, samples_ii).passed


def test_check_submersion_rejects_stretch():
    comps = tuple(parse(s, 4) for s in ["2 * x1", "x3", "x4"])
    F = SmoothMap(euclidean_manifold(4), _target_r3(), comps)
    report = check_submersion(F, [(0.1, 0.2, 0.3, 0.4)])
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0, abs=1e-10)


def test_project_round_trip(map_ii, samples_ii):
    rng = np.random.default_rng(3)
    for p in samples_ii[:20]:
        fr = build_frame(map_ii, p)
        v = rng.standard_normal(4)
        vert, horiz = fr.vertical_part(v), fr.horizontal_part(v)
        assert abs(vert + horiz - v).max() < 1e-10
        assert abs(fr.vertical_part(vert) - vert).max() < 1e-10
        assert abs(fr.vertical_part(horiz)).max() < 1e-10


def test_project_fixed_vectors(map_i):
    fr = build_frame(map_i, (0.0, 0.0, 0.0, 0.0))
    v_vert = np.array([1.0, -1.0, 0.0, 0.0])
    vert, horiz = fr.vertical_part(v_vert), fr.horizontal_part(v_vert)
    assert abs(vert - v_vert).max() < 1e-12
    assert abs(horiz).max() < 1e-12
    v_horiz = np.array([1.0, 1.0, 2.0, 0.0])
    vert, horiz = fr.vertical_part(v_horiz), fr.horizontal_part(v_horiz)
    assert abs(vert).max() < 1e-12
    assert abs(horiz - v_horiz).max() < 1e-12


def test_tensor_T_example_i_vanishes(map_i):
    fr = build_frame(map_i, (0.4, 0.1, -0.2, 0.9))
    v = fr.vertical[0]
    out = tensor_T(map_i, v, v, fr.point, fr)
    assert abs(out).max() < 1e-12


def test_tensor_T_example_ii_value(map_ii):
    p = np.array([1.0, 1.0, 0.0, 0.0])
    fr = build_frame(map_ii, p)
    v = fr.vertical[0]
    out = tensor_T(map_ii, v, v, p, fr)
    assert out == pytest.approx([-0.5, -0.5, 0.0, 0.0], abs=1e-9)
    # Cross-check: the fiber field is Expr-expressible and unit-length, so
    # T agrees with the full covariant derivative (the result is horizontal).
    X1 = VectorField.from_strings(
        ["x2 / sqrt(x1^2 + x2^2)", "-x1 / sqrt(x1^2 + x2^2)", "0", "0"], 4
    )
    assert out == pytest.approx(covariant_derivative(map_ii.source, X1, X1, p), abs=1e-9)
    assert abs(fr.vertical_part(out)).max() < 1e-10


def test_tensor_T_flat_constant_horizontal(map_i):
    p = np.array([0.1, 0.2, 0.3, 0.4])
    fr = build_frame(map_i, p)
    out = tensor_T(map_i, fr.vertical[0], np.array([1.0, 1.0, 0.0, 0.0]), p, fr)
    assert abs(out).max() < 1e-12


def test_tensor_A_example_i_vanishes(map_i):
    p = np.array([0.0, 0.3, 0.6, -0.2])
    fr = build_frame(map_i, p)
    for e in np.vstack([fr.vertical, fr.horizontal]):
        for f in np.vstack([fr.vertical, fr.horizontal]):
            assert abs(tensor_A(map_i, e, f, p, fr)).max() < 1e-12


def test_tensor_A_basic_field_identity(map_ii, samples_ii):
    # For a basic field X, A_X V equals the horizontal part of nabla_V X.
    radial = VectorField.from_strings(
        ["x1 / sqrt(x1^2 + x2^2)", "x2 / sqrt(x1^2 + x2^2)", "0", "0"], 4
    )
    for p in samples_ii[:15]:
        fr = build_frame(map_ii, p)
        v = fr.vertical[0]
        lhs = tensor_A(map_ii, radial.at(p), v, p, fr)
        rhs = fr.horizontal_part(covariant_derivative(map_ii.source, v, radial, p))
        assert metric_norm(fr.metric, lhs - rhs) < 1e-8


def test_check_skew(map_i, map_ii, samples_ii):
    samples = sample_points(map_i.source.domain, 40, seed=2)
    rep_i = check_skew(map_i, samples, rng=np.random.default_rng(2))
    assert rep_i.passed and rep_i.max_residual < 1e-12
    rep_ii = check_skew(map_ii, samples_ii, rng=np.random.default_rng(2))
    assert rep_ii.passed
    assert rep_ii.max_residual < 1e-8


def test_check_decompositions(map_i, map_ii, samples_ii):
    samples = sample_points(map_i.source.domain, 30, seed=3)
    assert check_decompositions(map_i, samples).passed
    rep = check_decompositions(map_ii, samples_ii)
    assert rep.passed
    assert rep.max_residual < 1e-8


def test_sff_example_i_horizontal_pairs(map_i):
    p = np.array([0.3, -0.4, 0.2, 0.6])
    st = one_row(p, map_i.source, map_i)
    for x in st.horizontal[0]:
        for y in st.horizontal[0]:
            out = _sff(st, x[None], y[None])[0]
            assert abs(out).max() < 1e-12


def test_sff_vertical_identity(map_ii, samples_ii):
    # (nabla push)(V, W) = -push(T_V W) for vertical V, W.
    for p in samples_ii[:15]:
        st = one_row(p, map_ii.source, map_ii)
        v = st.vertical[:, 0]
        lhs = _sff(st, v, v)[0]
        rhs = -map_ii.jacobian_at(p) @ _oneill(st, "T", v, v)[0]
        assert abs(lhs - rhs).max() < 1e-8


def test_sff_zero_field(map_ii):
    zero = VectorField.constant([0.0, 0.0, 0.0, 0.0])
    p = (1.0, 0.5, 0.2, 0.1)
    st = one_row(p, map_ii.source, map_ii)
    out = _sff(st, zero.at(p)[None], zero.at(p)[None], zero.jacobian_at(p)[None])[0]
    assert abs(out).max() == 0.0


def test_fiber_character_example_i(map_i):
    samples = sample_points(map_i.source.domain, 30, seed=4)
    rep = fiber_character(map_i, samples)
    assert rep.passed
    assert rep.details["totally_geodesic"]
    assert rep.details["fiber_dim"] == 1
    assert rep.details["geodesic_residual"] < 1e-12


def test_fiber_character_example_ii(map_ii):
    rep = fiber_character(map_ii, [(1.0, 1.0, 0.0, 0.0)])
    assert rep.passed
    assert rep.details["totally_umbilical"]
    assert not rep.details["totally_geodesic"]
    H = np.array(rep.details["mean_curvature"][0])
    assert H == pytest.approx([-0.5, -0.5, 0.0, 0.0], abs=1e-9)
    # Bishop's mean curvature value: H = -grad f for f = ln(r).
    f = parse("ln(sqrt(x1^2 + x2^2))", 4)
    assert H == pytest.approx(-gradient(map_ii.source, f, (1.0, 1.0, 0.0, 0.0)), abs=1e-9)
