"""Property tests: compiled evaluation, exact derivatives, frames and the
analytic fundamental tensors.

The per-node ``Expr.eval`` walk is the reference for :class:`ExprArray`,
which must reproduce its values bit for bit and its errors word for word.
The one-point helpers (``build_frame``, ``tensor_T``, ``tensor_A``,
``nabla_phi``) are the reference for the stacked per-sample state, row by
row.
Central differences (``fd_derivative``) are the reference for the exact
derivatives of ``differentiate``.  Every frame must be g-orthonormal with
complementary projectors.  The finite-difference oracle of
``check_decompositions`` (covariant derivatives of fields re-projected at
displaced points) is the reference for the analytic ``tensor_T`` /
``tensor_A``.  Negating frame basis vectors must leave every sample-point
check's record the same to the bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riemsub.expr import (
    FD_REL_STEP,
    Div,
    DomainError,
    ExprArray,
    Func,
    Pow,
    differentiate,
    fd_derivative,
    parse,
    partials,
)
from riemsub.cli import CHECKS, _Run, _run_checks, run_scenario
from riemsub.geometry import VectorField, christoffel, sample_points
from riemsub.hermitian import AlmostComplexField, _nabla_phi, nabla_phi
from riemsub.presets import canonical_phi
from riemsub.scenario import load_scenario, resolve_scenario_path
from riemsub.state import STENCIL_OFFSETS, SampleState, _oneill, stencil_points
from riemsub.submersion import (
    _projected_derivative,
    build_frame,
    tensor_A,
    tensor_T,
)

from conftest import build_scenario_ii, build_warped_map

# ---------------------------------------------------------------------------
# Compiled evaluation against the tree walk
# ---------------------------------------------------------------------------

def _expressions(infinite: bool):
    """Random parsed expressions over x1..x3; with ``infinite``, the
    literal 1e400 (an infinite constant) is among the atoms and exponents."""
    atoms = ["x1", "x2", "x3", "0", "1", "2.5", "0.5", "1e-3"]
    exponents = ["2", "3", "0.5", "-1", "-0.5", "0"]
    if infinite:
        atoms.append("1e400")
        exponents.append("-1e400")

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(st.sampled_from(["sqrt", "ln", "exp", "sin", "cos"]), children).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            st.tuples(children, st.sampled_from(exponents)).map(
                lambda t: f"({t[0]})^{t[1]}"
            ),
            children.map(lambda s: f"-({s})"),
        )

    strings = st.recursive(st.sampled_from(atoms), extend, max_leaves=10)
    return strings.map(lambda s: parse(s, 3))


expressions = _expressions(infinite=True)
# Zeros and negatives reach the sqrt / ln / division / power singularities;
# large coordinates reach exp and power overflow.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 800.0]),
    st.floats(-5.0, 5.0, allow_nan=False),
)
points = st.tuples(coordinates, coordinates, coordinates)


def _outcome(evaluate):
    try:
        values = np.asarray(evaluate(), dtype=float)
    except Exception as exc:  # compare whatever the reference raises
        return type(exc).__name__, str(exc)
    # The sign of a NaN is not reproducible even between two walks of one
    # tree (CPython's specialized float operations order operands
    # differently), so all NaNs compare equal; every other bit must match.
    return "value", np.where(np.isnan(values), np.nan, values).tobytes()


@settings(max_examples=300, deadline=None)
@given(expressions, points)
def test_compiled_matches_tree_walk_bit_for_bit(e, p):
    # The expression with its partial derivatives: shared subtrees, so the
    # compiled function reuses values across entries.
    entries = (e,) + tuple(e.diff(i) for i in (1, 2, 3))
    reference = _outcome(lambda: [x.eval(p) for x in entries])
    assert _outcome(lambda: ExprArray(entries).eval(p)) == reference
    # The derivative builder: the same trees along a new last axis.
    reference = _outcome(lambda: [x.eval(p) for x in entries[1:]])
    assert _outcome(lambda: ExprArray((e,)).diff(3).eval(p)) == reference


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_print_parse_round_trip_is_exact(e):
    # Printing is the inverse of parsing up to the printed form: the printer
    # parenthesizes exactly where the grammar needs it, and an infinite
    # constant prints as a literal that overflows back to it.
    text = str(e)
    assert str(parse(text, 3)) == text


# ---------------------------------------------------------------------------
# Exact derivatives against central differences
# ---------------------------------------------------------------------------


def _subexpressions(e):
    yield e
    for name in ("a", "b", "base", "arg"):
        child = getattr(e, name, None)
        if child is not None:
            yield from _subexpressions(child)


def _singular_arguments(e):
    """The subexpressions of ``e`` at whose zeros ``e`` need not be smooth:
    denominators, the arguments of sqrt and ln, and the bases of powers
    other than non-negative integers."""
    for s in _subexpressions(e):
        if isinstance(s, Div):
            yield s.b
        elif isinstance(s, Func) and s.name in ("sqrt", "ln"):
            yield s.arg
        elif isinstance(s, Pow) and not (s.exponent >= 0 and s.exponent.is_integer()):
            yield s.base


def _clear_of_zero(values) -> bool:
    """Whether values across a stencil stay twice their spread away from
    zero, so the stencil does not reach a singularity or a kink such as
    sqrt(x1^2) at x1 = 0."""
    return min(map(abs, values)) > 2.0 * (max(values) - min(values))


_fd_coordinates = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-3.0, 3.0, allow_nan=False)
)


@settings(max_examples=1000, deadline=None)
@given(_expressions(infinite=False), st.tuples(*[_fd_coordinates] * 3))
def test_differentiate_matches_fd_derivative(e, p):
    compared = 0
    for i in (1, 2, 3):
        h = FD_REL_STEP * max(1.0, abs(p[i - 1]))
        stencil = [
            tuple(x + t * h if k == i - 1 else x for k, x in enumerate(p))
            for t in (-1.0, 0.0, 1.0)
        ]
        d1 = differentiate(e, i)
        d3 = differentiate(differentiate(d1, i), i)
        try:
            approx = fd_derivative(e, i, p)
            exact = d1.eval(p)
            size = max(abs(s.eval(q)) for s in _subexpressions(e) for q in stencil)
            curvature = max(abs(d3.eval(q)) for q in stencil)
            clear = all(
                _clear_of_zero([y.eval(q) for q in stencil]) for y in _singular_arguments(e)
            )
        except DomainError:
            continue
        # Rounding in the two evaluations grows with the largest intermediate
        # value; keep it small next to the step.  An overflowing third
        # derivative leaves no truncation bound.
        if size > 1e3 or not clear or not np.isfinite(curvature):
            continue
        # Truncation error h^2/6 |f'''| (bounded with margin over the
        # stencil) plus that rounding.
        assert abs(approx - exact) <= h * h * curvature + 1e-6 * (1.0 + size), i
        compared += 1
    assume(compared)


def test_compiled_array_keeps_shape_and_reports_first_singular_node():
    e = parse("ln(x1) / x2 + x1^-2", 2)
    arr = ExprArray(((e, e.diff(1)), (e.diff(2), parse("7", 2))))
    assert arr.eval((1.0, 2.0)).shape == (2, 2)
    for p in [(1.0, 0.0), (0.0, 1.0), (-1.0, 2.0)]:
        assert _outcome(lambda: arr.eval(p)) == _outcome(
            lambda: [x.eval(p) for x in arr.entries]
        )
    assert "division by zero in ln(x1) / x2" in _outcome(lambda: arr.eval((1.0, 0.0)))[1]


def test_compiled_keeps_operations_on_equal_operands_apart():
    texts = ["x1 + x2", "x1 - x2", "x1 * x2", "x1 / x2", "x2 / x1", "-x1", "x1^2",
             "x1^3", "sqrt(x1)", "ln(x1)", "exp(x1)", "sin(x1)", "cos(x1)"]
    entries = tuple(parse(t, 2) for t in texts)
    p = (0.7, 1.9)
    assert ExprArray(entries).eval(p).tolist() == [e.eval(p) for e in entries]


def test_derivative_accessors_match_tree_walk_bit_for_bit():
    # Each accessor at a seeded stack of 5 points against the walk of the
    # derivative tree its documented layout names, entry by entry.
    warped = load_scenario(Path(__file__).parents[1] / "perfbench/scenarios/warped-product.yaml").scenario
    ex2 = load_scenario(resolve_scenario_path("example-ii")).scenario
    Pw = sample_points(warped.M.domain, 5, seed=11)
    P = sample_points(ex2.M.domain, 5, seed=11)
    X = VectorField.from_strings(["x2 * x3", "sin(x1) * x4", "exp(x4)", "sqrt(x1^2 + x2^2)"], 4)
    cases = [
        (warped.M.metric_derivs_at(Pw), Pw, lambda l, i, j: warped.M.metric[i][j].diff(l + 1)),
        (warped.J.derivs_at(Pw), Pw, lambda l, i, j: warped.J.entries[i][j].diff(l + 1)),
        (ex2.F.jacobian_at(P), P, lambda a, i: ex2.F.components[a].diff(i + 1)),
        (ex2.F.jacobian_derivs_at(P), P,
         lambda a, i, j: ex2.F.components[a].diff(i + 1).diff(j + 1)),
        (X.jacobian_at(P), P, lambda k, i: X.components[k].diff(i + 1)),
        (partials(ex2.f, 4).eval(P), P, lambda i: ex2.f.diff(i + 1)),
    ]
    for values, points, entry in cases:
        walk = [[entry(*idx).eval(p) for idx in np.ndindex(values.shape[1:])] for p in points]
        assert values.shape[0] == len(points)
        assert values.tobytes() == np.array(walk).tobytes()
    # A nested list is a stack of points too.
    assert partials(ex2.f, 4).eval(P.tolist()).tobytes() == partials(ex2.f, 4).eval(P).tobytes()


def test_constant_array_is_stored_read_only():
    arr = ExprArray((parse("1", 2), parse("2.5", 2)))
    assert arr.eval((0.0, 0.0)) is arr.eval((3.0, 4.0))
    with pytest.raises(ValueError):
        arr.eval((0.0, 0.0))[0] = 5.0


# ---------------------------------------------------------------------------
# Analytic tensors against the finite-difference oracle
# ---------------------------------------------------------------------------


def _covariant_projected(F, direction, Fld: VectorField, p, gamma, part: str) -> np.ndarray:
    """``nabla_direction`` at the point ``p`` of the projected field
    ``q -> proj_q(Fld(q))``: the one-point case of the oracle."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(direction, dtype=float)
    st = SampleState(p[None], F.source, F)
    st.christoffel = np.asarray(gamma, dtype=float)[None]
    disp = SampleState(stencil_points(p, u), F.source, F)
    return _projected_derivative(st, disp, u[None], Fld.at(p)[None], Fld.at(disp.points), part)[0]


def _stencil_tensor(F, E, Fld, p, kind):
    """``H nabla_u(V Fld) + V nabla_u(H Fld)`` with stencil derivatives."""
    fr = build_frame(F, p)
    gamma = christoffel(F.source, p)
    u = fr.vertical_part(E) if kind == "T" else fr.horizontal_part(E)
    if not isinstance(Fld, VectorField):
        Fld = VectorField.constant(Fld)
    d_vert = _covariant_projected(F, u, Fld, p, gamma, "vertical")
    d_horiz = _covariant_projected(F, u, Fld, p, gamma, "horizontal")
    return fr.horizontal_part(d_vert) + fr.vertical_part(d_horiz)


def _assert_tensors_match_stencil(F, p, seed, field=None):
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(F.source.dim)
    Fld = field if field is not None else rng.standard_normal(F.source.dim)
    for kind, tensor in (("T", tensor_T), ("A", tensor_A)):
        analytic = tensor(F, E, Fld, p)
        oracle = _stencil_tensor(F, E, Fld, p, kind)
        assert abs(analytic - oracle).max() <= 1e-8, (kind, p)


_RADIUS_MAP = build_scenario_ii().F
_FIELD = VectorField.from_strings(["x2", "x1 * x3", "sin(x4)", "1"], 4)
_seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.3, 3.0),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    _seeds,
)
def test_analytic_tensors_match_stencil_example_ii(r, angle, x3, x4, seed):
    p = np.array([r * np.cos(angle), r * np.sin(angle), x3, x4])
    _assert_tensors_match_stencil(_RADIUS_MAP, p, seed)
    _assert_tensors_match_stencil(_RADIUS_MAP, p, seed, _FIELD)


_signs = st.sampled_from([1.0, -1.0])


@settings(max_examples=20, deadline=None)
@given(st.floats(0.3, 2.5), _signs, _signs, st.floats(-3.0, 3.0), _seeds)
def test_analytic_tensors_match_stencil_at_ties(a, s1, s2, x3, seed):
    # |x1| = |x2|: the largest frame components tie under the sign rule.
    p = np.array([s1 * a, s2 * a, x3, 0.2])
    _assert_tensors_match_stencil(_RADIUS_MAP, p, seed)


# Over (x1, x4) the fibers are coordinate planes and the projector is
# constant; over (x1 + x2, x4) it varies with the metric.
_WARPED_MAPS = [build_warped_map(), build_warped_map(("x1 + x2", "x4"))]
_box = st.floats(-1.5, 1.5)


@settings(max_examples=30, deadline=None)
@given(_box, _box, _box, _box, _seeds)
def test_analytic_tensors_match_stencil_warped(x1, x2, x3, x4, seed):
    p = np.array([x1, x2, x3, x4])
    for F in _WARPED_MAPS:
        _assert_tensors_match_stencil(F, p, seed)
        _assert_tensors_match_stencil(F, p, seed, _FIELD)


# ---------------------------------------------------------------------------
# Frames: g-orthonormal bases and complementary projectors
# ---------------------------------------------------------------------------


def _assert_frame_splits(F, p):
    fr = build_frame(F, p)
    g, eye = fr.metric, np.eye(len(p))
    basis = np.vstack([fr.vertical, fr.horizontal])
    assert abs(basis @ g @ basis.T - eye).max() <= 1e-10, p
    assert abs(F.jacobian_at(p) @ fr.vertical.T).max() <= 1e-10, p
    # P_V through the frame's own projection; P_H from the horizontal basis.
    P_V = np.column_stack([fr.vertical_part(e) for e in eye])
    P_H = fr.horizontal.T @ fr.horizontal @ g
    assert abs(P_V @ P_V - P_V).max() <= 1e-10, p
    assert abs(P_V + P_H - eye).max() <= 1e-10, p


@settings(max_examples=100, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.0, 2.0 * np.pi), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_frame_splits_example_ii(r, angle, x3, x4):
    _assert_frame_splits(_RADIUS_MAP, np.array([r * np.cos(angle), r * np.sin(angle), x3, x4]))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.3, 2.5), _signs, _signs, st.floats(-3.0, 3.0))
def test_frame_splits_at_ties(a, s1, s2, x3):
    _assert_frame_splits(_RADIUS_MAP, np.array([s1 * a, s2 * a, x3, 0.2]))


@settings(max_examples=50, deadline=None)
@given(_box, _box, _box, _box)
def test_frame_splits_warped(x1, x2, x3, x4):
    for F in _WARPED_MAPS:
        _assert_frame_splits(F, np.array([x1, x2, x3, x4]))


# ---------------------------------------------------------------------------
# The stacked per-sample state against the one-point helpers, row by row
# ---------------------------------------------------------------------------

_PHI = AlmostComplexField(canonical_phi())


def _assert_state_matches_points(F, points, seed):
    points = np.array(points, dtype=float)
    st = SampleState(points, F.source, F, _PHI)
    rng = np.random.default_rng(seed)
    e, f = rng.standard_normal((2, len(points), F.source.dim))
    stacked = {
        "T": _oneill(st, "T", e, f),
        "A": _oneill(st, "A", e, f),
        "nabla_phi": _nabla_phi(st, e, f),
    }
    for i, p in enumerate(points):
        fr = build_frame(F, p)
        assert st.vertical[i].tobytes() == fr.vertical.tobytes(), p
        assert abs(st.horizontal[i] - fr.horizontal).max() <= 1e-15, p
        assert abs(st.metric[i] - fr.metric).max() <= 1e-15, p
        one = {
            "T": tensor_T(F, e[i], f[i], p),
            "A": tensor_A(F, e[i], f[i], p),
            "nabla_phi": nabla_phi(F.source, _PHI, e[i], f[i], p),
        }
        for name, value in one.items():
            scale = max(1.0, abs(value).max())
            assert abs(stacked[name][i] - value).max() <= 1e-14 * scale, (name, p)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.3, 3.0), st.floats(0.0, 2.0 * np.pi), st.floats(-3.0, 3.0),
                  st.floats(-3.0, 3.0)),
        min_size=1, max_size=6,
    ),
    _seeds,
)
def test_state_matches_one_point_example_ii(polar, seed):
    points = [(r * np.cos(a), r * np.sin(a), x3, x4) for r, a, x3, x4 in polar]
    _assert_state_matches_points(_RADIUS_MAP, points, seed)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(0.3, 2.5), _signs, _signs, st.floats(-3.0, 3.0)),
                min_size=1, max_size=6), _seeds)
def test_state_matches_one_point_at_ties(ties, seed):
    points = [(s1 * a, s2 * a, x3, 0.2) for a, s1, s2, x3 in ties]
    _assert_state_matches_points(_RADIUS_MAP, points, seed)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(_box, _box, _box, _box), min_size=1, max_size=6), _seeds)
def test_state_matches_one_point_warped(points, seed):
    for F in _WARPED_MAPS:
        _assert_state_matches_points(F, points, seed)


def _verdicts(report):
    return [(c.name, c.verdict) for c in report.checks]


def test_one_or_two_samples_give_the_default_verdicts():
    # A sample axis of length 1 or 2 must not be squeezed away.
    path = resolve_scenario_path("example-ii")
    expected = _verdicts(run_scenario(path))
    assert all(verdict == "pass" for _, verdict in expected)
    for count in (1, 2):
        report = run_scenario(path, samples=count)
        assert report.sample_count == count
        assert _verdicts(report) == expected


# ---------------------------------------------------------------------------
# Verdicts that do not depend on the signs of the frame vectors
# ---------------------------------------------------------------------------

_SIGN_SCENARIOS = {
    name: load_scenario(resolve_scenario_path(name)).scenario
    for name in ("example-i", "example-ii", "h2xh2",
                 str(Path(__file__).parents[1] / "perfbench/scenarios/warped-product.yaml"))
}
_SIGN_POINTS = 60


def _flip(state, part, flip):
    basis = getattr(state, part)
    setattr(state, part, np.where(flip[..., None], -basis, basis))


def _point_checks(sc, flips=None) -> str:
    """Machine records of the check table's sample-point checks at 60 points
    of the scenario's seed.  ``flips`` holds boolean arrays that mark the
    basis vectors to negate before any check reads them: the vertical and
    the horizontal ones, then the vertical ones of each state at the
    stencil points along a vertical basis vector."""
    rngs = [np.random.default_rng(x) for x in np.random.SeedSequence(sc.sampling.seed).spawn(5)]
    state = SampleState(sample_points(sc.M.domain, _SIGN_POINTS, rngs[0]), sc.M, sc.F, sc.J, sc.f)
    if flips is not None:
        vertical, horizontal, *stencils = flips
        _flip(state, "vertical", vertical)
        _flip(state, "horizontal", horizontal)
        for disp, flip in zip(state.vertical_stencils, stencils):
            _flip(disp, "vertical", flip)
    entries = [e for e in CHECKS if not e[0].startswith("geodesic-")]
    reports = _run_checks(entries, _Run(sc, sc.tolerances, rngs, state, {}))
    return json.dumps([r.to_dict() for r in reports])


_UNFLIPPED = {name: _point_checks(sc) for name, sc in _SIGN_SCENARIOS.items()}


@st.composite
def _sign_patterns(draw):
    name = draw(st.sampled_from(sorted(_SIGN_SCENARIOS)))
    sc = _SIGN_SCENARIOS[name]
    k, n, N = sc.M.dim - sc.N.dim, sc.N.dim, _SIGN_POINTS
    shapes = [(N, k), (N, n)] + [(len(STENCIL_OFFSETS) * N, k)] * k
    return name, [draw(arrays(bool, shape)) for shape in shapes]


@settings(max_examples=20, deadline=None)
@given(_sign_patterns())
def test_point_checks_do_not_depend_on_frame_signs(pattern):
    # Negation is exact in IEEE arithmetic, and every check reads the frame
    # vectors through sign-symmetric products, the sign rule or the
    # basicness test's alignment with the base vector, so each record,
    # residuals and details included, is the same to the bit.
    name, flips = pattern
    assert _point_checks(_SIGN_SCENARIOS[name], flips) == _UNFLIPPED[name]
