"""Property tests: compiled evaluation and analytic fundamental tensors.

The per-node ``Expr.eval`` walk is the reference for :class:`ExprArray`,
which must reproduce its values bit for bit and its errors word for word.
The finite-difference oracle of ``check_decompositions`` (covariant
derivatives of fields re-projected at displaced points) is the reference
for the analytic ``tensor_T`` / ``tensor_A``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemsub.expr import ExprArray, parse
from riemsub.geometry import VectorField, christoffel
from riemsub.submersion import (
    _covariant_projected,
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


@settings(max_examples=300, deadline=None)
@given(_expressions(infinite=False))
def test_print_parse_round_trip_is_exact(e):
    # Printing is the inverse of parsing up to the printed form: the printer
    # parenthesizes exactly where the grammar needs it.
    text = str(e)
    assert str(parse(text, 3)) == text


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


def test_constant_array_is_stored_read_only():
    arr = ExprArray((parse("1", 2), parse("2.5", 2)))
    assert arr.eval((0.0, 0.0)) is arr.eval((3.0, 4.0))
    with pytest.raises(ValueError):
        arr.eval((0.0, 0.0))[0] = 5.0


# ---------------------------------------------------------------------------
# Analytic tensors against the finite-difference oracle
# ---------------------------------------------------------------------------


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
