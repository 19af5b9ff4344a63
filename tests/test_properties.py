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

import contextlib
import json
import math
import random
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riemsub import expr
from riemsub.expr import (
    BLOCK,
    FD_REL_STEP,
    Add,
    Const,
    Div,
    DomainError,
    ExprArray,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    differentiate,
    fd_derivative,
    parse,
    partials,
)
from riemsub.cli import CHECKS, _Run, _run_checks, run_scenario, streams
from riemsub.geometry import ExclusionTube, VectorField, box_domain, christoffel, sample_points, uniforms
from riemsub.hermitian import AlmostComplexField, _nabla_phi, nabla_phi
from riemsub.presets import canonical_phi
from riemsub.scenario import load_scenario, resolve_scenario_path
from riemsub.state import (
    FRAME_RTOL,
    STENCIL_OFFSETS,
    RankDeficiencyError,
    SampleState,
    _oneill,
    back_solve,
    cholesky,
    forward_solve,
    null_rows,
    stencil_points,
    vertical_bases,
)
from riemsub.submersion import (
    _projected_derivative,
    build_frame,
    tensor_A,
    tensor_T,
)

from conftest import build_scenario_ii, build_warped_map, no_tree_walk

# ---------------------------------------------------------------------------
# The built-in functions
# ---------------------------------------------------------------------------

# Where each built-in function is undefined, written out one by one as
# ``Func.eval`` once tested it, with its message and its ``math`` value.
# ``math.exp`` overflows exactly above the log of the largest float, and
# returns inf at inf.
_DOMAINS = {
    "sqrt": (lambda v: v < 0.0, "square root of a negative value", math.sqrt),
    "ln": (lambda v: v <= 0.0, "logarithm of a non-positive value", math.log),
    "exp": (lambda v: math.isfinite(v) and v > math.log(sys.float_info.max), "exponential overflows", math.exp),
    "sin": (math.isinf, "sin of an infinite value", math.sin),
    "cos": (math.isinf, "cos of an infinite value", math.cos),
}


@pytest.mark.parametrize("name", sorted(_DOMAINS))
@settings(max_examples=200, deadline=None)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(math.log(sys.float_info.max))
@example(math.nextafter(math.log(sys.float_info.max), math.inf))
def test_function_table_matches_the_domains(name, v):
    undefined, message, reference = _DOMAINS[name]
    e = Func(name, Var(1))
    if undefined(v):
        with pytest.raises(DomainError) as err:
            e.eval([v])
        assert str(err.value) == f"{message} in {name}(x1)"
    else:
        # repr tells -0.0 from 0.0, and reads every NaN as nan.
        assert repr(e.eval([v])) == repr(reference(v))


def test_function_error_names_its_own_node():
    e = parse("sqrt(ln(x1 - 2))", 1)
    with pytest.raises(DomainError, match=r"^logarithm of a non-positive value in ln\(x1 - 2.0\)$"):
        e.eval([1.0])
    with pytest.raises(DomainError, match=r"^square root of a negative value in sqrt\(ln\(x1 - 2.0\)\)$"):
        e.eval([2.5])
    # Only the function's own call is its domain error: a point that is not
    # a number raises as it does in Var.eval.
    with pytest.raises(ValueError, match="could not convert"):
        e.eval(["two"])


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


def _walk_values(entries, p):
    """The reference: each entry's ``Expr.eval`` at the point ``p``."""
    return [x.eval(p) for x in entries]


def _float_values(entries, p):
    """The entries at ``p`` (three coordinates) through their float-mode
    code from ``expr._walk``, generated as ``SamplingDomain._inside`` and
    ``geometry._rk4_loop`` generate theirs; where that code raises, the
    walk raises the reference error, as ``_inside`` does."""
    lines, results, constants = expr._walk(entries, lambda i: f"x{i}", "t")
    body = "".join(f"    {line}\n" for line in lines)
    f = expr._define(f"def _f(x1, x2, x3):\n{body}    return ({', '.join(results)},)\n", constants)
    try:
        return f(*map(float, p))
    except (ArithmeticError, ValueError):
        return _walk_values(entries, p)


@settings(max_examples=300, deadline=None)
@given(expressions, points)
def test_compiled_matches_tree_walk_bit_for_bit(e, p):
    # The expression with its partial derivatives: shared subtrees, so the
    # compiled function reuses values across entries.
    entries = (e,) + tuple(e.diff(i) for i in (1, 2, 3))
    reference = _outcome(lambda: _walk_values(entries, p))
    assert _outcome(lambda: ExprArray(entries).eval(p)) == reference
    assert _outcome(lambda: _float_values(entries, p)) == reference
    # The derivative builder: the same trees along a new last axis.
    reference = _outcome(lambda: [x.eval(p) for x in entries[1:]])
    assert _outcome(lambda: ExprArray((e,)).diff(3).eval(p)) == reference


@settings(max_examples=200, deadline=None)
@given(expressions, st.lists(points, min_size=1, max_size=7), st.sampled_from([1, 2, 3, BLOCK]))
def test_stacked_eval_is_each_points_values_bit_for_bit(e, stack, block):
    # A stack streams each point's values in blocks of ``block`` points:
    # the values of every point, or the error of the first failing one.
    arr = ExprArray((e,) + tuple(e.diff(i) for i in (1, 2, 3)))
    outcomes = [_outcome(lambda: _walk_values(arr.entries, p)) for p in stack]
    errors = [o for o in outcomes if o[0] != "value"]
    expected = errors[0] if errors else ("value", b"".join(o[1] for o in outcomes))
    with mock.patch.object(expr, "BLOCK", block):
        assert _outcome(lambda: arr.eval(np.array(stack))) == expected


# Where numpy's column arithmetic and Python's floats part: an expression
# over x1..x3, regular on [1.5, 2.5]^3, and a point where it hits the hazard.
_HAZARDS = {
    "sqrt of a negative": ("sqrt(x1 - 1)", (0.5, 2.0, 2.0)),
    "ln of zero": ("ln(x1 - 1) * x2", (1.0, 2.0, 2.0)),
    "ln of a negative": ("ln(x1 - 1)", (0.5, 2.0, 2.0)),
    # numpy divides inf and nan by zero with no flag
    "inf / 0": ("x1 / (x2 - 1)", (float("inf"), 1.0, 2.0)),
    "nan / 0": ("x1 / (x2 - 1)", (float("nan"), 1.0, 2.0)),
    "literal inf / 0": ("1e400 / (x2 - 1) + x3", (2.0, 1.0, 2.0)),
    "0^-1": ("(x3 - 1)^-1", (2.0, 2.0, 1.0)),
    "exp overflow": ("exp(x1) - x2", (800.0, 2.0, 2.0)),
    "pow overflow": ("x2^3", (2.0, 1e200, 2.0)),
    # Python's floats overflow to inf without an error; numpy raises.
    "product overflows to inf": ("x1 * x2", (1e200, 1e200, 2.0)),
    # (0.0)^-0.5 stays in the derivatives' code, since its fold raises:
    # literal operands on the scalar path, every point failing.
    "literal (0.0)^-0.5": ("(0)^0.5 * x1 + x2", (2.0, 2.0, 2.0)),
}
_regular_points = st.tuples(*[st.floats(1.5, 2.5)] * 3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_HAZARDS)), min_size=1, max_size=2),
    st.sampled_from([1, 2, 3]),
    st.lists(_regular_points, min_size=4, max_size=9),
    st.data(),
)
def test_stacked_eval_with_hazards_in_a_later_block(kinds, block, stack, data):
    # Stacks of 2 or more blocks, where a point in a later block hits each
    # hazard: the values of every point, bit for bit, or the error of the
    # first failing one.
    entries = []
    for kind in kinds:
        e = parse(_HAZARDS[kind][0], 3)
        entries += [e] + [e.diff(i) for i in (1, 2, 3)]
    arr = ExprArray(entries)
    for kind in kinds:
        stack.insert(data.draw(st.integers(block, len(stack))), _HAZARDS[kind][1])
    outcomes = [_outcome(lambda: _walk_values(arr.entries, p)) for p in stack]
    errors = [o for o in outcomes if o[0] != "value"]
    expected = errors[0] if errors else ("value", b"".join(o[1] for o in outcomes))
    with mock.patch.object(expr, "BLOCK", block):
        assert _outcome(lambda: arr.eval(np.array(stack))) == expected


def test_stacked_eval_of_regular_blocks_runs_on_columns():
    # No hazard: no block, and no single point, falls back to the tree walk.
    entries = [parse(text, 3) for kind, (text, _) in _HAZARDS.items() if not kind.startswith("literal (0.0)")]
    arr = ExprArray(entries + [e.diff(i) for e in entries for i in (1, 2, 3)])
    points = np.random.default_rng(5).uniform(1.5, 2.5, (2 * BLOCK + 3, 3))
    expected = np.array([_walk_values(arr.entries, p) for p in points.tolist()])
    with no_tree_walk():
        assert arr.eval(points).tobytes() == expected.tobytes()
        assert arr.eval(points[-1]).tobytes() == expected[-1].tobytes()


# Tubes of a domain test on [-1, 1]^3: ln(x1) raises for x1 <= 0, and the
# first tube excludes the origin before the second one's error.
_TUBES = [("sqrt(x1^2 + x2^2)", 0.5), ("ln(x1)", -3.0), ("x3 / x2", -1.0), ("x3", float("-inf"))]
_domain_coordinates = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.3, -0.7, 1.5, float("nan"), float("inf"), 5e-324])


def _walk_contains(domain, p):
    if not all(lo <= x <= hi for (lo, hi), x in zip(domain.intervals, p)):
        return False
    return not any(tube.expr.eval(p) < tube.radius for tube in domain.tubes)


@settings(max_examples=300, deadline=None)
@given(st.permutations(range(len(_TUBES))).flatmap(lambda order: st.just(order[:2]) | st.just(order)),
       st.tuples(*[_domain_coordinates] * 3))
@example((0, 1), (0.0, 0.0, 0.3))
@example((1, 0), (-0.0, 0.0, 0.3))
def test_domain_test_matches_the_tube_walk(order, p):
    # The compiled domain test against the box comparisons and the per-tube
    # Expr.eval walk: NaN, -0.0 and exact-bound coordinates, a raising
    # tube, and an excluding tube before a later tube's error.
    domain = box_domain(3, -1.0, 1.0, tubes=[ExclusionTube(parse(_TUBES[k][0], 3), _TUBES[k][1]) for k in order])
    assert _outcome(lambda: domain.contains(np.array(p))) == _outcome(lambda: _walk_contains(domain, p))
    assert _outcome(lambda: domain._inside(*p)) == _outcome(lambda: _walk_contains(domain, p))


# Signed zeros, infinities and NaN, where a fold that is not exact shows.
_SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.5, -2.0]
_special_trees = st.recursive(
    st.one_of(st.sampled_from(_SPECIAL).map(Const), st.integers(1, 3).map(Var)),
    lambda children: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), children, children).map(lambda t: t[0](t[1], t[2])),
        children.map(Neg),
        st.tuples(children, st.sampled_from([2.0, -1.0, 0.5, 1.0])).map(lambda t: Pow(*t)),
        children.map(lambda c: Func("exp", c)),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_special_trees, st.tuples(*[st.sampled_from(_SPECIAL)] * 3))
def test_folded_code_matches_tree_walk_bit_for_bit(e, p):
    # The folds (t - 0.0, t + -0.0, -0.0 + t, t * 1.0, 1.0 * t, t / 1.0,
    # t ^ 1.0, operations on finite literals) and the operations left alone
    # (t + 0.0, 0.0 * t, 0.0 / t), in the float-mode and the column code.
    # Each on its own, so that an error in one does not hide another.
    for x in (e, Sub(e, Const(0.0)), Add(e, Const(-0.0)), Add(Const(-0.0), e),
              Mul(e, Const(1.0)), Mul(Const(1.0), e), Div(e, Const(1.0)), Pow(e, 1.0),
              Add(e, Const(0.0)), Mul(Const(0.0), e), Div(Const(0.0), e)):
        reference = _outcome(lambda: _walk_values((x,), p))
        assert _outcome(lambda: _float_values((x,), p)) == reference
        assert _outcome(lambda: ExprArray((x,)).eval(p)) == reference


def test_fold_drops_exact_operations_on_zeros():
    # The warped geodesic rate: 11 of its 82 lines took a (0.0) operand
    # before the fold, and 2 divided by (1.0). The 8 left are not exact:
    # 0.0 * t, t + 0.0, 0.0 - t and 0.0 + t differ from their folds at -0.0,
    # inf or nan.
    M = build_warped_map().source
    lines, _, _ = expr._walk(M._geodesic_rate.entries, lambda i: f"z{i - 1}", "t")
    zeros = [line.split(" = ")[1] for line in lines if "(0.0)" in line]
    assert (len(lines), len(zeros)) == (73, 8)
    assert all(z.startswith("(0.0) ") or z.endswith(" + (0.0)") for z in zeros)
    assert not any("(1.0)" in line for line in lines)


def test_fold_drops_first_powers():
    # d/dx (x^2) is 2.0 * x^1.0 * dx, and x^1.0 is x: example-ii's column
    # code maps math.pow over 2 columns, not 4, in its Jacobian and the
    # partials of f, and over 4, not 6, in its Hessian.
    sc = build_scenario_ii()
    for arr, pows in ((sc.F._jac, 2), (sc.F._hess, 4), (partials(sc.f, 4), 2)):
        lines, _, _ = expr._walk(arr.entries, lambda i: f"p[{i - 1}]", "t", columns=True)
        assert sum("_col(_pow, " in line for line in lines) == pows
        assert not any(", (1.0))" in line for line in lines)


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
# Certified frames against the SVD frames
# ---------------------------------------------------------------------------


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diagonal(r))


def _jacobian(rng, n, m, singular_values):
    """``U diag(s) W^T`` ``(n, m)`` and the exact null-space projector ``I - W_n W_n^T``."""
    W = _orthogonal(rng, m)[:, :n]
    return (_orthogonal(rng, n) * singular_values) @ W.T, np.eye(m) - W @ W.T


def _spd(rng, m):
    """A random metric with eigenvalues in [0.5, 4], exactly symmetric."""
    Q = _orthogonal(rng, m)
    g = (Q * rng.uniform(0.5, 4.0, m)) @ Q.T
    return 0.5 * (g + g.T)


def _bases(jacobian, metric, exact=False):
    """The frame builder's basis, or with ``exact`` the one of its SVD path
    alone; or the type and message of what it raises."""
    N, n, m = jacobian.shape
    F = SimpleNamespace(target=SimpleNamespace(dim=n))
    points = np.arange(N * m, dtype=float).reshape(N, m)  # a distinct point per row

    def uncertified(A):
        return np.empty((N, m - n, m)), np.zeros(N, dtype=bool)

    with mock.patch("riemsub.state.null_rows", uncertified) if exact else contextlib.nullcontext():
        try:
            return vertical_bases(F, points, metric, jacobian)
        except RankDeficiencyError as exc:
            return type(exc), str(exc)


def _sign_rule_holds(V):
    mags = abs(V)
    first = np.argmax(mags >= (1.0 - 1e-9) * mags.max(-1, keepdims=True), axis=-1)
    return (np.take_along_axis(V, first[..., None], -1) > 0.0).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 7), st.integers(1, 3), st.integers(1, 4), _seeds)
def test_certified_frames_span_the_svd_frames(m, corank, count, seed):
    rng = np.random.default_rng(seed)
    n = m - corank
    scale = 10.0 ** rng.uniform(-3, 3, count)
    J = np.array([_jacobian(rng, n, m, scale[i] * rng.uniform(1.0, 10.0, n))[0] for i in range(count)])
    g = np.array([_spd(rng, m) for _ in range(count)])
    assert null_rows(J)[1].all()
    V, exact = _bases(J, g), _bases(J, g, exact=True)
    projector = V.swapaxes(1, 2) @ V @ g
    assert abs(projector - exact.swapaxes(1, 2) @ exact @ g).max() <= 1e-12
    assert abs(V @ g @ V.swapaxes(1, 2) - np.eye(corank)).max() <= 1e-12
    assert _sign_rule_holds(V)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 7), st.integers(1, 3), st.floats(math.log10(FRAME_RTOL) - 0.5, 0.0), _seeds)
def test_frames_up_to_the_certification_edge_are_as_accurate_as_the_svd(m, corank, log_ratio, seed):
    # sigma_min / sigma_max from just below FRAME_RTOL, where the bound stops
    # certifying, up to 1.  Without its re-projection the projector's basis
    # would be off the null space by about u kappa^2: up to 1e-7 here.
    rng = np.random.default_rng(seed)
    n = m - corank
    ratio = 10.0**log_ratio
    s = np.r_[1.0, rng.uniform(ratio, 1.0, max(n - 2, 0)), ratio][-n:] * 10.0 ** rng.uniform(-3, 3)
    J = _jacobian(rng, n, m, s)[0][None]
    g = _spd(rng, m)[None]
    assume(null_rows(J)[1].all())
    V, exact = _bases(J, g), _bases(J, g, exact=True)
    kappa = s.max() / s.min()
    assert abs(V.swapaxes(1, 2) @ V @ g - exact.swapaxes(1, 2) @ exact @ g).max() <= 1e-14 * kappa
    assert abs(J @ V.swapaxes(1, 2)).max() <= 16 * np.finfo(float).eps * abs(J).max()


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 6), st.integers(1, 2), st.lists(st.floats(-10.0, -3.0), min_size=1, max_size=3), _seeds)
def test_certified_frames_never_pass_what_the_svd_rejects(m, corank, log_ratios, seed):
    # sigma_min / sigma_max from 1e-10 to 1e-3: on both sides of RANK_RTOL
    # and of FRAME_RTOL, the smallest ratio the bound certifies.
    rng = np.random.default_rng(seed)
    n = m - corank
    J = np.array([
        _jacobian(rng, n, m, np.r_[1.0, rng.uniform(10.0**r, 1.0, max(n - 2, 0)), 10.0**r][-n:])[0]
        for r in log_ratios
    ])
    g = np.array([_spd(rng, m) for _ in log_ratios])
    exact = _bases(J, g, exact=True)
    certified = null_rows(J)[1]
    for i in range(len(J)):
        if isinstance(_bases(J[i:i + 1], g[i:i + 1], exact=True), tuple):
            assert not certified[i]
    outcome = _bases(J, g)
    if isinstance(exact, tuple):
        assert outcome == exact
    else:
        assert not isinstance(outcome, tuple)


def test_an_uncertified_row_takes_the_svd_and_spans_the_null_space():
    rng = np.random.default_rng(3)
    m, n = 5, 3
    # sigma_min / sigma_max: 0.5, 1e-7 (not certified, full rank), 0.3.
    rows = [_jacobian(rng, n, m, [1.0, 0.5, smallest]) for smallest in (0.5, 1e-7, 0.3)]
    J = np.array([A for A, _ in rows])
    g = np.array([_spd(rng, m) for _ in rows])
    assert null_rows(J)[1].tolist() == [True, False, True]
    V = _bases(J, g)
    assert V[1].tobytes() == _bases(J[1:2], g[1:2], exact=True)[0].tobytes()
    for i in (0, 2):
        assert V[i].tobytes() == _bases(J[i:i + 1], g[i:i + 1])[0].tobytes()
    for i, (_, null) in enumerate(rows):
        # m - n g-orthonormal vectors in the exact null space.
        assert abs(V[i] @ g[i] @ V[i].T - np.eye(m - n)).max() <= 1e-12
        assert abs(null @ V[i].T - V[i].T).max() <= 1e-7


# ---------------------------------------------------------------------------
# The stacked Cholesky kernel against LAPACK
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _gram_stack(rng, n, m, count, log_ratio):
    """``S = A K A^T`` ``(count, n, n)``, exactly symmetric, and the ``A``:
    each ``A`` full rank with ``sigma_min / sigma_max`` in
    ``[10^log_ratio, 1]``, each ``K`` a positive diagonal."""
    S, A = [], []
    for _ in range(count):
        ratio = 10.0 ** rng.uniform(log_ratio, 0.0)
        s = np.r_[1.0, rng.uniform(ratio, 1.0, max(n - 2, 0)), ratio][-n:] * 10.0 ** rng.uniform(-3, 3)
        a = _jacobian(rng, n, m, s)[0]
        S.append((a * rng.uniform(0.5, 4.0, m)) @ a.T)
        A.append(a)
    S = np.array(S)
    return 0.5 * (S + S.swapaxes(1, 2)), np.array(A)


def _cholesky_solve(L, B):
    return back_solve(L, forward_solve(L, B))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 7))),
       st.integers(1, 5), st.floats(math.log10(FRAME_RTOL), 0.0), _seeds)
def test_stacked_cholesky_matches_lapack_row_by_row(shape, count, log_ratio, seed):
    # kappa(A) up to 1 / FRAME_RTOL, the largest the frame certificate
    # passes, so kappa(S) up to about 1e9.
    (n, m), rng = shape, np.random.default_rng(seed)
    S, A = _gram_stack(rng, n, m, count, log_ratio)
    L, ok = cholesky(S)
    assert ok.all()
    assert (np.triu(L, 1) == 0.0).all() and (np.diagonal(L, axis1=1, axis2=2) > 0.0).all()
    scale = abs(S).max((1, 2))
    assert (abs(L @ L.swapaxes(1, 2) - S).max((1, 2)) <= 2 * (n + 1) * _EPS * scale).all()
    X, want = _cholesky_solve(L, A), np.linalg.solve(S, A)
    err = abs(X - want).max((1, 2)) / abs(want).max((1, 2))
    assert (err <= 8 * n * _EPS * np.linalg.cond(S)).all()
    for i in range(count):
        alone, alone_ok = cholesky(S[i:i + 1])
        assert alone_ok[0] and alone.tobytes() == L[i:i + 1].tobytes()
        assert _cholesky_solve(alone, A[i:i + 1]).tobytes() == X[i:i + 1].tobytes()


def test_cholesky_flags_indefinite_and_singular_rows_without_a_warning():
    rng = np.random.default_rng(5)
    S, A = _gram_stack(rng, 3, 5, 5, -2.0)
    S[1] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # eigenvalues 3, 1, -1
    S[3] = [[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]]  # rank 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L, ok = cholesky(S)
        X = _cholesky_solve(L, A)
    assert ok.tolist() == [True, False, True, False, True]
    for i in (0, 2, 4):
        assert L[i].tobytes() == cholesky(S[i:i + 1])[0][0].tobytes()
        assert X[i].tobytes() == _cholesky_solve(L[i:i + 1], A[i:i + 1])[0].tobytes()


def _flat_state(metric, inverse_metric, jacobian, seed):
    """A state on a flat metric with the given metric, inverse and
    Jacobians, a random vertical basis and a random Hessian."""
    rng = np.random.default_rng(seed)
    N, n, m = jacobian.shape
    st_ = SampleState(np.zeros((N, m)), SimpleNamespace(is_flat_constant=True, dim=m))
    st_.__dict__.update(
        metric=metric, inverse_metric=inverse_metric, jacobian=jacobian,
        vertical=rng.standard_normal((N, m - n, m)), hessian=rng.standard_normal((N, n, m, m)),
    )
    return st_


def _projector_derivs_by_lapack(st_):
    g, K, A, V, H = st_.metric, st_.inverse_metric, st_.jacobian, st_.vertical, st_.hessian
    Z = np.linalg.solve(A @ K @ A.swapaxes(1, 2), A)
    pv = V.swapaxes(1, 2) @ V @ g
    X = np.einsum("nail,naj->nlij", H, Z)
    return -(pv @ K)[:, None] @ X - (K @ Z.swapaxes(1, 2))[:, None] @ H.transpose(0, 3, 1, 2) @ pv[:, None]


def _spy_on_solve(monkeypatch):
    handed, solve = [], np.linalg.solve

    def spy(a, b):
        handed.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return handed


def test_projector_derivs_hand_unfactored_rows_to_lapack(monkeypatch):
    # The inverse metric is negative at one entry of row 1, as where a metric
    # is not positive definite, and A K A^T there is indefinite.
    rng = np.random.default_rng(8)
    n, m = 2, 4
    A = np.array([_jacobian(rng, n, m, rng.uniform(1.0, 3.0, n))[0] for _ in range(3)])
    K = np.zeros((3, m, m))
    K[:, range(m), range(m)] = rng.uniform(0.5, 4.0, (3, m))
    K[1, 2, 2] = -40.0
    S = np.einsum("nai,nij,nbj->nab", A, K, A)
    assert np.linalg.eigvalsh(S[1]).min() < 0.0 < np.linalg.eigvalsh(S[[0, 2]]).min()
    st_ = _flat_state(np.linalg.inv(K), K, A, 8)
    want = _projector_derivs_by_lapack(st_)
    handed = _spy_on_solve(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = st_.projector_derivs
    assert [a.tobytes() for a in handed] == [S[1:2].tobytes()]
    assert abs(got - want).max() <= 1e-12 * abs(want).max()


def test_singular_rows_still_stop_at_lapack(monkeypatch):
    # A K A^T singular at row 1 (K has a zero entry there): LAPACK's solve
    # decides, and raises, as it did for the whole stack.
    rng = np.random.default_rng(9)
    n, m = 2, 4
    A = np.zeros((2, n, m))
    A[:, range(n), range(n)] = 1.0
    K = np.zeros((2, m, m))
    K[:, range(m), range(m)] = rng.uniform(0.5, 4.0, (2, m))
    K[1, 1, 1] = 0.0
    st_ = _flat_state(np.eye(m)[None].repeat(2, 0), K, A, 9)
    handed = _spy_on_solve(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError):
        st_.projector_derivs
    assert len(handed) == 1 and len(handed[0]) == 1
    # In null_rows the same failed pivot (a zero row of the Jacobian) leaves
    # the row to the SVD, which reports the rank.
    J = np.array([_jacobian(rng, 3, 5, [1.0, 0.8, 0.5])[0] for _ in range(3)])
    J[1, 2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert null_rows(J)[1].tolist() == [True, False, True]
        assert _bases(J, np.array([_spd(rng, 5) for _ in range(3)])) == (
            RankDeficiencyError, "Jacobian rank 2 (expected 3) at [5.0, 6.0, 7.0, 8.0, 9.0]")


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
    rngs = streams(sc.sampling.seed)
    state = SampleState(sc.M.domain.sample(rngs[0], _SIGN_POINTS), sc.M, sc.F, sc.J, sc.f)
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


# ---------------------------------------------------------------------------
# Sample points and probes from random.Random
# ---------------------------------------------------------------------------

_rng_seeds = st.integers(0, 2**64) | st.text(max_size=12)


@settings(max_examples=200, deadline=None)
@given(_rng_seeds, st.integers(0, 300))
def test_uniforms_are_53_bit_fractions_of_the_seed(seed, count):
    u = uniforms(random.Random(seed), count)
    assert u.shape == (count,) and u.dtype == np.float64
    assert ((0.0 <= u) & (u < 1.0)).all()
    whole = u * 2.0**53  # exact: a power-of-two scale
    assert (whole == np.floor(whole)).all()
    assert u.tobytes() == uniforms(random.Random(seed), count).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SIGN_SCENARIOS)), _rng_seeds, st.lists(st.integers(1, 3), max_size=2))
def test_unit_probes_are_finite_g_unit_vectors(name, seed, shape):
    sc = _SIGN_SCENARIOS[name]
    state = SampleState(sample_points(sc.M.domain, 7, seed), sc.M)
    probes = state.unit_probes(random.Random(seed), tuple(shape))
    assert probes.shape == (7, *shape, sc.M.dim)
    assert np.isfinite(probes).all()
    assert abs(state.norm(probes) - 1.0).max() <= 1e-15
