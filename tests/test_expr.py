import math

import numpy as np
import pytest

from riemsub.expr import (
    DomainError,
    ExprArray,
    ParseError,
    differentiate,
    fd_derivative,
    parse,
)

PRESET_STRINGS = [
    ("sqrt(x1^2 + x2^2)", 4),
    ("ln(sqrt(x1^2 + x2^2))", 4),
    ("x2 / sqrt(x1^2 + x2^2)", 4),
    ("-x1 / sqrt(x1^2 + x2^2)", 4),
    ("exp(2 * x1)", 2),
    ("sin(x1) * cos(x2) + x3^3 - 2 / x4", 4),
    ("(x1 + x2) / sqrt(2)", 4),
    ("x1^-2 + x2^0.5", 2),
]


def _smooth_points(rng, count, dim):
    # Stay away from the axes/origin so every preset expression is smooth.
    pts = []
    while len(pts) < count:
        p = rng.uniform(0.3, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
        p[:2] = abs(p[:2]) + 0.3
        pts.append(p)
    return pts


def test_three_four_five():
    e = parse("sqrt(x1^2 + x2^2)", 4)
    assert e.eval((3.0, 4.0, 0.0, 0.0)) == pytest.approx(5.0, abs=1e-15)


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x1 +", 4)
    assert err.value.position == 5


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse("foo(x1)", 4)


def test_variable_index_exceeds_dim():
    with pytest.raises(ParseError):
        parse("x5", 4)


def test_constant_eval():
    assert parse("7", 4).eval((1.0, 2.0, 3.0, 4.0)) == 7.0


def test_log_sqrt_value():
    e = parse("ln(sqrt(x1^2 + x2^2))", 4)
    assert e.eval((1.0, 1.0, 0.0, 0.0)) == pytest.approx(0.5 * math.log(2.0))


def test_division_by_zero_reports_node():
    e = parse("x1 / x2", 4)
    with pytest.raises(DomainError) as err:
        e.eval((1.0, 0.0, 0.0, 0.0))
    assert "x1 / x2" in str(err.value)


def test_log_of_nonpositive():
    with pytest.raises(DomainError):
        parse("ln(x1)", 1).eval((-2.0,))


def test_zero_to_negative_power():
    with pytest.raises(DomainError):
        parse("x1^-1", 1).eval((0.0,))


def test_sqrt_of_negative():
    with pytest.raises(DomainError):
        parse("sqrt(x1)", 1).eval((-1.0,))


@pytest.mark.parametrize("text", ["exp(1000 * x1)", "x1^400"])
def test_overflow_is_a_domain_error(text):
    e = parse(text, 1)
    for evaluate_at in (e.eval, ExprArray((e,)).eval):
        with pytest.raises(DomainError, match="overflows"):
            evaluate_at((10.0,))


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_trig_of_infinite_value_is_a_domain_error(name):
    # x1 / x2 overflows to inf at a subnormal x2; math.sin(inf) is a bare
    # ValueError, which reached the command line as a traceback.
    e = parse(f"{name}(x1 / x2)", 2)
    for evaluate_at in (e.eval, ExprArray((e,)).eval):
        with pytest.raises(DomainError, match=f"{name} of an infinite value"):
            evaluate_at((1.0, 2.2e-309))


def test_chained_exponent_is_right_associative():
    e = parse("x1^2^3", 1)
    assert e.eval((2.0,)) == pytest.approx(2.0 ** 8)


@pytest.mark.parametrize("text, position", [("x1^2^2000", 4), ("x1^-2^0.5", 5)])
def test_chained_exponent_without_real_value_is_a_parse_error(text, position):
    # The folded exponent overflows, or is a negative base to a fractional power.
    with pytest.raises(ParseError) as err:
        parse(text, 1)
    assert err.value.position == position


def test_negative_fractional_power_rejected():
    with pytest.raises(DomainError):
        parse("x1^0.5", 1).eval((-4.0,))


def test_diff_constant_is_zero():
    d = differentiate(parse("42", 2), 1)
    assert d.eval((0.3, 0.7)) == 0.0


def test_diff_log_radius():
    e = parse("ln(sqrt(x1^2 + x2^2))", 4)
    d = differentiate(e, 1)
    assert d.eval((1.0, 1.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_diff_product_rule():
    d = differentiate(parse("x1 * x2", 2), 2)
    for p in [(0.5, 2.0), (-1.5, 3.0)]:
        assert d.eval(p) == pytest.approx(p[0], abs=1e-15)


@pytest.mark.parametrize("text,dim", PRESET_STRINGS)
def test_symbolic_matches_central_fd(text, dim):
    e = parse(text, dim)
    rng = np.random.default_rng(42)
    for p in _smooth_points(rng, 100, dim):
        for i in range(1, dim + 1):
            exact = differentiate(e, i).eval(p)
            approx = fd_derivative(e, i, p)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("text,dim", PRESET_STRINGS)
def test_print_parse_round_trip(text, dim):
    e = parse(text, dim)
    again = parse(str(e), dim)
    rng = np.random.default_rng(7)
    for p in _smooth_points(rng, 100, dim):
        assert again.eval(p) == pytest.approx(e.eval(p), abs=1e-12)


def test_derivative_round_trips_too():
    # Unsimplified derivative trees still print to something re-parseable.
    e = parse("ln(sqrt(x1^2 + x2^2)) * sin(x1) - x2 / x1", 2)
    d = differentiate(e, 1)
    again = parse(str(d), 2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.uniform(0.5, 2.0, size=2)
        assert again.eval(p) == pytest.approx(d.eval(p), abs=1e-12)


def test_evaluation_is_pure():
    e = parse("sin(x1) + cos(x2) * x1^3", 2)
    p = (0.37, -1.2)
    values = {e.eval(p) for _ in range(20)}
    assert len(values) == 1
