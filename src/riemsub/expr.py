"""Scalar expressions in chart coordinates.

Expressions are immutable trees over constants, coordinate variables
``x1..xm``, the unary functions ``sqrt, ln, exp, sin, cos``, negation, the
four arithmetic operators, and ``^`` with a constant exponent.  They are
built by :func:`parse` or the node classes alone (:class:`Expr` overloads
no Python operator), evaluated at points, differentiated exactly, and
printed back to a re-parseable form.  Every geometric object in this
package (metrics, complex structures, maps, Clairaut exponents) is a tree
or an array of trees; an :class:`ExprArray` evaluates such an array through
one compiled function, with the per-node ``eval`` methods as its reference.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable, NamedTuple

import numpy as np


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    """Raised on malformed input; carries a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class DomainError(ExprError):
    """Raised when evaluation hits a singular point of the expression."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in {node}")
        self.node = node


# Printing precedence levels: addition < multiplication < unary minus on the
# left factor < power < atoms.
_P_ADD, _P_MUL, _P_NEG, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _literal(value: float) -> str:
    """``repr`` of a float, except that an infinity prints as a literal the
    parser reads back to it (``1e999`` overflows to ``inf``)."""
    if math.isinf(value):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


class Expr:
    """Immutable expression tree node."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def eval(self, point) -> float:
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        """Exact partial derivative with respect to coordinate ``index`` (1-based)."""
        raise NotImplementedError

    def _prec(self) -> int:
        return _P_ATOM


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def eval(self, point) -> float:
        return self.value

    def diff(self, index: int) -> Expr:
        return Const(0.0)

    def _prec(self) -> int:
        return _P_ATOM if self.value >= 0 else _P_NEG

    def __str__(self) -> str:
        return _literal(self.value)


class Var(Expr):
    """Coordinate variable with 1-based index (prints as ``x<index>``)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("variable index must be >= 1")
        object.__setattr__(self, "index", int(index))

    def eval(self, point) -> float:
        return float(point[self.index - 1])

    def diff(self, index: int) -> Expr:
        return Const(1.0 if index == self.index else 0.0)

    def __str__(self) -> str:
        return f"x{self.index}"


class _Binary(Expr):
    __slots__ = ("a", "b")
    _symbol = "?"
    _level = _P_ADD
    _associative = False

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def _prec(self) -> int:
        return self._level

    def __str__(self) -> str:
        left = str(self.a)
        if self.a._prec() < self._level:
            left = f"({left})"
        right = str(self.b)
        # +,-,*,/ associate left; a right child of equal level needs
        # parentheses unless the operator is associative.
        level = self.b._prec()
        if level < self._level or (level == self._level and not self._associative):
            right = f"({right})"
        return f"{left} {self._symbol} {right}"


class Add(_Binary):
    __slots__ = ()
    _symbol = "+"
    _level = _P_ADD
    _associative = True

    def eval(self, point) -> float:
        return self.a.eval(point) + self.b.eval(point)

    def diff(self, index: int) -> Expr:
        return Add(self.a.diff(index), self.b.diff(index))


class Sub(_Binary):
    __slots__ = ()
    _symbol = "-"
    _level = _P_ADD

    def eval(self, point) -> float:
        return self.a.eval(point) - self.b.eval(point)

    def diff(self, index: int) -> Expr:
        return Sub(self.a.diff(index), self.b.diff(index))


class Mul(_Binary):
    __slots__ = ()
    _symbol = "*"
    _level = _P_MUL
    _associative = True

    def eval(self, point) -> float:
        return self.a.eval(point) * self.b.eval(point)

    def diff(self, index: int) -> Expr:
        return Add(Mul(self.a.diff(index), self.b), Mul(self.a, self.b.diff(index)))


class Div(_Binary):
    __slots__ = ()
    _symbol = "/"
    _level = _P_MUL

    def eval(self, point) -> float:
        denom = self.b.eval(point)
        if denom == 0.0:
            raise DomainError("division by zero", self)
        return self.a.eval(point) / denom

    def diff(self, index: int) -> Expr:
        num = Sub(Mul(self.a.diff(index), self.b), Mul(self.a, self.b.diff(index)))
        return Div(num, Mul(self.b, self.b))


class Pow(Expr):
    """Power with a constant real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", float(exponent))

    def eval(self, point) -> float:
        b = self.base.eval(point)
        c = self.exponent
        if b == 0.0 and c < 0.0:
            raise DomainError("zero raised to a negative exponent", self)
        try:
            return math.pow(b, c)
        except ValueError:
            raise DomainError("negative base with non-integer exponent", self) from None
        except OverflowError:
            raise DomainError("power overflows", self) from None

    def diff(self, index: int) -> Expr:
        c = self.exponent
        if c == 0.0:
            return Const(0.0)
        return Mul(Mul(Const(c), Pow(self.base, c - 1.0)), self.base.diff(index))

    def _prec(self) -> int:
        return _P_POW

    def __str__(self) -> str:
        base = str(self.base)
        if self.base._prec() <= _P_POW:
            base = f"({base})"
        return f"{base}^{_literal(self.exponent)}"


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a: Expr):
        object.__setattr__(self, "a", a)

    def eval(self, point) -> float:
        return -self.a.eval(point)

    def diff(self, index: int) -> Expr:
        return Neg(self.a.diff(index))

    def _prec(self) -> int:
        return _P_NEG

    def __str__(self) -> str:
        inner = str(self.a)
        if self.a._prec() < _P_NEG:
            inner = f"({inner})"
        return f"-{inner}"


class Func(Expr):
    """Call of one of the built-in unary functions (the keys of ``_FUNCTIONS``)."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in _FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arg", arg)

    def eval(self, point) -> float:
        v = self.arg.eval(point)  # outside the try: only this call is this node's error
        function = _FUNCTIONS[self.name]
        try:
            return function.scalar(v)
        except (ValueError, OverflowError):
            raise DomainError(function.message, self) from None

    def diff(self, index: int) -> Expr:
        return _FUNCTIONS[self.name].diff(self.arg, self.arg.diff(index))

    def __str__(self) -> str:
        return f"{self.name}({self.arg})"


class _Function(NamedTuple):
    """A built-in unary function.  ``scalar``, a ``math`` function, raises
    ``ValueError`` or ``OverflowError`` exactly where the function is
    undefined, and :class:`DomainError` carries ``message`` there.
    ``diff(u, du)`` is the derivative of ``f(u)`` given that of ``u``.
    ``column``, if not None, is a numpy function with ``scalar``'s bits on a
    column (IEEE 754 rounds it correctly); compiled code calls it as
    ``_np_<name>``, and ``scalar`` as ``_<name>``."""

    scalar: Callable
    message: str
    diff: Callable
    column: Callable | None = None


_FUNCTIONS = {
    "sqrt": _Function(math.sqrt, "square root of a negative value",
                      lambda u, du: Div(du, Mul(Const(2.0), Func("sqrt", u))), np.sqrt),
    "ln": _Function(math.log, "logarithm of a non-positive value", lambda u, du: Div(du, u)),
    "exp": _Function(math.exp, "exponential overflows", lambda u, du: Mul(Func("exp", u), du)),
    "sin": _Function(math.sin, "sin of an infinite value", lambda u, du: Mul(Func("cos", u), du)),
    "cos": _Function(math.cos, "cos of an infinite value", lambda u, du: Mul(Neg(Func("sin", u)), du)),
}

# The binary operators by symbol; each class's ``_level`` is its precedence
# for the parser as for the printer.
_BINARY = {cls._symbol: cls for cls in (Add, Sub, Mul, Div)}


def is_zero(e: Expr) -> bool:
    """Structural test for the literal zero constant (no simplification)."""
    return isinstance(e, Const) and e.value == 0.0


# ---------------------------------------------------------------------------
# Compiled evaluation of expression arrays
# ---------------------------------------------------------------------------

# Samples per block of a stacked computation (ExprArray.eval on a stack, the
# invariant series, trajectory energies), so that its working memory is set
# by one block, not by the number of samples.  Measured on example-ii's
# 2001-sample curve (best of 15): the invariant series takes 8.4 ms at 256,
# 9.3 ms as one block and 10.8 ms at 64, where per-block overhead shows; its
# traced peak is 0.20 MB at 256 against 1.27 MB at 4096.
BLOCK = 256


def blocks(count: int) -> list:
    """Slices of ``range(count)`` in order, ``BLOCK`` samples each; the last
    holds the rest."""
    return [slice(i, i + BLOCK) for i in range(0, count, BLOCK)]


def _nonzero(column):
    """Raise :class:`ZeroDivisionError` for a zero in ``column``, as Python
    does for a float divisor (numpy divides inf and NaN by zero with no
    flag).  A call, not an ``if`` statement: on example-ii's Hessian the
    12 ``if`` guards raised the compiler's peak memory from 333 to 400 kB,
    and with it the peak memory of ``riemsub check``."""
    if not column.all():
        raise ZeroDivisionError


def _col(f, column, *constants):
    """``f`` (a ``math`` function) of each entry of ``column``, with the
    ``constants`` as its further arguments."""
    values = column.tolist()
    return np.fromiter(map(f, values, *([c] * len(values) for c in constants)), float, len(values))


_COMPILED_GLOBALS = {
    "_nonzero": _nonzero,
    "_col": _col,
    "_pow": math.pow,
    **{f"_{name}": function.scalar for name, function in _FUNCTIONS.items()},
    **{f"_np_{name}": function.column for name, function in _FUNCTIONS.items() if function.column},
}


class ExprArray:
    """Nested array of expressions evaluated by one compiled function.

    ``eval`` at a stack of points, any 2-D array-like ``(N, m)``, returns
    the values at each point stacked along a leading axis of length ``N``,
    each equal bit for bit to evaluating every entry with ``Expr.eval`` at
    that point, converted to floats, or the first failing point's error.
    One point, a 1-D array-like, is the one-row stack ``point[None]``, and
    its values come back in the nesting's shape.  ``diff`` builds the array
    of partial derivatives.  The function is generated at first use, by
    :func:`_compile_columns` from ``_walk``: straight-line Python that
    evaluates a block of ``BLOCK`` points at once, one numpy column per
    variable, and computes each structurally distinct subexpression once,
    with the same float operation per node.  A block that raises is
    evaluated again point by point by the per-node walk, which gives the
    reference: the inf of an overflowing product, say, or the
    :class:`DomainError` naming the first singular node.
    """

    __slots__ = ("entries", "shape", "_cols")

    def __init__(self, nested):
        entries = []
        self.shape = _flatten(nested, entries)
        self.entries = tuple(entries)
        self._cols = None

    def eval(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        if point.ndim != 2:
            return self.eval(point[None])[0]
        if self._cols is None:
            self._cols = _compile_columns(self.entries)
        out = np.empty((len(point),) + self.shape)
        flat = out.reshape(len(point), len(self.entries))
        with np.errstate(all="raise", under="ignore"):
            for b in blocks(len(point)):
                try:
                    self._cols(point[b].T, flat[b].T)
                except (ArithmeticError, ValueError):
                    flat[b] = [[e.eval(row) for e in self.entries] for row in point[b].tolist()]
        return out

    def diff(self, dim: int) -> "ExprArray":
        """Exact partial derivatives of every entry along a new last axis of
        length ``dim``: entry ``[..., i]`` is ``d/dx_{i+1}`` of entry ``[...]``."""
        flat = np.array([e.diff(i + 1) for e in self.entries for i in range(dim)], dtype=object)
        return ExprArray(flat.reshape(self.shape + (dim,)))


def _flatten(nested, entries: list) -> tuple:
    """Append the entries of ``nested`` to ``entries``; return its shape."""
    if isinstance(nested, Expr):
        entries.append(nested)
        return ()
    shapes = {_flatten(item, entries) for item in nested}
    if len(shapes) > 1:
        raise ValueError("ragged expression array")
    return (len(nested),) + (shapes.pop() if shapes else ())


# The literal operands that leave the other operand's float unchanged.
_RIGHT_UNITS = {Sub: "(0.0)", Add: "(-0.0)", Mul: "(1.0)", Div: "(1.0)", Pow: "(1.0)"}
_LEFT_UNITS = {Add: "(-0.0)", Mul: "(1.0)"}


def _walk(entries, var, prefix: str, columns: bool = False):
    """Straight-line code for ``entries``: its assignment lines, the operand
    (a name or a literal) holding each entry, and the non-finite constants
    it names.  ``var(index)`` is the code of ``x<index>``, used as it is if
    it is a name; temporaries are ``<prefix>0``, ``<prefix>1``, ...  Each
    distinct subexpression is computed once, by its node's float operation.
    Only exact IEEE identities fold: an operation on finite literals is done
    here by ``eval`` (unless it raises), and ``t - 0.0``, ``t + -0.0``,
    ``-0.0 + t``, ``t * 1.0``, ``1.0 * t``, ``t / 1.0`` and ``t ^ 1.0`` are
    ``t`` (``t + 0.0`` is not at -0.0, nor ``0.0 * t`` at inf).

    With ``columns``, every variable is a numpy column, and so is every
    operation on one: ``+ - * /``, negation and a function with a
    ``column`` are numpy's, ``pow`` and the other functions map ``math``
    over the column (``_col``), and a division or negative power raises
    :class:`ZeroDivisionError` for a zero anywhere in its divisor or base,
    as Python floats do and numpy does not.  Literal operations stay on
    Python floats.
    """
    lines = []
    names = {}  # structural key -> variable holding that subexpression
    constants = {}
    cols = set()  # the names that hold columns

    def literal(value: float) -> str:
        if math.isfinite(value):
            return f"({value!r})"
        name = f"_c{len(constants)}"
        constants[name] = value
        return name

    def zero_guard(x: str) -> str:
        return f"_nonzero({x})" if x in cols else f"if {x} == 0.0: raise ZeroDivisionError"

    def operand(e) -> str:
        guard = None
        if isinstance(e, Const):
            return literal(e.value)
        if isinstance(e, Var):
            code = var(e.index)
            if code.isidentifier():
                return code
            key = (Var, code)
        elif isinstance(e, Div):
            # Denominator first, as in Div.eval.
            b = operand(e.b)
            key = (Div, operand(e.a), b)
            code = f"{key[1]} / {b}"
        elif isinstance(e, _Binary):
            key = (type(e), operand(e.a), operand(e.b))
            code = f"{key[1]} {e._symbol} {key[2]}"
        elif isinstance(e, Pow):
            key = (Pow, operand(e.base), operand(Const(e.exponent)))
            code = f"_pow({key[1]}, {key[2]})"
        elif isinstance(e, Neg):
            key = (Neg, operand(e.a))
            code = f"-{key[1]}"
        elif isinstance(e, Func):
            key = (e.name, operand(e.arg))
            code = f"_{e.name}({key[1]})"
        else:
            raise TypeError(f"cannot compile {type(e).__name__}")
        if key[0] is not Var and all(a[0] == "(" for a in key[1:]):  # finite literals
            try:
                return literal(e.eval(()))
            except ExprError:
                pass
        if len(key) == 3 and key[2] == _RIGHT_UNITS.get(key[0]):
            return key[1]
        if len(key) == 3 and key[1] == _LEFT_UNITS.get(key[0]):
            return key[2]
        column = columns and (key[0] is Var or any(a in cols for a in key[1:]))
        if key[0] is Pow and e.exponent < 0.0:
            # Pow.eval rejects a zero base itself: math.pow(0, -inf) is inf.
            guard = zero_guard(key[1])
        elif key[0] is Div and column:
            guard = zero_guard(key[2])
        if column and key[0] is Pow:
            code = f"_col(_pow, {key[1]}, {key[2]})"
        elif column and isinstance(key[0], str):
            code = f"_np_{key[0]}({key[1]})" if _FUNCTIONS[key[0]].column else f"_col(_{key[0]}, {key[1]})"
        name = names.get(key)
        if name is None:
            name = names[key] = f"{prefix}{len(names)}"
            if column:
                cols.add(name)
            if guard is not None:
                lines.append(guard)
            lines.append(f"{name} = {code}")
        return name

    results = [operand(e) for e in entries]
    return lines, results, constants


def _define(source: str, constants: dict):
    """The function ``_f`` of ``source``, over the compiled globals and ``constants``."""
    namespace = dict(_COMPILED_GLOBALS, **constants)
    exec(compile(source, "<ExprArray>", "exec"), namespace)
    return namespace["_f"]


def _compile_columns(entries):
    """Straight-line function ``_f(p, o)`` of a block of points, ``p[i]`` the
    column of ``x<i+1>``, that writes the column of entry k to ``o[k]`` (see
    ``_walk`` with ``columns``).  Run under ``np.errstate(all="raise")``,
    any floating-point error raises, so what does not raise has the bits of
    Python floats, those of ``Expr.eval``: IEEE 754 rounds ``+ - * /`` and
    ``sqrt`` correctly.  An entry is written out where it is computed, and a
    temporary's name is reused once its value is last read, so a block
    holds few columns at once and the source stays short (it is compiled at
    first use, where the compiler's peak memory shows)."""
    lines, results, constants = _walk(entries, lambda i: f"p[{i - 1}]", "t", columns=True)
    outputs = {}
    for k, result in enumerate(results):
        outputs.setdefault(result, []).append(f"o[{k}]")
    split = [line.partition(" = ")[::2] if " = " in line else ("", line) for line in lines]
    reads = [re.findall(r"\bt\d+\b", code) for _, code in split]
    last = {name: i for i, names in enumerate(reads) for name in names}
    free, names, body = [], {}, []  # names: temporary -> the name it is held in
    for i, (target, code) in enumerate(split):
        code = re.sub(r"\bt\d+\b", lambda m: names[m.group()], code)
        free += [names[n] for n in dict.fromkeys(reads[i]) if last[n] == i]
        if target in last:  # read by a later line
            names[target] = free.pop() if free else f"t{len(set(names.values()))}"
            outputs.setdefault(target, []).append(names[target])
        body.append(" = ".join(outputs.pop(target, []) + [code]))
    body += [" = ".join(outs + [result]) for result, outs in outputs.items()]
    return _define("def _f(p, o):\n" + "".join(f"    {line}\n" for line in body), constants)


@functools.lru_cache(maxsize=32)
def partials(e: Expr, dim: int) -> ExprArray:
    """The ``dim`` exact partial derivatives of ``e`` as one array (memoized)."""
    return ExprArray(e).diff(dim)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = {*_BINARY, "^", "(", ")"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1  # 1-based
        if ch in _OPS:
            tokens.append((ch, ch, pos))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", pos) from None
            tokens.append(("num", value, pos))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], pos))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.dim = dim
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse_expr(self, level: int = _P_ADD) -> Expr:
        """A left-associative chain of the binary operators of ``level`` or
        above, each operand one binding tighter than its operator."""
        node = self.parse_unary()
        while (cls := _BINARY.get(self.peek()[0])) is not None and cls._level >= level:
            self.next()
            node = cls(node, self.parse_expr(cls._level + 1))
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> float:
        # Exponents are constants; a chained ^ folds right-associatively.
        sign = 1.0
        if self.peek()[0] == "-":
            self.next()
            sign = -1.0
        tok = self.next()
        if tok[0] != "num":
            raise ParseError("exponent must be a numeric constant", tok[2])
        value = sign * tok[1]
        if self.peek()[0] == "^":
            self.next()
            try:
                value = math.pow(value, self.parse_exponent())
            except OverflowError:
                raise ParseError("exponent overflows", tok[2]) from None
            except ValueError:
                raise ParseError("exponent is not a real number", tok[2]) from None
        return value

    def parse_atom(self) -> Expr:
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return Const(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                return Func(value, arg)
            if value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if index < 1 or index > self.dim:
                    raise ParseError(
                        f"variable {value} exceeds dimension {self.dim}", pos
                    )
                return Var(index)
            raise ParseError(f"unknown identifier {value!r}", pos)
        raise ParseError("expected a value", pos)


def parse(text: str, dim: int) -> Expr:
    """Parse ``text`` into an expression over coordinates ``x1..x<dim>``."""
    if dim < 1:
        raise ValueError("dim must be positive")
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_expr()
    tail = parser.peek()
    if tail[0] != "end":
        raise ParseError("unexpected trailing input", tail[2])
    return node


def differentiate(e: Expr, index: int) -> Expr:
    """Exact symbolic partial derivative of ``e`` with respect to ``x<index>``.

    Unlike ``e.diff(index)``, which treats an index below 1 as a variable
    that does not occur and returns zero, this rejects it.
    """
    if index < 1:
        raise ValueError("coordinate index must be >= 1")
    return e.diff(index)


# Relative step of :func:`fd_derivative`: the cube root of the float epsilon
# balances the truncation error of a central difference against rounding.
FD_REL_STEP = 2.220446049250313e-16 ** (1.0 / 3.0)


def fd_derivative(e: Expr, index: int, point) -> float:
    """Central finite-difference estimate of a partial derivative.

    Independent cross-check for :func:`differentiate`; the step is
    ``FD_REL_STEP * max(1, |p_i|)``.
    """
    h = FD_REL_STEP * max(1.0, abs(point[index - 1]))
    plus = list(point)
    minus = list(point)
    plus[index - 1] += h
    minus[index - 1] -= h
    return (e.eval(plus) - e.eval(minus)) / (2.0 * h)
