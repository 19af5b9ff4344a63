#!/usr/bin/env python3
"""Walk through the expression layer: parsing, evaluation, exact derivatives.

Every geometric object in riemsub (metric entries, structure matrices, map
components, the Clairaut exponent) is one of these expression trees, so
this is the layer everything else trusts.  The script parses a few
expressions, differentiates them symbolically, and cross-checks each
derivative against central finite differences.
"""

import numpy as np

from riemsub import differentiate, fd_derivative, parse

print("== parsing and evaluation ==")
radius = parse("sqrt(x1^2 + x2^2)", 4)
print("sqrt(x1^2 + x2^2) at (3, 4, 0, 0) ->", radius.eval((3.0, 4.0, 0.0, 0.0)))

f = parse("ln(sqrt(x1^2 + x2^2))", 4)
print("ln(sqrt(x1^2 + x2^2)) at (1, 1, 0, 0) ->", f.eval((1.0, 1.0, 0.0, 0.0)))
print("printed form round-trips:", str(parse(str(f), 4)) == str(f))

print()
print("== exact derivatives vs central finite differences ==")
rng = np.random.default_rng(0)
expressions = [
    "ln(sqrt(x1^2 + x2^2))",
    "x2 / sqrt(x1^2 + x2^2)",
    "sin(x1) * cos(x2) + x3^3",
    "exp(2 * x1) - x4^-2",
]
for text in expressions:
    e = parse(text, 4)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(0.4, 1.6, size=4)
        for i in range(1, 5):
            exact = differentiate(e, i).eval(p)
            approx = fd_derivative(e, i, p)
            worst = max(worst, abs(exact - approx) / (1.0 + abs(exact)))
    print(f"{text:32s} worst mixed error {worst:.2e}")

print()
print("== error reporting ==")
try:
    parse("x1 / x2", 4).eval((1.0, 0.0, 0.0, 0.0))
except Exception as exc:
    print("x1 / x2 at x2 = 0 ->", exc)
try:
    parse("x1 +", 4)
except Exception as exc:
    print("'x1 +' ->", exc)
