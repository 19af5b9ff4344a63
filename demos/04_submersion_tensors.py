#!/usr/bin/env python3
"""Splitting a submersion and measuring its fundamental tensors.

The fixture is the radius map (sqrt(x1^2 + x2^2), x3, x4) from flat R^4 to
R^3.  Its fibers are the circles around the x3x4-axis; the script builds
the vertical/horizontal frame at a point, evaluates the two fundamental
tensors, checks their skew-symmetry, and classifies the fibers (one
dimensional, hence totally umbilical, with a nonzero mean curvature that
matches minus the gradient of ln r).
"""

import random

import numpy as np

from riemsub import (
    ExclusionTube,
    SmoothMap,
    box_domain,
    build_frame,
    check_skew,
    fiber_character,
    gradient,
    parse,
    sample_points,
    tensor_A,
    tensor_T,
)
from riemsub.presets import euclidean_manifold, map_example_ii_components

tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.1)
source = euclidean_manifold(4, domain=box_domain(4, -4.0, 4.0, tubes=[tube]))
target = euclidean_manifold(3, domain=box_domain(3, -10.0, 10.0))
F = SmoothMap(source, target, map_example_ii_components())

p = np.array([1.0, 1.0, 0.0, 0.0])
print("== differential and frame at (1, 1, 0, 0) ==")
print("Jacobian:")
print(F.jacobian_at(p))
fr = build_frame(F, p)
print("vertical frame:  ", fr.vertical[0])
print("horizontal frame:")
print(fr.horizontal)

print()
print("== projections ==")
v = np.array([0.3, -0.8, 0.5, 0.2])
vert, horiz = fr.vertical_part(v), fr.horizontal_part(v)
print("vector          ", v)
print("vertical part   ", vert)
print("horizontal part ", horiz)
print("recombination error:", abs(vert + horiz - v).max())

print()
print("== fundamental tensors ==")
V = fr.vertical[0]
X = fr.horizontal[0]
print("T_V V =", tensor_T(F, V, V, p, fr), " (horizontal: the fiber curves)")
print("A_X V =", tensor_A(F, X, V, p, fr))

samples = sample_points(source.domain, 100, seed=42)
skew = check_skew(F, samples, rng=random.Random(0))
print(f"skew-symmetry residual over 100 samples: {skew.max_residual:.2e} ({skew.verdict})")

print()
print("== fiber character ==")
rep = fiber_character(F, samples)
print(
    f"fiber dim {rep.details['fiber_dim']}   "
    f"totally geodesic: {rep.details['totally_geodesic']}   "
    f"totally umbilical: {rep.details['totally_umbilical']}"
)
H = np.array(fiber_character(F, [p]).details["mean_curvature"][0])
print("mean curvature at (1, 1, 0, 0):", H)
print("-grad ln(r) at the same point: ", -gradient(source, parse("ln(sqrt(x1^2 + x2^2))", 4), p))
