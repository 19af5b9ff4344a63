#!/usr/bin/env python3
"""The Clairaut invariant along geodesics, and what breaks it.

For the radius submersion with exponent f = ln(r), the quantity
e^f sin(theta) is conserved along geodesics (theta is the angle between
the velocity and the horizontal space).  On flat R^4 the geodesics are
straight lines and the conserved value is the perpendicular distance from
the line to the x3x4-axis.  The script integrates a few lines, shows the
conserved column, runs the geodesic-condition residuals, and then feeds in
deliberate failures: a circle (not a geodesic) and a wrong exponent.
"""

import numpy as np

from riemsub import (
    AlmostComplexField,
    ClairautScenario,
    ExclusionTube,
    GeodesicTrajectory,
    SmoothMap,
    box_domain,
    check_bishop,
    check_clairaut_condition,
    clairaut_invariant,
    curve_windows,
    geodesic_condition_residuals,
    geodesic_integrate,
    interior_indices,
    invariant_series,
    parse,
)
from riemsub.presets import canonical_phi, euclidean_manifold, map_example_ii_components


def radius_scenario(f_text):
    tube = ExclusionTube(parse("sqrt(x1^2 + x2^2)", 4), 0.1)
    source = euclidean_manifold(4, domain=box_domain(4, -4.0, 4.0, tubes=[tube]))
    target = euclidean_manifold(3, domain=box_domain(3, -10.0, 10.0))
    F = SmoothMap(source, target, map_example_ii_components())
    return ClairautScenario(
        name="radius", J=AlmostComplexField(canonical_phi()), F=F, f=parse(f_text, 4)
    )


sc = radius_scenario("ln(sqrt(x1^2 + x2^2))")

print("== conserved quantity along straight-line geodesics ==")
cases = [
    ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),
    ((-0.6, 0.4, 0.1, -0.2), (0.8, 0.6, 0.0, 0.0)),
]
for p0, v0 in cases:
    traj = geodesic_integrate(sc.M, p0, v0, 2.0, 1e-3)
    _, invariant = invariant_series(sc, traj)
    expected = abs(p0[0] * v0[1] - p0[1] * v0[0])  # distance to the axis
    print(
        f"p0={p0} v0={v0}: c = {invariant[0]:.6f} "
        f"(axis distance {expected:.6f}), drift {abs(invariant - invariant[0]).max():.2e}"
    )
rep = clairaut_invariant(sc, traj)
print(f"invariant check verdict: {rep.verdict} (relative drift {rep.max_residual:.2e})")

print()
print("== geodesic-condition residuals ==")
traj = geodesic_integrate(sc.M, (1.0, 0.2, 0.1, -0.2), (0.1, 0.8, 0.3, 0.2), 2.0, 1e-3)
idx = interior_indices(traj, count=5)
windows = curve_windows(sc, traj, idx)  # one array per residual, one entry per window
for i, rv, rh in zip(idx, windows.vertical, windows.horizontal):
    print(f"s = {traj.s[i]:.3f}: vertical {rv:.2e}   horizontal {rh:.2e}")
rep = check_clairaut_condition(sc, windows)
print(f"Clairaut rate identity residual: {rep.max_residual:.2e} ({rep.verdict})")

print()
print("== control: a circle is not a geodesic ==")
t = 1e-3 * np.arange(400)
circle = GeodesicTrajectory.from_samples(
    sc.M,
    t,
    np.stack([np.cos(t), np.sin(t), 0 * t, 0 * t], axis=1),
    np.stack([-np.sin(t), np.cos(t), 0 * t, 0 * t], axis=1),
    1e-3,
)
rv, rh = geodesic_condition_residuals(sc, circle, len(circle) // 2)
print(f"circle residuals: vertical {rv:.3f}   horizontal {rh:.3f}  (order one)")

print()
print("== control: wrong exponent fails the umbilicity criterion ==")
wrong = radius_scenario("x3")
rep = check_bishop(wrong, [(1.0, 1.0, 0.0, 0.0)])
print(f"f = x3: residual {rep.max_residual:.4f} ({rep.verdict})")
rep = check_bishop(sc, [(1.0, 1.0, 0.0, 0.0)])
print(f"f = ln(r): residual {rep.max_residual:.2e} ({rep.verdict})")
