#!/usr/bin/env python3
"""Verify almost complex structures instead of assuming them.

The canonical constant structure on flat R^4 passes everything: it squares
to minus the identity, preserves the metric, and is parallel.  The twisted
preset (the same structure conjugated by a rotation whose angle depends on
x1) still passes the pointwise identities -- conjugating by isometries
cannot break them -- but its derivative no longer vanishes, so both the
parallel test and the weaker symmetrized test fail.  That asymmetry is the
point: the checker separates pointwise algebra from derivative conditions.
"""

import numpy as np

from riemsub import (
    AlmostComplexField,
    check_nearly_kaehler,
    check_structure,
    sample_points,
)
from riemsub.presets import canonical_phi, euclidean_manifold, twisted_phi

M = euclidean_manifold(4)
samples = sample_points(M.domain, 100, seed=42)

canonical = AlmostComplexField(canonical_phi())
twisted = AlmostComplexField(twisted_phi())

print("== action of the canonical structure on the coordinate frame ==")
p = (0.0, 0.0, 0.0, 0.0)
for i in range(4):
    e = np.eye(4)[i]
    print(f"phi(e{i+1}) = {canonical.matrix_at(p) @ e}")
print("phi(e1 - e2) =", canonical.matrix_at(p) @ np.array([1.0, -1.0, 0.0, 0.0]), " (minus e1 + e2)")

print()
print("== pointwise identities: square and compatibility ==")
for name, J in [("canonical", canonical), ("twisted", twisted)]:
    rep = check_structure(M, J, samples, rng=np.random.default_rng(0))
    print(
        f"{name:10s} verdict {rep.verdict:4s}   "
        f"|phi^2 + I| = {rep.details['square_residual']:.2e}   "
        f"|g(phi.,phi.) - g| = {rep.details['compatibility_residual']:.2e}"
    )

print()
print("== derivative conditions ==")
for name, J in [("canonical", canonical), ("twisted", twisted)]:
    rep = check_nearly_kaehler(M, J, samples, rng=np.random.default_rng(1))
    per = np.array(rep.details["per_sample"])
    print(
        f"{name:10s} symmetrized residual {rep.max_residual:.2e} ({rep.verdict}); "
        f"parallel residual {rep.details['kaehler_residual']:.2e}; "
        f"samples above 1e-3: {(per > 1e-3).mean():.0%}"
    )
