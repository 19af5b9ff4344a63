"""Almost complex structures and their derivative tensors.

An :class:`AlmostComplexField` is a matrix of expressions acting on tangent
components, ``(phi v)^i = phi^i_j v^j``.  The checks verify the two
defining identities (square is minus the identity, metric compatibility)
and the two derivative conditions: the parallel case (the covariant
derivative of phi vanishes) and the weaker symmetrized condition
``(nabla_X phi)Y + (nabla_Y phi)X = 0``.
"""

from __future__ import annotations

import numpy as np

from .expr import ExprArray
from .geometry import ManifoldSpec, _field_value, christoffel, metric_norm
from .report import CheckReport, Tolerances

# Random unit vectors per sample in ``check_structure`` and random vector
# pairs per sample in ``check_nearly_kaehler``.
STRUCTURE_VECTORS = 4
NEARLY_KAEHLER_PAIRS = 4


class AlmostComplexField:
    """Type (1,1) tensor field given as an expression matrix."""

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        self.dim = len(self.entries)
        if any(len(row) != self.dim for row in self.entries):
            raise ValueError("phi matrix must be square")
        self._matrix = ExprArray(self.entries)
        # dentries[l][i][j] = d phi^i_j / d x_{l+1}
        self._dentries = ExprArray(
            tuple(
                tuple(tuple(e.diff(l + 1) for e in row) for row in self.entries)
                for l in range(self.dim)
            )
        )

    def matrix_at(self, point) -> np.ndarray:
        return self._matrix.eval(np.asarray(point, dtype=float))

    def derivs_at(self, point) -> np.ndarray:
        """Array ``D[l, i, j] = d phi^i_j / d x_{l+1}`` at ``point``."""
        return self._dentries.eval(np.asarray(point, dtype=float))


def apply_phi(J: AlmostComplexField, point, v) -> np.ndarray:
    """Apply the structure at ``point`` to a tangent vector."""
    return J.matrix_at(point) @ np.asarray(v, dtype=float)


def nabla_phi(M: ManifoldSpec, J: AlmostComplexField, X, Y, point) -> np.ndarray:
    """Value of ``(nabla_X phi) Y = nabla_X(phi Y) - phi(nabla_X Y)``.

    Tensorial in both arguments, so each may be a field or a plain tangent
    vector.  The field-derivative contributions cancel in the difference,
    leaving the coordinate derivative of phi plus connection corrections.
    """
    p = np.asarray(point, dtype=float)
    A = J.matrix_at(p)
    xv = _field_value(X, p)
    yv = _field_value(Y, p)
    dphi = J.derivs_at(p)
    out = np.einsum("lij,l,j->i", dphi, xv, yv)
    if not M.is_flat_constant:
        gamma = christoffel(M, p)
        out = out + np.einsum("kij,i,j->k", gamma, xv, A @ yv)
        out = out - A @ np.einsum("kij,i,j->k", gamma, xv, yv)
    return out


def _unit_vectors(g: np.ndarray, rng: np.random.Generator, count: int):
    vecs = []
    for _ in range(count):
        v = rng.standard_normal(len(g))
        n = metric_norm(g, v)
        vecs.append(v / n)
    return vecs


def check_structure(
    M: ManifoldSpec,
    J: AlmostComplexField,
    samples,
    tolerance: float = Tolerances.algebraic,
    rng=None,
) -> CheckReport:
    """Residuals of ``phi^2 = -I`` and ``g(phi X, phi Y) = g(X, Y)``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    rng = rng if rng is not None else np.random.default_rng(0)
    sq_max = 0.0
    compat_max = 0.0
    for p in samples:
        g = M.metric_at(p)
        A = J.matrix_at(p)
        vs = _unit_vectors(g, rng, STRUCTURE_VECTORS)
        for v in vs:
            sq_max = max(sq_max, metric_norm(g, A @ (A @ v) + v))
        for v, w in zip(vs, vs[1:] + vs[:1]):
            compat_max = max(
                compat_max, abs(float((A @ v) @ g @ (A @ w)) - float(v @ g @ w))
            )
    residual = max(sq_max, compat_max)
    return CheckReport.from_residual(
        "structure",
        "eq-ka1",
        len(samples),
        residual,
        tolerance,
        {"square_residual": sq_max, "compatibility_residual": compat_max},
    )


def check_nearly_kaehler(
    M: ManifoldSpec,
    J: AlmostComplexField,
    samples,
    tolerance: float = Tolerances.algebraic,
    rng=None,
) -> CheckReport:
    """Symmetrized derivative residual, with a parallel-structure sub-verdict.

    Per sample and random constant field pair the report tracks
    ``|(nabla_X phi)Y + (nabla_Y phi)X|`` (gating) and ``|(nabla_X phi)Y|``
    (the stronger parallel condition, reported in the details together with
    per-sample maxima).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    rng = rng if rng is not None else np.random.default_rng(0)
    nk_per_sample = []
    ka_per_sample = []
    for p in samples:
        g = M.metric_at(p)
        nk_max = 0.0
        ka_max = 0.0
        for _ in range(NEARLY_KAEHLER_PAIRS):
            xv, yv = _unit_vectors(g, rng, 2)
            dxy = nabla_phi(M, J, xv, yv, p)
            dyx = nabla_phi(M, J, yv, xv, p)
            nk_max = max(nk_max, metric_norm(g, dxy + dyx))
            ka_max = max(ka_max, metric_norm(g, dxy))
        nk_per_sample.append(nk_max)
        ka_per_sample.append(ka_max)
    nk_residual = max(nk_per_sample)
    ka_residual = max(ka_per_sample)
    return CheckReport.from_residual(
        "nearly-kaehler",
        "eq-ka2",
        len(samples),
        nk_residual,
        tolerance,
        {
            "kaehler_residual": ka_residual,
            "kaehler": ka_residual <= tolerance,
            "per_sample": nk_per_sample,
            "kaehler_per_sample": ka_per_sample,
        },
    )
