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
from .geometry import ManifoldSpec, _field_value
from .report import CheckReport, Tolerances
from .state import SampleState, apply, sample_state

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
        self._dentries = self._matrix.diff(self.dim)  # [i, j, l] = d phi^i_j / d x_{l+1}

    def matrix_at(self, point) -> np.ndarray:
        return self._matrix.eval(point)

    def derivs_at(self, point) -> np.ndarray:
        """Array ``D[l, i, j] = d phi^i_j / d x_{l+1}`` at ``point`` (a view)."""
        return self._dentries.eval(point).swapaxes(-1, -2).swapaxes(-2, -3)


def _nabla_phi(st: SampleState, x, y) -> np.ndarray:
    """``(nabla_x phi) y`` at every sample and probe, ``x`` and ``y`` ``(N, ..., m)``.

    The field-derivative contributions cancel in the difference, leaving
    the coordinate derivative of phi plus connection corrections.
    """
    out = np.einsum("nlij,n...l,n...j->n...i", st.phi_derivs, x, y)
    if not st.M.is_flat_constant:
        out = out + st.connection(x, apply(st.phi, y)) - apply(st.phi, st.connection(x, y))
    return out


def nabla_phi(M: ManifoldSpec, J: AlmostComplexField, X, Y, point) -> np.ndarray:
    """Value of ``(nabla_X phi) Y = nabla_X(phi Y) - phi(nabla_X Y)``.

    Tensorial in both arguments, so each may be a field or a plain tangent
    vector.  The one-point case of :func:`_nabla_phi`.
    """
    st = SampleState(np.atleast_2d(point), M, J=J)
    return _nabla_phi(st, _field_value(X, point)[None], _field_value(Y, point)[None])[0]


def check_structure(
    M: ManifoldSpec,
    J: AlmostComplexField,
    samples,
    tolerance: float = Tolerances.algebraic,
    rng=None,
) -> CheckReport:
    """Residuals of ``phi^2 = -I`` and ``g(phi X, phi Y) = g(X, Y)``.

    ``samples`` is an array of points or their :class:`SampleState`, as for
    the check below."""
    st = sample_state(samples, M, J=J)
    if len(st.points) == 0:
        raise ValueError("samples must be nonempty")
    rng = rng if rng is not None else np.random.default_rng(0)
    vs = st.unit_probes(rng, (STRUCTURE_VECTORS,))
    ws = np.roll(vs, -1, axis=1)  # each vector paired with the next, cyclically
    A = st.phi
    sq_max = float(st.norm(apply(A, apply(A, vs)) + vs).max())
    compat = st.inner(apply(A, vs), apply(A, ws)) - st.inner(vs, ws)
    compat_max = float(abs(compat).max())
    residual = max(sq_max, compat_max)
    return CheckReport.from_residual(
        "structure",
        "eq-ka1",
        len(st.points),
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
    st = sample_state(samples, M, J=J)
    if len(st.points) == 0:
        raise ValueError("samples must be nonempty")
    rng = rng if rng is not None else np.random.default_rng(0)
    probes = st.unit_probes(rng, (NEARLY_KAEHLER_PAIRS, 2))
    xv, yv = probes[:, :, 0], probes[:, :, 1]
    dxy = _nabla_phi(st, xv, yv)
    dyx = _nabla_phi(st, yv, xv)
    nk_per_sample = st.norm(dxy + dyx).max(axis=1).tolist()
    ka_per_sample = st.norm(dxy).max(axis=1).tolist()
    nk_residual = max(nk_per_sample)
    ka_residual = max(ka_per_sample)
    return CheckReport.from_residual(
        "nearly-kaehler",
        "eq-ka2",
        len(st.points),
        nk_residual,
        tolerance,
        {
            "kaehler_residual": ka_residual,
            "kaehler": ka_residual <= tolerance,
            "per_sample": nk_per_sample,
            "kaehler_per_sample": ka_per_sample,
        },
    )
