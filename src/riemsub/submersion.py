"""Submersion maps, the O'Neill tensors and the checks built on them.

The vertical/horizontal split is part of the per-sample state
(:mod:`riemsub.state`): each check builds the frames of all its points at
once, and :func:`build_frame` is the one-point case.

The two fundamental tensors are evaluated from their defining formulas

    T_E F = H nabla_{VE}(VF) + V nabla_{VE}(HF)
    A_E F = H nabla_{HE}(VF) + V nabla_{HE}(HF)

analytically: the derivative of the projected field VF is that of the
vertical projector, in closed form from the map's Hessian and the metric
derivatives, applied to F, plus the projected symbolic derivative of F.
Both tensors are tensorial in their arguments, so constant extensions of
pointwise vectors are valid inputs.  The state's kernel ``_oneill``
evaluates them for every sample and probe vector of a state in one pass;
``tensor_T`` and ``tensor_A`` are its one-point case, and the checks on
vertical frame pairs read the state's ``fiber_shape``.

Finite differences remain only in the oracles: ``check_decompositions``
compares the tensors with covariant derivatives of fields re-projected at
displaced points (frames recomputed there, one state for all displaced
points of a stencil direction, kept on the base state for the vertical
ones) and differentiated with a five-point stencil.  Those projections
only use the projector onto the span, never a basis-vector identification
across nearby points, which keeps the differentiation stable.
"""

from __future__ import annotations

import numpy as np

from .expr import ExprArray
from .geometry import ManifoldSpec, _field_value, field_rows
from .report import CheckReport, Tolerances
from .state import (  # noqa: F401  (the errors and Frame are public here)
    FD_STEP,
    Frame,
    RankDeficiencyError,
    SampleState,
    SubmersionError,
    _oneill,
    apply,
    connection,
    five_point,
    metric_norms,
    pairs,
    sample_state,
    stencil_points,
)

# Random vector pairs per sample in ``check_skew``.
SKEW_PAIRS = 3


class SmoothMap:
    """Map between chart manifolds, one expression per target component."""

    def __init__(self, source: ManifoldSpec, target: ManifoldSpec, components):
        if target.dim >= source.dim:
            raise ValueError("target dimension must be smaller than source dimension")
        if len(components) != target.dim:
            raise ValueError("need one component expression per target coordinate")
        self.source = source
        self.target = target
        self.components = tuple(components)
        self._values = ExprArray(self.components)
        self._jac = self._values.diff(source.dim)
        self._hess = self._jac.diff(source.dim)

    def map_point(self, point) -> np.ndarray:
        return self._values.eval(point)

    def jacobian_at(self, point) -> np.ndarray:
        """Array ``J[a, i] = d_i (component a)`` at ``point``."""
        return self._jac.eval(point)

    def jacobian_derivs_at(self, point) -> np.ndarray:
        """Array ``H[a, i, j] = d_j d_i (component a)`` at ``point``."""
        return self._hess.eval(point)


def build_frame(F: SmoothMap, point) -> Frame:
    """Orthonormal vertical and horizontal bases at ``point``: the one-row
    case of the per-sample state.  The vertical basis is built here, which
    raises on a rank-deficient Jacobian; the horizontal one on first use."""
    st = SampleState(np.asarray(point, dtype=float)[None], F.source, F)
    st.vertical
    return Frame(st)


def check_submersion(
    F: SmoothMap, samples, tolerance: float = Tolerances.algebraic
) -> CheckReport:
    """Maximal rank plus horizontal-length preservation at each sample.

    ``samples`` is an array of points or their :class:`SampleState`, as for
    every check below."""
    st = sample_state(samples, F.source, F)
    pushed = apply(st.jacobian, st.horizontal)  # raises on rank deficiency
    residual = abs(metric_norms(st.target_metric, pushed) - st.norm(st.horizontal))
    return CheckReport.from_residual(
        "submersion-axioms", "def-submersion", len(st.points),
        float(residual.max(initial=0.0)), tolerance,
    )


def _projected_derivative(st, disp, u, values, disp_values, part: str) -> np.ndarray:
    """``nabla_u`` at the points of ``st`` of the projected field
    ``q -> proj_q(field(q))``, ``part`` selecting the vertical or horizontal
    projection.  The field takes the ``values`` ``(N, m)`` at the points and
    ``disp_values`` at the points of ``disp``, the state at
    ``stencil_points(st.points, u)``."""

    def project(state, v):
        vert = state.vertical_part(v)
        return vert if part == "vertical" else v - vert

    return five_point(project(disp, disp_values), FD_STEP) + st.connection(u, project(st, values))


def _oneill_at(F: SmoothMap, E, Fld, point, kind: str, frame, gamma) -> np.ndarray:
    st = frame.state if frame is not None else SampleState(np.atleast_2d(point), F.source, F)
    if gamma is not None:
        st.christoffel = np.asarray(gamma, dtype=float)[None]
    return _oneill(st, kind, _field_value(E, point)[None], *field_rows(Fld, point))[0]


def tensor_T(F: SmoothMap, E, Fld, point, frame=None, gamma=None) -> np.ndarray:
    """Fiber-shape tensor ``H nabla_{VE}(VF) + V nabla_{VE}(HF)`` at ``point``; a given
    ``frame`` and symbols ``gamma`` must be those at ``point`` (the frame's state is used)."""
    return _oneill_at(F, E, Fld, point, "T", frame, gamma)


def tensor_A(F: SmoothMap, E, Fld, point, frame=None, gamma=None) -> np.ndarray:
    """Horizontal-twist tensor ``H nabla_{HE}(VF) + V nabla_{HE}(HF)``, as :func:`tensor_T`."""
    return _oneill_at(F, E, Fld, point, "A", frame, gamma)


def check_skew(
    F: SmoothMap,
    samples,
    tolerance: float = Tolerances.algebraic,
    rng=None,
) -> CheckReport:
    """Skew-symmetry of both tensors against random vector pairs."""
    st = sample_state(samples, F.source, F)
    N, m = st.points.shape
    probes = st.unit_probes(rng, (SKEW_PAIRS, 2))  # pairs (e, f) per sample
    residual = 0.0
    for kind, basis in (("T", st.vertical), ("A", st.horizontal)):
        shape = (N, SKEW_PAIRS, basis.shape[1], 2, m)
        vecs = np.broadcast_to(probes[:, :, None], shape)
        t = _oneill(st, kind, np.broadcast_to(basis[:, None, :, None], shape), vecs)
        e, f = vecs[..., 0, :], vecs[..., 1, :]
        skew = st.inner(t[..., 0, :], f) + st.inner(e, t[..., 1, :])
        residual = max(residual, float(abs(skew).max(initial=0.0)))
    return CheckReport.from_residual(
        "oneill-skew", "EQ2.14", N, residual, tolerance
    )


def check_decompositions(
    F: SmoothMap, samples, tolerance: float = Tolerances.algebraic
) -> CheckReport:
    """Consistency of T and A with the four split covariant derivatives.

    For frame vectors v, w (vertical) and x, y (horizontal), the covariant
    derivative of the projected field must decompose as

        nabla_v(w~) = T_v w + V nabla_v(w~)      (vertical, vertical)
        nabla_v(x~) = H nabla_v(x~) + T_v x      (vertical, horizontal)
        nabla_x(w~) = A_x w + V nabla_x(w~)      (horizontal, vertical)
        nabla_x(y~) = H nabla_x(y~) + A_x y      (horizontal, horizontal)

    where w~ denotes the re-projected extension of w.
    """
    st = sample_state(samples, F.source, F)
    v, w = st.vertical[:, 0], st.vertical[:, -1]
    x, y = st.horizontal[:, 0], st.horizontal[:, -1]
    along_x = SampleState(stencil_points(st.points, x), F.source, F)
    residual = 0.0
    for direction, disp, kind, vecs in ((v, st.vertical_stencils[0], "T", (w, x)),
                                        (x, along_x, "A", (w, y))):
        for vec, part in zip(vecs, ("vertical", "horizontal")):
            d = _projected_derivative(st, disp, direction, vec, np.tile(vec, (4, 1)), part)
            # The tensor is the part of d complementary to the projection.
            other = st.horizontal_part(d) if part == "vertical" else st.vertical_part(d)
            err = st.norm(other - _oneill(st, kind, direction, vec))
            residual = max(residual, float(err.max(initial=0.0)))
    return CheckReport.from_residual(
        "oneill-decomposition", "EQ2.10-2.13", len(st.points), residual, tolerance
    )


def _sff(st: SampleState, e, fv, fjac=None) -> np.ndarray:
    """Second fundamental form of the map at every sample and probe, for
    directions ``e`` and field values ``fv`` ``(N, ..., m)`` with the
    field's Jacobian ``fjac`` (None for constant extensions)."""
    jac = st.jacobian
    # d_j of the pushed section s^a = jac[a, i] F^i, and nabla_e F
    ds = np.einsum("naij,n...i->n...aj", st.hessian, fv)
    cov = st.connection(e, fv)
    if fjac is not None:
        ds = ds + np.einsum("nai,n...ij->n...aj", jac, fjac)
        cov = cov + np.einsum("n...ij,n...j->n...i", fjac, e)
    pushed = connection(st.target_christoffel, apply(jac, e), apply(jac, fv))
    return np.einsum("n...aj,n...j->n...a", ds, e) + pushed - apply(jac, cov)


def check_sff_vertical(
    F: SmoothMap, samples, tolerance: float = Tolerances.fd
) -> CheckReport:
    """Second fundamental form of the map against the fiber tensor.

    For vertical pairs the pushforward kills everything except the
    horizontal fiber shape: ``(nabla push)(V, W) = -push(T_V W)``.
    """
    st = sample_state(samples, F.source, F)
    e, fv = pairs(st.vertical)
    lhs = _sff(st, e, fv)
    rhs = apply(-st.jacobian, st.fiber_shape)
    residual = metric_norms(st.target_metric, lhs - rhs).max(initial=0.0)
    return CheckReport.from_residual(
        "map-second-fundamental-form", "EQ2.15", len(st.points), float(residual), tolerance
    )


def fiber_character(
    F: SmoothMap, samples, tolerance: float = Tolerances.fd
) -> CheckReport:
    """Mean curvature and umbilical / geodesic character of the fibers.

    Per sample: ``H`` is the average of ``T_V V`` over the vertical frame;
    the umbilical residual is ``max |T_{V_j} V_k - g(V_j, V_k) H|`` and the
    geodesic residual ``max |T_{V_j} V_k|``.  The verdict gates on
    umbilicity, with the totally-geodesic flag in the details.
    """
    k = F.source.dim - F.target.dim
    st = sample_state(samples, F.source, F)
    T = st.fiber_shape  # T[n, j, l] = T_{V_j} V_l
    # Mean (not summed) curvature over the vertical frame.
    H = T[:, range(k), range(k)].mean(axis=1)
    gram = st.inner(*pairs(st.vertical))
    umb_max = float(st.norm(T - gram[..., None] * H[:, None, None]).max(initial=0.0))
    geo_max = float(st.norm(T).max(initial=0.0))
    return CheckReport.from_residual(
        "fiber-character",
        "eq-7",
        len(st.points),
        umb_max,
        tolerance,
        {
            "fiber_dim": k,
            "geodesic_residual": geo_max,
            "totally_geodesic": geo_max <= tolerance,
            "totally_umbilical": umb_max <= tolerance,
            "mean_curvature": H.tolist(),
        },
    )
