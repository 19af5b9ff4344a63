"""Submersion maps, vertical/horizontal splitting, and the O'Neill tensors.

The splitting at a point comes from a rank-revealing SVD of the map's
Jacobian: the vertical space is the null space, the horizontal space its
metric-orthogonal complement, both orthonormalized in the source metric
with a deterministic sign rule (largest-magnitude component positive).

The two fundamental tensors are evaluated from their defining formulas

    T_E F = H nabla_{VE}(VF) + V nabla_{VE}(HF)
    A_E F = H nabla_{HE}(VF) + V nabla_{HE}(HF)

analytically: the derivative of the projected field VF is that of the
vertical projector, in closed form from the map's Hessian and the metric
derivatives, applied to F, plus the projected symbolic derivative of F.
Both tensors are tensorial in their arguments, so constant extensions of
pointwise vectors are valid inputs.

Finite differences remain only in the oracles: ``check_decompositions``
compares the tensors with covariant derivatives of fields re-projected at
displaced points (frames recomputed there) and differentiated with a
five-point stencil.  Those projections only use the projector onto the
span, never a basis-vector identification across nearby points, which
keeps the differentiation stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import ExprArray
from .geometry import (
    RANK_RTOL,
    ManifoldSpec,
    VectorField,
    _field_value,
    christoffel,
    covariant_derivative,
    metric_norm,
)
from .report import CheckReport, Tolerances

FD_STEP = 1e-5
# Random vector pairs per sample in ``check_skew``.
SKEW_PAIRS = 3


class SubmersionError(Exception):
    pass


class RankDeficiencyError(SubmersionError):
    def __init__(self, point, rank, expected):
        super().__init__(
            f"Jacobian rank {rank} (expected {expected}) at "
            f"{np.asarray(point).tolist()}"
        )
        self.point = np.asarray(point, dtype=float)
        self.rank = rank
        self.expected = expected


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
        m = source.dim
        self._values = ExprArray(self.components)
        self._jac = tuple(
            tuple(c.diff(i + 1) for i in range(m)) for c in self.components
        )
        self._jac_values = ExprArray(self._jac)
        self._hess = None  # built lazily; [a][i][j] = d_j d_i comp_a
        self._frame_cache = {}

    def map_point(self, point) -> np.ndarray:
        return self._values.eval(np.asarray(point, dtype=float))

    def jacobian_at(self, point) -> np.ndarray:
        return self._jac_values.eval(np.asarray(point, dtype=float))

    def jacobian_derivs_at(self, point) -> np.ndarray:
        """Array ``H[a, i, j] = d_j d_i (component a)`` at ``point``."""
        if self._hess is None:
            m = self.source.dim
            self._hess = ExprArray(
                tuple(
                    tuple(tuple(e.diff(j + 1) for j in range(m)) for e in row)
                    for row in self._jac
                )
            )
        return self._hess.eval(np.asarray(point, dtype=float))


@dataclass
class Frame:
    """Point-anchored orthonormal bases of the vertical/horizontal split."""

    point: np.ndarray
    metric: np.ndarray
    vertical: np.ndarray  # (m - n, m) rows, g-orthonormal
    horizontal: np.ndarray  # (n, m) rows, g-orthonormal
    # dP[l] = d(vertical projector)/d x_{l+1}, built on first tensor use
    projector_derivs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def vertical_part(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        coeffs = self.vertical @ (self.metric @ v)
        return coeffs @ self.vertical

    def horizontal_part(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float) - self.vertical_part(v)


def _fix_sign(row: np.ndarray) -> np.ndarray:
    # First component of largest magnitude made positive; the magnitude
    # comparison tolerates rounding so exact ties resolve deterministically.
    mags = np.abs(row)
    idx = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
    return -row if row[idx] < 0.0 else row


def _gram_schmidt_g(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    gram = rows @ g @ rows.T
    if abs(gram - np.eye(len(rows))).max() < 1e-13:
        return np.array([_fix_sign(u) for u in rows])
    out = []
    for row in rows:
        v = row.astype(float)
        for u in out:
            v = v - float(v @ g @ u) * u
        n = metric_norm(g, v)
        if n < 1e-12:
            raise SubmersionError("degenerate basis during orthonormalization")
        out.append(v / n)
    return np.array([_fix_sign(u) for u in out])


def _null_space_rows(A: np.ndarray, expected_rank: int, point) -> np.ndarray:
    _, s, vt = np.linalg.svd(A)
    smax = s[0] if len(s) else 0.0
    rank = int((s > RANK_RTOL * max(smax, 1e-300)).sum())
    if rank != expected_rank:
        raise RankDeficiencyError(point, rank, expected_rank)
    return vt[rank:]


def frame_at(F: SmoothMap, point) -> Frame:
    """Orthonormal vertical and horizontal bases at ``point`` (not memoized)."""
    p = np.asarray(point, dtype=float)
    A = F.jacobian_at(p)
    g = F.source.metric_at(p)
    n = F.target.dim
    kernel = _null_space_rows(A, n, p)
    vertical = _gram_schmidt_g(kernel, g)
    # The g-orthocomplement of the kernel is the inverse-metric image of
    # the Jacobian row space.
    comp = np.linalg.solve(g, A.T).T
    horizontal = _gram_schmidt_g(comp, g)
    return Frame(point=p, metric=g, vertical=vertical, horizontal=horizontal)


def build_frame(F: SmoothMap, point) -> Frame:
    """Memoized :func:`frame_at`, per map and exact point.

    The finite-difference oracles and the trajectory windows of the
    geodesic checks revisit the same points many times.
    """
    p = np.asarray(point, dtype=float)
    key = p.tobytes()
    cached = F._frame_cache.get(key)
    if cached is not None:
        return cached
    frame = frame_at(F, p)
    if len(F._frame_cache) >= 8192:
        F._frame_cache.clear()
    F._frame_cache[key] = frame
    return frame


def check_submersion(
    F: SmoothMap, samples, tolerance: float = Tolerances.algebraic
) -> CheckReport:
    """Maximal rank plus horizontal-length preservation at each sample."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    residual = 0.0
    for p in samples:
        fr = build_frame(F, p)  # raises on rank deficiency
        A = F.jacobian_at(p)
        gn = F.target.metric_at(F.map_point(p))
        for X in fr.horizontal:
            pushed = A @ X
            residual = max(
                residual, abs(metric_norm(gn, pushed) - metric_norm(fr.metric, X))
            )
    return CheckReport.from_residual(
        "submersion-axioms", "def-submersion", len(samples), residual, tolerance
    )


def five_point(samples, h: float) -> np.ndarray:
    """Fourth-order central derivative from the values at -2h, -h, +h, +2h.

    Differences are grouped before summing so that nearly-equal samples
    cancel exactly instead of leaving an ulp residue amplified by 1/h.
    """
    m2, m1, p1, p2 = samples
    return (8.0 * (p1 - m1) + (m2 - p2)) / (12.0 * h)


def _directional_derivative(fn, p, u) -> np.ndarray:
    """Five-point fourth-order directional derivative of a vector function."""
    h = FD_STEP
    return five_point([fn(p + t * u) for t in (-2.0 * h, -h, h, 2.0 * h)], h)


def _covariant_projected(F, direction, Fld, p, gamma, part: str) -> np.ndarray:
    """``nabla_direction`` of the projected field q -> proj_q(Fld(q)).

    ``part`` selects the vertical or horizontal projection.  Returns the
    full covariant derivative vector at ``p``.
    """

    if part == "vertical":
        def fn(q):
            return build_frame(F, q).vertical_part(Fld.at(q))
    else:
        def fn(q):
            return build_frame(F, q).horizontal_part(Fld.at(q))

    d = _directional_derivative(fn, p, direction)
    w = fn(p)
    return d + np.einsum("kij,i,j->k", gamma, direction, w)


def _projector_derivs(F: SmoothMap, fr: Frame) -> np.ndarray:
    """``dP[l] = d P_V / d x_{l+1}`` at the frame's point, cached on the frame.

    With ``K = G^-1`` and ``Z = (A K A^T)^-1 A`` for the Jacobian ``A``, the
    vertical projector is ``P_V = I - K A^T Z``; differentiating through the
    inverses (Golub & Pereyra 1973) gives

        dP_V = -P_V K (dA^T Z - dG P_H) - K Z^T dA P_V

    with ``dA`` from the map's Hessian and ``dG`` from the metric derivatives.
    """
    if fr.projector_derivs is None:
        p, g = fr.point, fr.metric
        A = F.jacobian_at(p)
        K = np.linalg.inv(g)
        Z = np.linalg.solve(A @ K @ A.T, A)
        pv = fr.vertical.T @ fr.vertical @ g
        H = F.jacobian_derivs_at(p)  # [a, i, l] = d_l A[a, i]
        X = np.einsum("ail,aj->lij", H, Z)
        if not F.source.is_flat_constant:
            X = X - F.source.metric_derivs_at(p) @ (np.eye(len(p)) - pv)
        fr.projector_derivs = -(pv @ K) @ X - (K @ Z.T) @ H.transpose(2, 0, 1) @ pv
    return fr.projector_derivs


def _oneill(F: SmoothMap, E, Fld, point, kind: str, frame=None, gamma=None):
    p = np.asarray(point, dtype=float)
    fr = frame if frame is not None else build_frame(F, p)
    gamma = gamma if gamma is not None else christoffel(F.source, p)
    e = _field_value(E, p)
    u = fr.vertical_part(e) if kind == "T" else fr.horizontal_part(e)
    fp = _field_value(Fld, p)
    vfp = fr.vertical_part(fp)
    hfp = fp - vfp
    # Derivatives along u of the field (symbolic) and of its vertical
    # projection q -> P_V(q) F(q); a plain vector is a constant field.
    dvert = np.einsum("l,lij,j->i", u, _projector_derivs(F, fr), fp)
    dfield = 0.0
    if isinstance(Fld, VectorField):
        dfield = Fld.jacobian_at(p) @ u
        dvert = dvert + fr.vertical_part(dfield)
    nabla_vf = dvert + np.einsum("kij,i,j->k", gamma, u, vfp)
    nabla_hf = (dfield - dvert) + np.einsum("kij,i,j->k", gamma, u, hfp)
    return fr.horizontal_part(nabla_vf) + fr.vertical_part(nabla_hf)


def tensor_T(F: SmoothMap, E, Fld, point, frame=None, gamma=None) -> np.ndarray:
    """Fiber-shape tensor: ``H nabla_{VE}(VF) + V nabla_{VE}(HF)`` at ``point``."""
    return _oneill(F, E, Fld, point, "T", frame, gamma)


def tensor_A(F: SmoothMap, E, Fld, point, frame=None, gamma=None) -> np.ndarray:
    """Horizontal-twist tensor: ``H nabla_{HE}(VF) + V nabla_{HE}(HF)``."""
    return _oneill(F, E, Fld, point, "A", frame, gamma)


def check_skew(
    F: SmoothMap,
    samples,
    tolerance: float = Tolerances.algebraic,
    rng=None,
) -> CheckReport:
    """Skew-symmetry of both tensors against random vector pairs."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    rng = rng if rng is not None else np.random.default_rng(0)
    residual = 0.0
    for p in samples:
        fr = build_frame(F, p)
        gamma = christoffel(F.source, p)
        g = fr.metric
        for _ in range(SKEW_PAIRS):
            e = rng.standard_normal(F.source.dim)
            f = rng.standard_normal(F.source.dim)
            e /= metric_norm(g, e)
            f /= metric_norm(g, f)
            for U in fr.vertical:
                tu_e = tensor_T(F, U, e, p, fr, gamma)
                tu_f = tensor_T(F, U, f, p, fr, gamma)
                residual = max(
                    residual, abs(float(tu_e @ g @ f) + float(e @ g @ tu_f))
                )
            for X in fr.horizontal:
                ax_e = tensor_A(F, X, e, p, fr, gamma)
                ax_f = tensor_A(F, X, f, p, fr, gamma)
                residual = max(
                    residual, abs(float(ax_e @ g @ f) + float(e @ g @ ax_f))
                )
    return CheckReport.from_residual(
        "oneill-skew", "EQ2.14", len(samples), residual, tolerance
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
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    residual = 0.0
    for p in samples:
        fr = build_frame(F, p)
        gamma = christoffel(F.source, p)
        v, w = fr.vertical[0], fr.vertical[-1]
        x, y = fr.horizontal[0], fr.horizontal[-1]
        for direction, vec, part, tensor in (
            (v, w, "vertical", tensor_T),
            (v, x, "horizontal", tensor_T),
            (x, w, "vertical", tensor_A),
            (x, y, "horizontal", tensor_A),
        ):
            d = _covariant_projected(F, direction, VectorField.constant(vec), p, gamma, part)
            # The tensor is the part of d complementary to the projection.
            other = fr.horizontal_part(d) if part == "vertical" else fr.vertical_part(d)
            residual = max(
                residual,
                metric_norm(fr.metric, other - tensor(F, direction, vec, p, fr, gamma)),
            )
    return CheckReport.from_residual(
        "oneill-decomposition", "EQ2.10-2.13", len(samples), residual, tolerance
    )


def second_fundamental_form(F: SmoothMap, E, Fld, point) -> np.ndarray:
    """Second fundamental form of the map, in target coordinates.

    ``nabla^N_E (push F) - push(nabla^M_E F)`` with the pullback connection
    on the first term; everything is assembled from symbolic derivatives of
    the map components, so no finite differencing is involved.
    """
    p = np.asarray(point, dtype=float)
    if not isinstance(Fld, VectorField):
        Fld = VectorField.constant(np.asarray(Fld, dtype=float))
    e = _field_value(E, p)
    jac = F.jacobian_at(p)
    hess = F.jacobian_derivs_at(p)  # [a, i, j] = d_j d_i comp_a
    fv = Fld.at(p)
    fj = Fld.jacobian_at(p)  # [i, j] = d_j F^i
    q = F.map_point(p)
    gamma_n = christoffel(F.target, q)
    # d_j of the pushed section s^a = jac[a, i] F^i
    ds = np.einsum("aij,i->aj", hess, fv) + jac @ fj
    pushed_e = jac @ e
    s_val = jac @ fv
    term1 = ds @ e + np.einsum("abc,b,c->a", gamma_n, pushed_e, s_val)
    term2 = jac @ covariant_derivative(F.source, e, Fld, p)
    return term1 - term2


def check_sff_vertical(
    F: SmoothMap, samples, tolerance: float = Tolerances.fd
) -> CheckReport:
    """Second fundamental form of the map against the fiber tensor.

    For vertical pairs the pushforward kills everything except the
    horizontal fiber shape: ``(nabla push)(V, W) = -push(T_V W)``.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    residual = 0.0
    for p in samples:
        fr = build_frame(F, p)
        gamma = christoffel(F.source, p)
        gn = F.target.metric_at(F.map_point(p))
        jac = F.jacobian_at(p)
        for vj in fr.vertical:
            for vk in fr.vertical:
                lhs = second_fundamental_form(F, vj, vk, p)
                rhs = -jac @ tensor_T(F, vj, vk, p, fr, gamma)
                residual = max(residual, metric_norm(gn, lhs - rhs))
    return CheckReport.from_residual(
        "map-second-fundamental-form", "EQ2.15", len(samples), residual, tolerance
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
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    k = F.source.dim - F.target.dim
    if k == 0:
        raise SubmersionError("map has zero-dimensional fibers")
    umb_max = 0.0
    geo_max = 0.0
    mean_curvatures = []
    for p in samples:
        fr = build_frame(F, p)
        gamma = christoffel(F.source, p)
        g = fr.metric
        T = np.array(
            [
                [tensor_T(F, vj, vk, p, fr, gamma) for vk in fr.vertical]
                for vj in fr.vertical
            ]
        )
        # Mean (not summed) curvature over the vertical frame.
        H = np.mean([T[i, i] for i in range(k)], axis=0)
        mean_curvatures.append(H)
        for j in range(k):
            for l in range(k):
                gram = float(fr.vertical[j] @ g @ fr.vertical[l])
                umb_max = max(umb_max, metric_norm(g, T[j, l] - gram * H))
                geo_max = max(geo_max, metric_norm(g, T[j, l]))
    return CheckReport.from_residual(
        "fiber-character",
        "eq-7",
        len(samples),
        umb_max,
        tolerance,
        {
            "fiber_dim": k,
            "geodesic_residual": geo_max,
            "totally_geodesic": geo_max <= tolerance,
            "totally_umbilical": umb_max <= tolerance,
            "mean_curvature": [h.tolist() for h in mean_curvatures],
        },
    )
