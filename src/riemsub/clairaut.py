"""Clairaut-submersion checks: anti-invariance, the structure splittings,
Bishop's umbilicity criterion, the conserved quantity along geodesics, and
the residuals of the geodesic / Clairaut / transfer identities.

All checks are residual-based at sampled points or along discretized
curves.  Curve derivatives use a five-point stencil over stored trajectory
samples, so they apply equally to integrated geodesics and to analytic
control curves (which need not be geodesics); "interior" indices therefore
keep a margin of two samples from each end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, partials
from .geometry import (
    GeodesicTrajectory,
    ManifoldSpec,
    christoffel,
    gradient,
    metric_norm,
)
from .hermitian import AlmostComplexField, apply_phi, nabla_phi
from .report import CheckReport, Tolerances
from .submersion import (
    Frame,
    SmoothMap,
    SubmersionError,
    _directional_derivative,
    _fix_sign,
    build_frame,
    fiber_character,
    five_point,
    frame_at,
    tensor_A,
    tensor_T,
)


class NonGeodesicError(Exception):
    """A curve handed to a geodesics-only check failed the geodesic gate."""


@dataclass(frozen=True)
class SamplingConfig:
    count: int = 200
    seed: int = 42


@dataclass
class ClairautScenario:
    """Everything a check needs: structure, map, exponent, tolerances."""

    name: str
    J: AlmostComplexField
    F: SmoothMap
    f: Expr
    tolerances: Tolerances = field(default_factory=Tolerances)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)

    @property
    def M(self) -> ManifoldSpec:
        return self.F.source

    @property
    def N(self) -> ManifoldSpec:
        return self.F.target

    @property
    def fiber_dim(self) -> int:
        return self.M.dim - self.N.dim

    @property
    def mu_dim(self) -> int:
        return self.N.dim - self.fiber_dim


@dataclass
class SplitResult:
    """Decomposition ``phi X = alpha + beta`` of a horizontal vector."""

    alpha: np.ndarray
    beta: np.ndarray
    mu_frame: np.ndarray
    vertical_residual: float
    phiker_residual: float


def mu_basis(sc: ClairautScenario, fr: Frame) -> np.ndarray:
    """Orthonormal basis of the horizontal complement of phi(vertical).

    Projects the image of the vertical frame out of the horizontal frame
    and keeps the ``mu_dim`` largest-norm survivors (norm-pivoted, so the
    selection is deterministic).
    """
    g = fr.metric
    p = fr.point
    phiV = np.array([apply_phi(sc.J, p, v) for v in fr.vertical])
    residuals = []
    for h in fr.horizontal:
        r = h.astype(float)
        for pv in phiV:
            r = r - float(r @ g @ pv) * pv
        residuals.append(r)
    rows = []
    for _ in range(sc.mu_dim):
        norms = [metric_norm(g, r) for r in residuals]
        best = int(np.argmax(norms))
        if norms[best] < 1e-6:
            raise SubmersionError(
                "could not span the complement of phi(vertical); "
                "is the submersion anti-invariant?"
            )
        u = residuals[best] / norms[best]
        rows.append(_fix_sign(u))
        residuals = [r - float(r @ g @ u) * u for r in residuals]
    return np.array(rows) if rows else np.empty((0, sc.M.dim))


def check_anti_invariant(sc: ClairautScenario, samples) -> CheckReport:
    """Vertical part of the image of each vertical frame vector must vanish."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    residual = 0.0
    for p in samples:
        fr = build_frame(sc.F, p)
        for v in fr.vertical:
            residual = max(
                residual, metric_norm(fr.metric, fr.vertical_part(apply_phi(sc.J, p, v)))
            )
    return CheckReport.from_residual(
        "anti-invariance",
        "def-anti-invariant",
        len(samples),
        residual,
        sc.tolerances.algebraic,
        {"mu_dim": sc.mu_dim, "lagrangian": sc.mu_dim == 0},
    )


def alpha_beta_split(
    sc: ClairautScenario, point, X, frame: Frame | None = None
) -> SplitResult:
    """Split ``phi X`` into its vertical part and its remainder in mu."""
    p = np.asarray(point, dtype=float)
    fr = frame if frame is not None else build_frame(sc.F, p)
    X = np.asarray(X, dtype=float)
    g = fr.metric
    if metric_norm(g, fr.vertical_part(X)) > 1e-10 * max(1.0, metric_norm(g, X)):
        raise ValueError("input vector is not horizontal at the given point")
    phiX = apply_phi(sc.J, p, X)
    alpha = fr.vertical_part(phiX)
    beta = phiX - alpha
    mu = mu_basis(sc, fr)
    phiV = np.array([apply_phi(sc.J, p, v) for v in fr.vertical])
    phiker_residual = max(
        (abs(float(beta @ g @ pv)) for pv in phiV), default=0.0
    )
    vertical_residual = metric_norm(g, fr.vertical_part(beta))
    return SplitResult(alpha, beta, mu, vertical_residual, phiker_residual)


def pq_tensors(sc: ClairautScenario, U, V, point, frame: Frame | None = None):
    """Horizontal and vertical parts of ``(nabla_U phi) V``."""
    p = np.asarray(point, dtype=float)
    fr = frame if frame is not None else build_frame(sc.F, p)
    d = nabla_phi(sc.M, sc.J, U, V, p)
    vert = fr.vertical_part(d)
    return d - vert, vert


def check_bishop(sc: ClairautScenario, samples) -> CheckReport:
    """Umbilicity with mean curvature equal to minus the exponent gradient:
    residual of ``T_V W + g(V, W) grad f`` over vertical frame pairs."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    residual = 0.0
    grad_max = 0.0
    for p in samples:
        fr = build_frame(sc.F, p)
        gamma = christoffel(sc.M, p)
        g = fr.metric
        gradf = gradient(sc.M, sc.f, p)
        grad_max = max(grad_max, metric_norm(g, gradf))
        for j, vj in enumerate(fr.vertical):
            for k, vk in enumerate(fr.vertical):
                t = tensor_T(sc.F, vj, vk, p, fr, gamma)
                gram = float(vj @ g @ vk)
                residual = max(residual, metric_norm(g, t + gram * gradf))
    return CheckReport.from_residual(
        "bishop-clairaut",
        "th-bis",
        len(samples),
        residual,
        sc.tolerances.fd,
        {
            "f_constant": grad_max <= sc.tolerances.algebraic,
            "max_grad_norm": grad_max,
        },
    )


def invariant_series(sc: ClairautScenario, traj: GeodesicTrajectory):
    """Per-sample ``sin(theta)`` and the conserved quantity ``e^f sin(theta)``.

    ``theta`` is the angle between the velocity and the horizontal space,
    computed from the splitting: ``sin(theta) = |vertical part| / |velocity|``.
    """
    sin_theta = np.empty(len(traj))
    invariant = np.empty(len(traj))
    for i, (p, v) in enumerate(zip(traj.points, traj.velocities)):
        # Trajectory points are not revisited, so they bypass the frame memo.
        fr = frame_at(sc.F, p)
        speed = metric_norm(fr.metric, v)
        if speed < 1e-12:
            raise ValueError("curve is not regular: zero velocity sample")
        sin_theta[i] = metric_norm(fr.metric, fr.vertical_part(v)) / speed
        invariant[i] = np.exp(sc.f.eval(p)) * sin_theta[i]
    return sin_theta, invariant


def clairaut_invariant(sc: ClairautScenario, traj: GeodesicTrajectory) -> CheckReport:
    """Relative drift of ``e^f sin(theta)`` along the trajectory; the drift
    tolerance is per unit length, for arcs longer than one."""
    arc = float(traj.s[-1] - traj.s[0]) if len(traj) > 1 else 0.0
    _, invariant = invariant_series(sc, traj)
    c0 = float(invariant[0])
    drift_abs = float(abs(invariant - c0).max())
    drift_rel = drift_abs / max(abs(c0), 1e-9)
    return CheckReport.from_residual(
        "clairaut-invariant",
        "def-clairaut",
        len(traj),
        drift_rel,
        sc.tolerances.drift * max(1.0, arc),
        {"initial": c0, "drift_abs": drift_abs, "arc_length": arc},
    )


@dataclass
class _CurveWindow:
    """Split state at an interior trajectory sample.

    The velocity splits as ``v = U + X`` (vertical, horizontal) and
    ``phi X = alpha + beta`` (vertical, in mu); ``d_*`` are the covariant
    derivatives of ``phi U``, ``alpha`` and ``beta`` along the curve.
    """

    point: np.ndarray
    velocity: np.ndarray
    frame: Frame
    gamma: np.ndarray
    U: np.ndarray
    X: np.ndarray
    phiU: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    d_phiU: np.ndarray
    d_alpha: np.ndarray
    d_beta: np.ndarray


def _curve_window(sc: ClairautScenario, traj: GeodesicTrajectory, i: int) -> _CurveWindow:
    """Split the five samples ``i-2..i+2`` and differentiate along the curve
    with the five-point stencil."""
    if i < 2 or i > len(traj) - 3:
        raise ValueError("index must leave a margin of two interior samples")
    states = []
    for j in range(i - 2, i + 3):
        p, v = traj.points[j], traj.velocities[j]
        fr = build_frame(sc.F, p)
        U = fr.vertical_part(v)
        X = v - U
        A = sc.J.matrix_at(p)
        phiX = A @ X
        alpha = fr.vertical_part(phiX)
        # The three fields differentiated along the curve come first.
        states.append((A @ U, alpha, phiX - alpha, fr, U, X))
    p, v = traj.points[i], traj.velocities[i]
    gamma = christoffel(sc.M, p)
    covd = [
        five_point([st[k] for st in states[:2] + states[3:]], traj.step)
        + np.einsum("kij,i,j->k", gamma, v, states[2][k])
        for k in range(3)
    ]
    phiU, alpha, beta, fr, U, X = states[2]
    return _CurveWindow(p, v, fr, gamma, U, X, phiU, alpha, beta, *covd)


def _condition_residuals(sc: ClairautScenario, w: _CurveWindow):
    F, p, fr, gamma = sc.F, w.point, w.frame, w.gamma
    r_vert = (
        tensor_A(F, w.X, w.phiU, p, fr, gamma)
        + tensor_A(F, w.X, w.beta, p, fr, gamma)
        + tensor_T(F, w.U, w.beta, p, fr, gamma)
        + tensor_T(F, w.U, w.phiU, p, fr, gamma)
        + fr.vertical_part(w.d_alpha)
    )
    r_horiz = (
        fr.horizontal_part(w.d_phiU + w.d_beta)
        + tensor_A(F, w.X, w.alpha, p, fr, gamma)
        + tensor_T(F, w.U, w.alpha, p, fr, gamma)
    )
    return metric_norm(fr.metric, r_vert), metric_norm(fr.metric, r_horiz)


def geodesic_condition_residuals(sc: ClairautScenario, traj: GeodesicTrajectory, i: int):
    """Residual norms of the two geodesic conditions at interior sample ``i``.

    Vertical condition:
        A_X phiU + A_X beta + T_U beta + V nabla_X alpha
            + T_U phiU + V nabla_U alpha
    Horizontal condition:
        H(nabla_h phiU + nabla_h beta) + A_X alpha + T_U alpha

    The two non-tensorial derivative groups combine into covariant
    derivatives of the split fields along the curve, realized with a
    five-point stencil over neighboring trajectory samples; the remaining
    terms are tensors evaluated at the sample point.
    """
    return _condition_residuals(sc, _curve_window(sc, traj, i))


def interior_indices(traj: GeodesicTrajectory, count: int = 10):
    """Evenly spread interior sample indices with the stencil margin."""
    lo, hi = 2, len(traj) - 3
    if hi < lo:
        raise ValueError("trajectory too short for interior evaluation")
    return sorted(set(np.linspace(lo, hi, min(count, hi - lo + 1)).astype(int)))


def check_geodesic_conditions(
    sc: ClairautScenario, traj: GeodesicTrajectory, indices=None
) -> CheckReport:
    """Both geodesic-condition residuals over a set of interior samples."""
    indices = interior_indices(traj) if indices is None else indices
    residual = 0.0
    for i in indices:
        rv, rh = geodesic_condition_residuals(sc, traj, i)
        residual = max(residual, rv, rh)
    return CheckReport.from_residual(
        "geodesic-conditions", "th1", len(indices), residual, sc.tolerances.drift
    )


def check_clairaut_condition(
    sc: ClairautScenario, traj: GeodesicTrajectory, indices=None
) -> CheckReport:
    """Residual of the Clairaut rate identity along a geodesic:
    ``g(grad f, X) g(U, U) = g(H nabla_h beta + A_X alpha + T_U alpha
    + P_h U, phi U)``.  Rejects curves that fail the geodesic gate, which
    reads the same windows as the residual."""
    tolerance = sc.tolerances.drift
    indices = interior_indices(traj) if indices is None else indices
    windows = [_curve_window(sc, traj, i) for i in indices]
    gate = 0.0
    for w in windows:
        gate = max(gate, *_condition_residuals(sc, w))
    if gate > tolerance:
        raise NonGeodesicError(
            f"geodesic-condition residual {gate:.3e} exceeds {tolerance:.3e}; "
            "input curve is not a geodesic"
        )
    residual = 0.0
    for w in windows:
        p, fr, g = w.point, w.frame, w.frame.metric
        lhs = float(gradient(sc.M, sc.f, p) @ g @ w.X) * float(w.U @ g @ w.U)
        rhs_vec = (
            fr.horizontal_part(w.d_beta)
            + tensor_A(sc.F, w.X, w.alpha, p, fr, w.gamma)
            + tensor_T(sc.F, w.U, w.alpha, p, fr, w.gamma)
            + fr.horizontal_part(nabla_phi(sc.M, sc.J, w.velocity, w.U, p))
        )
        residual = max(residual, abs(lhs - float(rhs_vec @ g @ w.phiU)))
    return CheckReport.from_residual(
        "clairaut-condition", "eq-6", len(indices), residual, tolerance
    )


def _basic_residual(sc: ClairautScenario, p, fr: Frame, k: int) -> float:
    """Variation of the pushforward of phi(V_k) along the fiber directions.

    Zero (to stencil accuracy) exactly when phi(V_k) is basic.  The k-th
    vertical vector at a displaced point is flipped to point along the base
    one, so a tie in the frame sign rule inside the stencil cannot flip it.
    Fibers of dimension 2 or more would also need the displaced basis
    rotated onto the base one.
    """
    F = sc.F
    base = fr.vertical[k]

    def pushed(q):
        w = build_frame(F, q).vertical[k]
        if float(w @ fr.metric @ base) < 0.0:
            w = -w
        return F.jacobian_at(q) @ apply_phi(sc.J, q, w)

    gn = F.target.metric_at(F.map_point(p))
    residual = 0.0
    for v in fr.vertical:
        d = _directional_derivative(pushed, p, v)
        residual = max(residual, metric_norm(gn, d))
    return residual


def check_thm33_identity(sc: ClairautScenario, samples) -> CheckReport:
    """Residual of ``A_{phi W} phi X + Q_W phi X = X(f) W``.

    The verdict gates on X drawn from a mu-frame, which is where the
    identity's derivation lives; the same residual over the full horizontal
    frame is reported separately in the details.  The basicness of phi(W)
    is verified numerically instead of assumed; failures are reported.
    """
    tolerance = sc.tolerances.fd
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    mu_max = 0.0
    horiz_max = 0.0
    basic_max = 0.0
    for p in samples:
        fr = build_frame(sc.F, p)
        gamma = christoffel(sc.M, p)
        g = fr.metric
        mu = mu_basis(sc, fr)
        dfv = partials(sc.f, sc.M.dim).eval(p)
        for k, W in enumerate(fr.vertical):
            basic_max = max(basic_max, _basic_residual(sc, p, fr, k))
            phiW = apply_phi(sc.J, p, W)

            def identity_residual(X):
                phiX = apply_phi(sc.J, p, X)
                aterm = tensor_A(sc.F, phiW, phiX, p, fr, gamma)
                qterm = fr.vertical_part(nabla_phi(sc.M, sc.J, W, phiX, p))
                return metric_norm(g, aterm + qterm - float(dfv @ X) * W)

            for X in mu:
                mu_max = max(mu_max, identity_residual(X))
            for X in fr.horizontal:
                horiz_max = max(horiz_max, identity_residual(X))
    basic_ok = basic_max <= tolerance
    report = CheckReport.from_residual(
        "aq-gradient-identity",
        "th2",
        len(samples),
        mu_max,
        tolerance,
        {
            "horizontal_frame_residual": horiz_max,
            "basic_residual": basic_max,
            "basic_ok": basic_ok,
        },
    )
    if not basic_ok:
        report.verdict = "fail"
        report.details["reason"] = "phi(vertical) is not basic"
    return report


def check_dichotomies(
    sc: ClairautScenario,
    samples,
    fiber_report: CheckReport | None = None,
) -> CheckReport:
    """Consistency of the either/or conclusions on this scenario.

    Branch residuals: (a) constancy of f on phi(vertical), measured by
    ``|g(grad f, phi V)|``; (b) one-dimensional fibers (residual zero) or
    otherwise the totally-geodesic residual.  The disjunction holds when
    the smaller of the two is below tolerance.  Skipped (not failed) when
    the hypothesis ``grad f in phi(vertical)`` does not hold.
    """
    tolerance = sc.tolerances.fd
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if fiber_report is None:
        fiber_report = fiber_character(sc.F, samples, tolerance=tolerance)
    f_const_res = 0.0
    hyp_res = 0.0
    for p in samples:
        fr = build_frame(sc.F, p)
        g = fr.metric
        gradf = gradient(sc.M, sc.f, p)
        phiV = np.array([apply_phi(sc.J, p, v) for v in fr.vertical])
        for pv in phiV:
            f_const_res = max(f_const_res, abs(float(gradf @ g @ pv)))
        proj = np.zeros(sc.M.dim)
        for pv in phiV:
            proj = proj + float(gradf @ g @ pv) * pv
        hyp_res = max(hyp_res, metric_norm(g, gradf - proj))
    one_dimensional = sc.fiber_dim == 1
    geo_res = float(fiber_report.details["geodesic_residual"])
    branch_fibers = 0.0 if one_dimensional else geo_res
    residual = min(f_const_res, branch_fibers)
    hypothesis_ok = hyp_res <= tolerance
    details = {
        "fiber_dim": sc.fiber_dim,
        "f_constant_on_phiker": f_const_res <= tolerance,
        "one_dimensional_fibers": one_dimensional,
        "totally_geodesic": bool(fiber_report.details["totally_geodesic"]),
        "grad_in_phiker_residual": hyp_res,
        "lagrangian": sc.mu_dim == 0,
    }
    if sc.mu_dim == 0:
        details["lagrangian_dichotomy_residual"] = min(
            0.0 if one_dimensional else geo_res, geo_res
        )
    report = CheckReport.from_residual(
        "dichotomies", "th3", len(samples), residual, tolerance, details
    )
    if not hypothesis_ok:
        report.verdict = "skip"
        report.details["reason"] = "grad f not inside phi(vertical)"
    return report


def check_pq_identities(
    sc: ClairautScenario,
    samples,
    rng=None,
    include_antisymmetry: bool = True,
) -> CheckReport:
    """Pointwise identities of the split derivative tensors.

    Always gated: the chain identity ``phi(P_Y X + Q_Y X) + P_Y phi X +
    Q_Y phi X = 0`` (from the square of the structure) and the metric
    duality ``g(P_X Y + Q_X Y, Z) = -g(Y, P_X Z + Q_X Z)`` (from
    compatibility).  The antisymmetry of P and Q holds only under the
    symmetrized-derivative condition, so its inclusion in the gate is
    caller-controlled; its residual is always reported.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    rng = rng if rng is not None else np.random.default_rng(0)
    c2_max = 0.0
    c3_max = 0.0
    c5_max = 0.0
    for p in samples:
        fr = build_frame(sc.F, p)
        g = fr.metric
        A = sc.J.matrix_at(p)
        for _ in range(3):
            u, v, z = (w / metric_norm(g, w) for w in rng.standard_normal((3, sc.M.dim)))
            sym = nabla_phi(sc.M, sc.J, u, v, p) + nabla_phi(sc.M, sc.J, v, u, p)
            c2_max = max(
                c2_max,
                metric_norm(g, fr.horizontal_part(sym)),
                metric_norm(g, fr.vertical_part(sym)),
            )
            c3 = A @ nabla_phi(sc.M, sc.J, v, u, p) + nabla_phi(sc.M, sc.J, v, A @ u, p)
            c3_max = max(c3_max, metric_norm(g, c3))
            duality = float(nabla_phi(sc.M, sc.J, u, v, p) @ g @ z) + float(
                v @ g @ nabla_phi(sc.M, sc.J, u, z, p)
            )
            c5_max = max(c5_max, abs(duality))
    residual = max(c3_max, c5_max, c2_max if include_antisymmetry else 0.0)
    return CheckReport.from_residual(
        "pq-identities",
        "eq-c2/c3/c5",
        len(samples),
        residual,
        sc.tolerances.algebraic,
        {
            "antisymmetry_residual": c2_max,
            "chain_residual": c3_max,
            "duality_residual": c5_max,
            "antisymmetry_gated": include_antisymmetry,
        },
    )


def pq_curve_residual(sc: ClairautScenario, traj: GeodesicTrajectory, indices=None):
    """Max of ``|phi(P_h phi(h') + Q_h phi(h'))|`` at trajectory samples."""
    indices = range(len(traj)) if indices is None else indices
    residual = 0.0
    for i in indices:
        p = traj.points[i]
        v = traj.velocities[i]
        g = sc.M.metric_at(p)
        A = sc.J.matrix_at(p)
        residual = max(
            residual, metric_norm(g, A @ nabla_phi(sc.M, sc.J, v, A @ v, p))
        )
    return residual
