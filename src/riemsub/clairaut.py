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

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .expr import Expr, ExprArray, Func, blocks
from .geometry import GeodesicTrajectory, ManifoldSpec
from .hermitian import AlmostComplexField, _nabla_phi
from .report import CheckReport, Tolerances
from .state import (
    FD_STEP,
    STENCIL_OFFSETS,
    SampleState,
    SubmersionError,
    _fix_sign,
    _oneill,
    apply,
    five_point,
    metric_norms,
    pairs,
    sample_state,
)
from .submersion import SmoothMap


class NonGeodesicError(Exception):
    """A curve handed to a geodesics-only check failed the geodesic gate."""


# Below this metric speed a curve has no direction, so the angle the
# Clairaut invariant measures is undefined.
MIN_SPEED = 1e-12
# Most sample points one run draws: at about 8 kB of state each, 0.8 GB.
MAX_SAMPLES = 10**5


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

    @functools.cached_property
    def _exp_f(self) -> ExprArray:
        """``e^f`` as the expression ``exp(f)``, compiled once for every curve."""
        return ExprArray(Func("exp", self.f))

    @property
    def N(self) -> ManifoldSpec:
        return self.F.target

    @property
    def fiber_dim(self) -> int:
        return self.M.dim - self.N.dim

    @property
    def mu_dim(self) -> int:
        return self.N.dim - self.fiber_dim


def _state(sc: ClairautScenario, samples) -> SampleState:
    return sample_state(samples, sc.M, sc.F, sc.J, sc.f)


def _mu_rows(sc: ClairautScenario, st: SampleState) -> np.ndarray:
    """Orthonormal bases ``(N, mu_dim, m)`` of the horizontal complement of
    phi(vertical) at each sample.

    Projects the image of the vertical frame out of the horizontal frame
    and keeps the ``mu_dim`` largest-norm survivors (norm-pivoted, so the
    selection is deterministic).
    """
    N, m = st.points.shape
    phiV = apply(st.phi, st.vertical)
    residuals = st.horizontal
    for j in range(phiV.shape[1]):
        pv = phiV[:, j, None]
        residuals = residuals - st.inner(residuals, pv)[..., None] * pv
    rows = []
    every = np.arange(N)
    for _ in range(sc.mu_dim):
        norms = st.norm(residuals)
        best = norms.argmax(axis=1)
        if (norms[every, best] < 1e-6).any():
            raise SubmersionError(
                "could not span the complement of phi(vertical); "
                "is the submersion anti-invariant?"
            )
        u = (residuals[every, best] / norms[every, best, None])[:, None]
        rows.append(_fix_sign(u[:, 0]))
        residuals = residuals - st.inner(residuals, u)[..., None] * u
    return np.stack(rows, axis=1) if rows else np.empty((N, 0, m))


def check_anti_invariant(sc: ClairautScenario, samples) -> CheckReport:
    """Vertical part of the image of each vertical frame vector must vanish."""
    st = _state(sc, samples)
    residual = st.norm(st.vertical_part(apply(st.phi, st.vertical))).max(initial=0.0)
    return CheckReport.from_residual(
        "anti-invariance",
        "def-anti-invariant",
        len(st.points),
        float(residual),
        sc.tolerances.algebraic,
        {"mu_dim": sc.mu_dim, "lagrangian": sc.mu_dim == 0},
    )


def check_bishop(sc: ClairautScenario, samples) -> CheckReport:
    """Umbilicity with mean curvature equal to minus the exponent gradient:
    residual of ``T_V W + g(V, W) grad f`` over vertical frame pairs."""
    st = _state(sc, samples)
    T, gradf = st.fiber_shape, st.grad_f
    gram = st.inner(*pairs(st.vertical))
    residual = float(st.norm(T + gram[..., None] * gradf[:, None, None]).max(initial=0.0))
    grad_max = float(st.norm(gradf).max(initial=0.0))
    return CheckReport.from_residual(
        "bishop-clairaut",
        "th-bis",
        len(st.points),
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
    The work runs in blocks of samples (``expr.blocks``), one state each, and
    in this order: the speeds at every sample, then the vertical parts, then
    ``e^f`` at every sample, evaluated as the expression ``exp(f)``.  Raises
    :class:`ValueError` for a sample slower than ``MIN_SPEED``, and the
    :class:`DomainError` of the first sample where ``exp(f)`` fails: an
    error in ``f`` itself, or ``exponential overflows``.
    """
    points, velocities = traj.points, traj.velocities
    speed = np.empty(len(points))
    for b in blocks(len(points)):
        speed[b] = metric_norms(sc.M.metric_at(points[b]), velocities[b])
    if (speed < MIN_SPEED).any():
        raise ValueError("curve is not regular: zero velocity sample")
    sin_theta = speed  # overwritten in place: each speed is read once, here
    for b in blocks(len(points)):
        st = SampleState(points[b], sc.M, sc.F)
        sin_theta[b] = st.norm(st.vertical_part(velocities[b])) / speed[b]
    invariant = sc._exp_f.eval(points)
    invariant *= sin_theta
    return sin_theta, invariant


def invariant_drift(invariant):
    """Initial value, largest absolute drift and drift relative to the
    initial value (floored at 1e-9) of an invariant series."""
    c0 = float(invariant[0])
    drift_abs = float(abs(invariant - c0).max())
    return c0, drift_abs, drift_abs / max(abs(c0), 1e-9)


def clairaut_invariant(sc: ClairautScenario, traj: GeodesicTrajectory) -> CheckReport:
    """Relative drift of ``e^f sin(theta)`` along the trajectory; the drift
    tolerance is per unit length, for arcs longer than one."""
    arc = float(traj.s[-1] - traj.s[0]) if len(traj) > 1 else 0.0
    c0, drift_abs, drift_rel = invariant_drift(invariant_series(sc, traj)[1])
    return CheckReport.from_residual(
        "clairaut-invariant",
        "def-clairaut",
        len(traj),
        drift_rel,
        sc.tolerances.drift * max(1.0, arc),
        {"initial": c0, "drift_abs": drift_abs, "arc_length": arc},
    )


class CurveWindows(NamedTuple):
    """Residuals at interior trajectory samples, one ``(n_windows,)`` array
    each: the vertical and the horizontal geodesic condition and the
    Clairaut rate identity (see :func:`curve_windows`)."""

    vertical: np.ndarray
    horizontal: np.ndarray
    clairaut: np.ndarray


def curve_windows(sc: ClairautScenario, traj: GeodesicTrajectory, indices=None) -> CurveWindows:
    """The windows at the interior samples ``i`` of ``indices`` (default:
    :func:`interior_indices`), which the two curve checks read: split the five
    samples ``i-2..i+2`` as ``v = U + X`` (vertical, horizontal) and
    ``phi X = alpha + beta`` (vertical, in mu), take the covariant
    derivatives of ``phi U``, ``alpha`` and ``beta`` along the curve with
    the five-point stencil, and evaluate at sample ``i``:

    Vertical condition:
        A_X phiU + A_X beta + T_U beta + V nabla_X alpha
            + T_U phiU + V nabla_U alpha
    Horizontal condition:
        H(nabla_h phiU + nabla_h beta) + A_X alpha + T_U alpha
    Clairaut rate identity:
        g(grad f, X) g(U, U) = g(H nabla_h beta + A_X alpha + T_U alpha
            + P_h U, phi U)

    The non-tensorial derivative groups combine into the covariant
    derivatives along the curve; the remaining terms are tensors evaluated
    at the sample point.  All windows share one state at their centers and
    one at the four neighbors of each center.
    """
    idx = np.asarray(interior_indices(traj) if indices is None else indices, dtype=int)
    if len(idx) and (idx.min() < 2 or idx.max() > len(traj) - 3):
        raise ValueError("index must leave a margin of two interior samples")
    around = (np.array(STENCIL_OFFSETS, dtype=int)[:, None] + idx).ravel()  # rows (offset, window)
    center = SampleState(traj.points[idx], sc.M, sc.F, sc.J, sc.f)
    side = SampleState(traj.points[around], sc.M, sc.F, sc.J)

    def fields(st, v):
        # The three fields differentiated along the curve come first.
        U = st.vertical_part(v)
        X = v - U
        phiX = apply(st.phi, X)
        alpha = st.vertical_part(phiX)
        return apply(st.phi, U), alpha, phiX - alpha, U, X

    v = traj.velocities[idx]
    phiU, alpha, beta, U, X = fields(center, v)
    d_phiU, d_alpha, d_beta = (
        five_point(s, traj.step) + center.connection(v, c)
        for s, c in zip(fields(side, traj.velocities[around]), (phiU, alpha, beta))
    )
    a_phiU, a_beta, a_alpha = _oneill(
        center, "A", np.stack([X] * 3, axis=1), np.stack([phiU, beta, alpha], axis=1)
    ).swapaxes(0, 1)
    t_beta, t_phiU, t_alpha = _oneill(
        center, "T", np.stack([U] * 3, axis=1), np.stack([beta, phiU, alpha], axis=1)
    ).swapaxes(0, 1)
    r_vert = a_phiU + a_beta + t_beta + t_phiU + center.vertical_part(d_alpha)
    r_horiz = center.horizontal_part(d_phiU + d_beta) + a_alpha + t_alpha
    lhs = center.inner(center.grad_f, X) * center.inner(U, U)
    rhs = (
        center.horizontal_part(d_beta) + a_alpha + t_alpha
        + center.horizontal_part(_nabla_phi(center, v, U))
    )
    rates = abs(lhs - center.inner(rhs, phiU))
    return CurveWindows(center.norm(r_vert), center.norm(r_horiz), rates)


def interior_indices(traj: GeodesicTrajectory, count: int = 10):
    """Evenly spread interior sample indices with the stencil margin."""
    lo, hi = 2, len(traj) - 3
    if hi < lo:
        raise ValueError("trajectory too short for interior evaluation")
    return sorted(set(np.linspace(lo, hi, min(count, hi - lo + 1)).astype(int)))


def geodesic_condition_residuals(sc: ClairautScenario, traj: GeodesicTrajectory, i: int):
    """Residual norms of the vertical and the horizontal geodesic condition
    at interior sample ``i`` (see :func:`curve_windows`)."""
    w = curve_windows(sc, traj, [i])
    return float(w.vertical[0]), float(w.horizontal[0])


def check_geodesic_conditions(sc: ClairautScenario, windows: CurveWindows) -> CheckReport:
    """Both geodesic-condition residuals over a trajectory's curve windows."""
    residual = np.maximum(windows.vertical, windows.horizontal).max(initial=0.0)
    return CheckReport.from_residual(
        "geodesic-conditions", "th1", len(windows.vertical), float(residual), sc.tolerances.drift
    )


def check_clairaut_condition(sc: ClairautScenario, windows: CurveWindows) -> CheckReport:
    """Residual of the Clairaut rate identity along a geodesic (see
    :func:`curve_windows`).  Rejects curves that fail the geodesic gate,
    read from the residuals the windows carry."""
    gate = check_geodesic_conditions(sc, windows)
    if not gate.passed:
        raise NonGeodesicError(
            f"geodesic-condition residual {gate.max_residual:.3e} exceeds "
            f"{gate.tolerance:.3e}; input curve is not a geodesic"
        )
    return CheckReport.from_residual(
        "clairaut-condition", "eq-6", len(windows.clairaut),
        float(windows.clairaut.max(initial=0.0)), gate.tolerance,
    )


def _basic_residual(sc: ClairautScenario, st: SampleState) -> float:
    """Largest variation, over the samples and the vertical frame vectors
    ``V_k``, of the pushforward of phi(V_k) along the fiber directions.

    Zero (to stencil accuracy) exactly when each phi(V_k) is basic.  The
    k-th vertical vector at a displaced point is flipped to point along the
    base one, so a tie in the frame sign rule inside the stencil cannot
    flip it.  Fibers of dimension 2 or more would also need the displaced
    basis rotated onto the base one.
    """
    N, k, m = st.vertical.shape
    residual = 0.0
    for disp in st.vertical_stencils:
        w = disp.vertical.reshape(-1, N, k, m)
        along = np.einsum("onki,nij,nkj->onk", w, st.metric, st.vertical)
        w = np.where(along[..., None] < 0.0, -w, w).reshape(-1, k, m)
        d = five_point(apply(disp.jacobian, apply(disp.phi, w)), FD_STEP)
        residual = max(residual, float(metric_norms(st.target_metric, d).max(initial=0.0)))
    return residual


def check_thm33_identity(sc: ClairautScenario, samples) -> CheckReport:
    """Residual of ``A_{phi W} phi X + Q_W phi X = X(f) W``.

    The verdict gates on X drawn from a mu-frame, which is where the
    identity's derivation lives; the same residual over the full horizontal
    frame is reported separately in the details.  The basicness of phi(W)
    is verified numerically instead of assumed; failures are reported.
    """
    tolerance = sc.tolerances.fd
    st = _state(sc, samples)
    mu = _mu_rows(sc, st)
    # W runs over the vertical frame, X over the mu-frame, then the
    # horizontal frame.
    Xs = np.concatenate([mu, st.horizontal], axis=1)
    shape = st.vertical.shape[:2] + Xs.shape[1:]
    W = np.broadcast_to(st.vertical[:, :, None], shape)
    X = np.broadcast_to(Xs[:, None], shape)
    phiX = apply(st.phi, X)
    aterm = _oneill(st, "A", apply(st.phi, W), phiX)
    qterm = st.vertical_part(_nabla_phi(st, W, phiX))
    xf = np.einsum("ni,n...i->n...", st.df, X)
    residual = st.norm(aterm + qterm - xf[..., None] * W)
    mu_max = float(residual[:, :, : sc.mu_dim].max(initial=0.0))
    horiz_max = float(residual[:, :, sc.mu_dim:].max(initial=0.0))
    basic_max = _basic_residual(sc, st)
    basic_ok = basic_max <= tolerance
    report = CheckReport.from_residual(
        "aq-gradient-identity",
        "th2",
        len(st.points),
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


def check_dichotomies(sc: ClairautScenario, samples) -> CheckReport:
    """Consistency of the either/or conclusions on this scenario.

    Branch residuals: (a) constancy of f on phi(vertical), measured by
    ``|g(grad f, phi V)|``; (b) one-dimensional fibers (residual zero) or
    otherwise the totally-geodesic residual ``max |T_{V_j} V_l|``, as in
    ``fiber_character``.  The disjunction holds when the smaller of the two
    is below tolerance.  Skipped (not failed) when the hypothesis
    ``grad f in phi(vertical)`` does not hold.
    """
    tolerance = sc.tolerances.fd
    st = _state(sc, samples)
    gradf = st.grad_f
    phiV = apply(st.phi, st.vertical)
    along = st.inner(gradf[:, None], phiV)  # g(grad f, phi V_k)
    f_const_res = float(abs(along).max(initial=0.0))
    proj = (along[..., None] * phiV).sum(axis=1)
    hyp_res = float(st.norm(gradf - proj).max(initial=0.0))
    one_dimensional = sc.fiber_dim == 1
    geo_res = float(st.norm(st.fiber_shape).max(initial=0.0))
    branch_fibers = 0.0 if one_dimensional else geo_res
    residual = min(f_const_res, branch_fibers)
    hypothesis_ok = hyp_res <= tolerance
    details = {
        "fiber_dim": sc.fiber_dim,
        "f_constant_on_phiker": f_const_res <= tolerance,
        "one_dimensional_fibers": one_dimensional,
        "totally_geodesic": geo_res <= tolerance,
        "grad_in_phiker_residual": hyp_res,
        "lagrangian": sc.mu_dim == 0,
    }
    if sc.mu_dim == 0:
        details["lagrangian_dichotomy_residual"] = branch_fibers
    report = CheckReport.from_residual(
        "dichotomies", "th3", len(st.points), residual, tolerance, details
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
    st = _state(sc, samples)
    # Per sample, three triples (u, v, z) of g-unit vectors.
    u, v, z = np.moveaxis(st.unit_probes(rng, (3, 3)), 2, 0)
    # A structure that overflows makes inf - inf here: the residual is then
    # nan (np.max keeps it), and the report fails it.
    with np.errstate(over="ignore", invalid="ignore"):
        nab_uv = _nabla_phi(st, u, v)
        nab_vu = _nabla_phi(st, v, u)
        sym = nab_uv + nab_vu
        c2_max = float(np.max([
            st.norm(st.horizontal_part(sym)).max(initial=0.0),
            st.norm(st.vertical_part(sym)).max(initial=0.0),
        ]))
        c3 = apply(st.phi, nab_vu) + _nabla_phi(st, v, apply(st.phi, u))
        c3_max = float(st.norm(c3).max(initial=0.0))
        duality = st.inner(nab_uv, z) + st.inner(v, _nabla_phi(st, u, z))
        c5_max = float(abs(duality).max(initial=0.0))
    residual = float(np.max([c3_max, c5_max, c2_max if include_antisymmetry else 0.0]))
    return CheckReport.from_residual(
        "pq-identities",
        "eq-c2/c3/c5",
        len(st.points),
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
    idx = np.arange(len(traj)) if indices is None else np.asarray(indices, dtype=int)
    st = SampleState(traj.points[idx], sc.M, J=sc.J)
    v = traj.velocities[idx]
    pq = apply(st.phi, _nabla_phi(st, v, apply(st.phi, v)))
    return float(st.norm(pq).max(initial=0.0))
