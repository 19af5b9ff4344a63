"""Riemannian machinery on a single global chart.

A manifold is described by its dimension, a symmetric matrix of metric
expressions, and a sampling domain (a coordinate box minus optional
exclusion tubes around singular loci).  On top of that this module provides
Christoffel symbols, the Koszul pairing, covariant derivatives, gradients,
and fixed-step RK4 geodesic integration with energy-drift bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Add, Expr, ExprArray, ExprError, Const, Sub, is_zero, parse, partials

RANK_RTOL = 1e-8
_MAX_SAMPLE_TRIES = 10_000
# Most RK4 steps one integration takes: every step keeps its sample, so a
# finite but huge length/step would run until memory runs out.
MAX_STEPS = 10**6


class GeometryError(Exception):
    pass


class SingularMetricError(GeometryError):
    def __init__(self, point):
        super().__init__(f"metric is singular at {np.asarray(point).tolist()}")
        self.point = np.asarray(point, dtype=float)


class DomainExitError(GeometryError):
    """Geodesic integration left the sampling domain.

    Carries the trajectory integrated so far, the first outside point, and
    the arc parameter at which the exit happened.
    """

    def __init__(self, trajectory, exit_point, s):
        super().__init__(
            f"trajectory left the sampling domain at s={s:.6g}, "
            f"point {np.asarray(exit_point).tolist()}"
        )
        self.trajectory = trajectory
        self.exit_point = np.asarray(exit_point, dtype=float)
        self.s = float(s)


@dataclass(frozen=True)
class ExclusionTube:
    """Excludes points where ``expr`` evaluates below ``radius``."""

    expr: Expr
    radius: float


@dataclass(frozen=True)
class SamplingDomain:
    intervals: tuple
    tubes: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        for i, (lo, hi) in enumerate(self.intervals):
            if not (lo <= p[i] <= hi):
                return False
        for tube in self.tubes:
            if tube.expr.eval(p) < tube.radius:
                return False
        return True

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly, rejecting excluded ones."""
        lo = np.array([iv[0] for iv in self.intervals])
        hi = np.array([iv[1] for iv in self.intervals])
        points = np.empty((count, self.dim))
        for k in range(count):
            for _ in range(_MAX_SAMPLE_TRIES):
                p = lo + (hi - lo) * rng.random(self.dim)
                if self.contains(p):
                    points[k] = p
                    break
            else:
                raise GeometryError(
                    "could not draw a sample point; exclusion tubes too large?"
                )
        return points


def box_domain(dim: int, lo: float, hi: float, tubes=()) -> SamplingDomain:
    return SamplingDomain(tuple((lo, hi) for _ in range(dim)), tuple(tubes))


class ManifoldSpec:
    """Chart dimension, metric expression matrix, and sampling domain."""

    def __init__(self, dim: int, metric, domain: SamplingDomain):
        if dim < 1:
            raise ValueError("dim must be positive")
        if len(metric) != dim or any(len(row) != dim for row in metric):
            raise ValueError(f"metric must be a {dim}x{dim} matrix of expressions")
        if domain.dim != dim:
            raise ValueError("sampling domain dimension mismatch")
        self.dim = dim
        self.metric = tuple(tuple(row) for row in metric)
        self.domain = domain
        self._metric = ExprArray(self.metric)
        self._derivs = self._metric.diff(dim)  # [i, j, l] = d g_ij / d x_{l+1}
        self.is_flat_constant = all(is_zero(e) for e in self._derivs.entries)
        self.is_diagonal = all(is_zero(self.metric[i][j]) for i in range(dim) for j in range(dim) if i != j)
        # A constant metric is checked for invertibility once (christoffel).
        self._invertible = False
        if not self.is_flat_constant:
            # What christoffel needs at a point, as one array: the metric
            # entries (the diagonal alone for a diagonal metric), then
            # B[i, j, l] = (d_i g_jl + d_j g_il) - d_l g_ij.
            r = range(dim)
            d = np.array(self._derivs.entries, dtype=object).reshape((dim,) * 3)
            g = [self.metric[k][k] for k in r] if self.is_diagonal else [e for row in self.metric for e in row]
            B = [Sub(Add(d[j, l, i], d[i, l, j]), d[i, j, l]) for i in r for j in r for l in r]
            self._connection = ExprArray(g + B)

    def metric_at(self, point) -> np.ndarray:
        return self._metric.eval(point)

    def metric_derivs_at(self, point) -> np.ndarray:
        """Array ``D[l, i, j] = d g_ij / d x_{l+1}`` at ``point`` (a view)."""
        return self._derivs.eval(point).swapaxes(-1, -2).swapaxes(-2, -3)

    def inverse_metric_at(self, point) -> np.ndarray:
        g = self.metric_at(point)
        return _inverse(self, point, np.diagonal(g, axis1=-2, axis2=-1) if self.is_diagonal else g)

    def validate(self, samples) -> None:
        """Check symmetry and positive definiteness at the given points,
        stacked; raise for the first point that fails."""
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        g = self.metric_at(pts)
        gT = g.swapaxes(1, 2)
        # Written so that a NaN entry fails the symmetry test.
        sym = (abs(g - gT) <= 1e-12 * np.maximum(1.0, abs(g).max((1, 2)))[:, None, None]).all((1, 2))
        floor = RANK_RTOL * np.maximum(abs(np.diagonal(g, axis1=1, axis2=2)).max(-1), 1e-300)
        ok = sym.copy()  # LAPACK is handed no NaN
        ok[sym] = np.linalg.eigvalsh(0.5 * (g + gT)[sym]).min(-1) > floor[sym]
        if not ok.all():
            i = np.argmin(ok)
            what = "positive definite" if sym[i] else "symmetric"
            raise GeometryError(f"metric not {what} at {pts[i].tolist()}")


def _inverse(M: ManifoldSpec, point, g: np.ndarray) -> np.ndarray:
    """Inverse of the metric values ``g`` at ``point`` (one point or a
    stack), given by the diagonal ``(..., m)`` alone when ``M.is_diagonal``;
    raises :class:`SingularMetricError` for the first singular one.

    A finite diagonal is tested and inverted entry by entry: the singular
    values of a diagonal matrix are its ``|g_kk|`` and its inverse holds
    ``1 / g_kk``, so this is the SVD test and ``np.linalg.inv`` without
    LAPACK.  A diagonal with NaN or inf takes LAPACK's path.
    """
    if M.is_diagonal:
        if np.isfinite(g).all():
            a = abs(g)
            singular = a.min(-1) <= RANK_RTOL * np.maximum(a.max(-1), 1e-300)
            if singular.any():
                raise SingularMetricError(np.reshape(point, (-1, M.dim))[np.argmax(singular)])
            ginv = np.zeros(g.shape + (M.dim,))
            k = np.arange(M.dim)
            ginv[..., k, k] = 1.0 / g
            return ginv
        g = M.metric_at(point)
    _check_invertible(g, point)
    return np.linalg.inv(g)


def _check_invertible(g: np.ndarray, point) -> None:
    """Raise for the first of the metrics ``g`` (one, or a stack at the
    points ``point``) that is numerically singular."""
    scale = np.maximum(abs(np.diagonal(g, axis1=-2, axis2=-1)).max(-1), 1e-300)
    singular = np.linalg.svd(g, compute_uv=False).min(-1) <= RANK_RTOL * scale
    if singular.any():
        raise SingularMetricError(np.reshape(point, (-1, g.shape[-1]))[np.argmax(singular)])


class VectorField:
    """Field with one expression per coordinate component."""

    def __init__(self, components):
        self.components = tuple(components)
        self.dim = len(self.components)
        self._values = ExprArray(self.components)
        self._jac = self._values.diff(self.dim)

    @classmethod
    def constant(cls, values) -> "VectorField":
        return cls(tuple(Const(float(v)) for v in values))

    @classmethod
    def from_strings(cls, strings, dim: int) -> "VectorField":
        return cls(tuple(parse(s, dim) for s in strings))

    @classmethod
    def coordinate(cls, index: int, dim: int) -> "VectorField":
        """The coordinate frame field along ``x<index>``."""
        return cls.constant([1.0 if i == index - 1 else 0.0 for i in range(dim)])

    def at(self, point) -> np.ndarray:
        return self._values.eval(point)

    def jacobian_at(self, point) -> np.ndarray:
        """Array ``J[k, i] = d X^{k+1} / d x_{i+1}`` at ``point``."""
        return self._jac.eval(point)


def _field_value(X, point) -> np.ndarray:
    if isinstance(X, VectorField):
        return X.at(point)
    return np.asarray(X, dtype=float)


def field_rows(X, point):
    """``X`` at ``point`` as one-row arrays: its value ``(1, m)`` and Jacobian
    ``(1, m, m)``, None for a plain tangent vector (a constant field)."""
    jacobian = X.jacobian_at(point)[None] if isinstance(X, VectorField) else None
    return _field_value(X, point)[None], jacobian


def christoffel(M: ManifoldSpec, point) -> np.ndarray:
    """Connection coefficients ``G[k, i, j]`` of the Levi-Civita connection,
    at one point or, for a stack of points ``(N, m)``, stacked ``(N, m, m, m)``."""
    p = np.asarray(point, dtype=float)
    if M.is_flat_constant:
        if not M._invertible:
            _check_invertible(M.metric_at(p), p)
            M._invertible = True
        return np.zeros(p.shape[:-1] + (M.dim, M.dim, M.dim))
    try:
        values = M._connection.eval(p)
    except ExprError:
        # Raise what the metric, its invertibility, then its derivatives raise.
        M.inverse_metric_at(p)
        M.metric_derivs_at(p)
        raise
    m = M.dim
    B = values[..., -m**3:].reshape(p.shape[:-1] + (m, m, m))
    g = values[..., :-m**3]
    ginv = _inverse(M, p, g if M.is_diagonal else g.reshape(B.shape[:-1]))
    return 0.5 * np.einsum("...kl,...ijl->...kij", ginv, B)


def _pairing_value_and_grad(M: ManifoldSpec, X: VectorField, Y: VectorField, p):
    """Value and coordinate gradient of the scalar field g(X, Y) at ``p``."""
    g = M.metric_at(p)
    D = M.metric_derivs_at(p)
    xv, yv = X.at(p), Y.at(p)
    xj, yj = X.jacobian_at(p), Y.jacobian_at(p)
    value = float(xv @ g @ yv)
    grad = (
        np.einsum("lij,i,j->l", D, xv, yv)
        + np.einsum("ij,il,j->l", g, xj, yv)
        + np.einsum("ij,i,jl->l", g, xv, yj)
    )
    return value, grad


def _lie_bracket_at(X: VectorField, Y: VectorField, p) -> np.ndarray:
    xv, yv = X.at(p), Y.at(p)
    return Y.jacobian_at(p) @ xv - X.jacobian_at(p) @ yv


def koszul(M: ManifoldSpec, X: VectorField, Y: VectorField, Z: VectorField, point):
    """Value of the Koszul pairing, equal to ``2 g(nabla_X Y, Z)`` at ``point``."""
    p = np.asarray(point, dtype=float)
    g = M.metric_at(p)
    xv = X.at(p)
    yv = Y.at(p)
    zv = Z.at(p)
    _, d_yz = _pairing_value_and_grad(M, Y, Z, p)
    _, d_zx = _pairing_value_and_grad(M, Z, X, p)
    _, d_xy = _pairing_value_and_grad(M, X, Y, p)
    b_yz = _lie_bracket_at(Y, Z, p)
    b_xz = _lie_bracket_at(X, Z, p)
    b_xy = _lie_bracket_at(X, Y, p)
    return float(
        xv @ d_yz
        + yv @ d_zx
        - zv @ d_xy
        - b_yz @ g @ xv
        - b_xz @ g @ yv
        + b_xy @ g @ zv
    )


def covariant_derivative(M: ManifoldSpec, X, Y: VectorField, point) -> np.ndarray:
    """Components of ``(nabla_X Y)`` at ``point``.

    ``X`` may be a :class:`VectorField` or a plain tangent vector (the
    derivative is tensorial in the direction).  ``Y`` must be a field.
    """
    p = np.asarray(point, dtype=float)
    xv = _field_value(X, p)
    yv = Y.at(p)
    gamma = christoffel(M, p)
    return Y.jacobian_at(p) @ xv + np.einsum("kij,i,j->k", gamma, xv, yv)


def gradient(M: ManifoldSpec, f: Expr, point) -> np.ndarray:
    """Metric gradient: components ``g^{kj} d_j f`` at ``point``, or at each
    of a stack of points ``(N, m)``."""
    return (M.inverse_metric_at(point) @ partials(f, M.dim).eval(point)[..., None])[..., 0]


@dataclass
class GeodesicTrajectory:
    """Discretized curve: arc parameters, points, velocities, diagnostics."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    step: float
    energies: np.ndarray = field(default=None)
    energy_drift: float = 0.0

    def __len__(self) -> int:
        return len(self.s)

    @classmethod
    def from_samples(cls, M: ManifoldSpec, s, points, velocities, step):
        """Wrap explicit samples (e.g. an analytic curve) with energy data."""
        s = np.asarray(s, dtype=float)
        points = np.asarray(points, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        # ``v @ g @ v`` per sample, bit for bit (einsum sums in another order)
        energies = (velocities[:, None] @ M.metric_at(points) @ velocities[..., None])[:, 0, 0]
        drift = float(abs(energies - energies[0]).max()) if len(energies) else 0.0
        return cls(s, points, velocities, float(step), energies, drift)


def step_count(length: float, step: float) -> int:
    """Number of RK4 steps of exactly ``step`` that integrate ``length``:
    ``round(length / step)``.  Raises :class:`ValueError` for a step that is
    not positive, a negative length, a count that is not finite or one over
    ``MAX_STEPS``."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if length < 0.0:
        raise ValueError("length must be nonnegative")
    if not (math.isfinite(step) and math.isfinite(length / step)):
        raise ValueError(f"length {length} and step {step} must give a finite number of steps")
    n_steps = max(int(round(length / step)), 0)
    if n_steps > MAX_STEPS:
        raise ValueError(f"length {length} and step {step} give {n_steps} steps, more than {MAX_STEPS}")
    return n_steps


def _rate(M: ManifoldSpec, z: np.ndarray) -> np.ndarray:
    """``(v, -Gamma(x)(v, v))`` for states ``z = (x, v)``, one ``(2m,)`` or
    stacked ``(T, 2m)``."""
    m = M.dim
    v = z[..., m:]
    accel = np.einsum("...kij,...i,...j->...k", christoffel(M, z[..., :m]), v, v)
    return np.concatenate([v, -accel], axis=-1)


def _rk4_step(M: ManifoldSpec, y: np.ndarray, step: float) -> np.ndarray:
    k1 = _rate(M, y)
    k2 = _rate(M, y + 0.5 * step * k1)
    k3 = _rate(M, y + 0.5 * step * k2)
    k4 = _rate(M, y + step * k3)
    return y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def geodesic_integrate(M: ManifoldSpec, p0, v0, length, step: float):
    """Classical fixed-step RK4 solution of the geodesic equation, as the
    first-order system ``y = (x, v)``, ``y' = (v, -Gamma(x)(v, v))``.

    Integrates ``step_count(length, step)`` steps of exactly ``step`` (over
    ``MAX_STEPS`` raise :class:`ValueError`).  Raises
    :class:`DomainExitError` (carrying the partial trajectory) if the curve
    leaves the sampling domain.

    Like :func:`christoffel`, it takes one start ``(m,)`` or a stack
    ``(T, m)``, with ``length`` a scalar or one per row.  A stack returns a
    list with, per row, its trajectory or the :class:`DomainExitError` or
    :class:`ValueError` that row raises alone.  The live rows advance as
    one RK4 over ``(T, 2m)``, every row bit for bit its one-row
    integration; a row leaves the stack when it finishes or exits, and one
    live row steps as ``(2m,)``.  An error in the metric (an
    :class:`ExprError`, a :class:`SingularMetricError`) ends the whole call.
    """
    starts = np.concatenate([p0, v0], axis=-1, dtype=float)
    stacked = starts.ndim == 2
    starts = np.atleast_2d(starts)
    m = M.dim
    results = [None] * len(starts)
    # Row r's samples: sample k is its point, then its velocity.
    samples = {}
    for r, (y0, row_length) in enumerate(zip(starts, np.broadcast_to(length, len(starts)).tolist())):
        try:
            n_steps = step_count(row_length, step)
            if not M.domain.contains(y0[:m]):
                raise ValueError(f"initial point {y0[:m].tolist()} outside sampling domain")
        except ValueError as exc:
            results[r] = exc
            continue
        samples[r] = np.empty((n_steps + 1, 2 * m))
        samples[r][0] = y0

    def trajectory(r, n):
        rows = samples.pop(r)[:n]
        return GeodesicTrajectory.from_samples(M, step * np.arange(n), rows[:, :m], rows[:, m:], step)

    for r in [r for r in samples if len(samples[r]) == 1]:
        results[r] = trajectory(r, 1)
    live = list(samples)
    y = starts[live]
    k = 0  # steps taken by every live row
    while live:
        y = _rk4_step(M, y, step) if len(live) > 1 else _rk4_step(M, y[0], step)[None]
        k += 1
        keep = []
        for j, r in enumerate(live):
            row = y[j]
            if not M.domain.contains(row[:m]):
                results[r] = DomainExitError(trajectory(r, k), row[:m], k * step)
                continue
            rows = samples[r]
            rows[k] = row
            if k + 1 < len(rows):
                keep.append(j)
            else:
                results[r] = trajectory(r, k + 1)
        if len(keep) < len(live):
            live, y = [live[j] for j in keep], y[keep]
    if stacked:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def sample_points(domain: SamplingDomain, count: int, seed) -> np.ndarray:
    """Seeded uniform samples from the domain (rejection sampling)."""
    rng = np.random.default_rng(seed)
    return domain.sample(rng, count)
