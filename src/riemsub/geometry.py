"""Riemannian machinery on a single global chart.

A manifold is described by its dimension, a symmetric matrix of metric
expressions, and a sampling domain (a coordinate box minus optional
exclusion tubes around singular loci).  On top of that this module provides
Christoffel symbols, the Koszul pairing, covariant derivatives, gradients,
and fixed-step RK4 geodesic integration with energy-drift bookkeeping.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .expr import Add, Const, Div, Expr, ExprArray, ExprError, Mul, Neg, Sub, Var, _define, _walk, blocks, is_zero, parse, partials

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


def uniforms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` uniform floats in [0, 1), each a multiple of 2**-53: the top
    53 bits of each little-endian 64-bit word of one ``rng.randbytes`` draw."""
    if not isinstance(rng, random.Random):
        raise TypeError(f"rng must be a random.Random, not {type(rng).__name__}")
    return (np.frombuffer(rng.randbytes(8 * count), "<u8") >> 11) * 2.0**-53


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

    @functools.cached_property
    def _inside(self):
        """``_inside(x1, ..., xm)``: :meth:`contains` on the coordinates as
        Python floats, one function generated from ``expr._walk``: the box
        bounds, the tubes' code and the radius comparisons.  If the tubes'
        code raises, ``Expr.eval`` walks the tubes one by one, so the tube's
        own error is raised, unless an earlier tube excludes the point."""
        xs = ", ".join(f"x{i + 1}" for i in range(self.dim))
        lines, results, constants = _walk([tube.expr for tube in self.tubes], lambda i: f"x{i}", "t")
        outside = " or ".join(f"{r} < _r{k}" for k, r in enumerate(results)) or "False"
        source = [
            f"def _f({xs}):",
            f"    if not ({' and '.join(f'_l{i} <= x{i + 1} <= _h{i}' for i in range(self.dim))}):",
            "        return False",
            *(["    try:", *(f"        {line}" for line in lines),
               "    except (ArithmeticError, ValueError):",
               f"        p = [{xs}]",
               "        return not any(t.expr.eval(p) < t.radius for t in _tubes)"] if lines else []),
            f"    return not ({outside})",
        ]
        bounds = {f"_{c}{i}": iv[j] for i, iv in enumerate(self.intervals) for j, c in enumerate("lh")}
        radii = {f"_r{k}": tube.radius for k, tube in enumerate(self.tubes)}
        return _define("\n".join(source) + "\n", dict(constants, **bounds, **radii, _tubes=self.tubes))

    def contains(self, point) -> bool:
        """Whether ``point`` (floats) is in the box and outside every tube;
        see :attr:`_inside`."""
        return self._inside(*(point.tolist() if isinstance(point, np.ndarray) else map(float, point)))

    def sample(self, rng: random.Random, count: int) -> np.ndarray:
        """Draw ``count`` points uniformly, rejecting excluded ones."""
        lo = np.array([iv[0] for iv in self.intervals])
        hi = np.array([iv[1] for iv in self.intervals])
        points = np.empty((count, self.dim))
        for k in range(count):
            for _ in range(_MAX_SAMPLE_TRIES):
                p = lo + (hi - lo) * uniforms(rng, self.dim)
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
        # The geodesic rate of a curved diagonal metric and the RK4 loop
        # generated from it (see _rk4_loop).
        self._geodesic_rate = self._rk4 = None
        if not self.is_flat_constant:
            # What christoffel needs at a point, as one array: the metric
            # entries (the diagonal alone for a diagonal metric), then
            # B[i, j, l] = (d_i g_jl + d_j g_il) - d_l g_ij.
            r = range(dim)
            d = np.array(self._derivs.entries, dtype=object).reshape((dim,) * 3)
            g = [self.metric[k][k] for k in r] if self.is_diagonal else [e for row in self.metric for e in row]
            B = [Sub(Add(d[j, l, i], d[i, l, j]), d[i, j, l]) for i in r for j in r for l in r]
            self._connection = ExprArray(g + B)
            if self.is_diagonal:
                # Over the state y = (x, v), v_i = x_{m+1+i}: the diagonal,
                # then accel_k = -(0.5 sum_ij B_ijk v_i v_j) / g_kk.
                v = [Var(dim + 1 + i) for i in r]
                # A term whose three derivatives are the literal zero is dropped.
                accel = []
                for k in r:
                    terms = [
                        Mul(Mul(B[(i * dim + j) * dim + k], v[i]), v[j])
                        for i in r
                        for j in r
                        if not (is_zero(d[j, k, i]) and is_zero(d[i, k, j]) and is_zero(d[i, j, k]))
                    ]
                    total = functools.reduce(Add, terms) if terms else Const(0.0)
                    accel.append(Neg(Div(Mul(Const(0.5), total), g[k])))
                self._geodesic_rate = ExprArray(g + accel)
                # Generated here, at load: generated at the first integration,
                # the compiler's transient (about 0.33 MB on the warped metric)
                # left the warped check's peak memory about 0.1 MB higher.
                self._rk4 = _rk4_loop(self)

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
        stacked; raise for the first point that fails.  A metric value that
        is not finite is singular, as in :func:`_inverse`.  A diagonal
        metric is tested entry by entry, as its eigenvalues are its diagonal
        entries; any other by ``eigvalsh``."""
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        g = self.metric_at(pts)
        finite = np.isfinite(g).all((1, 2))
        g = np.where(finite[:, None, None], g, 0.0)  # LAPACK is handed finite values only
        # |g - gT| <= 1e-12 * scale and the symmetric part, both halved so
        # that neither overflows.
        half, halfT = 0.5 * g, 0.5 * g.swapaxes(1, 2)
        sym = finite & (abs(half - halfT) <= 0.5e-12 * np.maximum(1.0, abs(g).max((1, 2)))[:, None, None]).all((1, 2))
        floor = RANK_RTOL * np.maximum(abs(np.diagonal(g, axis1=1, axis2=2)).max(-1), 1e-300)
        if self.is_diagonal:
            ok = sym & (np.diagonal(g, axis1=1, axis2=2).min(-1) > floor)
        else:
            ok = sym.copy()
            ok[sym] = np.linalg.eigvalsh((half + halfT)[sym]).min(-1) > floor[sym]
        if not ok.all():
            i = np.argmin(ok)
            if not finite[i]:
                raise SingularMetricError(pts[i])
            what = "positive definite" if sym[i] else "symmetric"
            raise GeometryError(f"metric not {what} at {pts[i].tolist()}")


def _inverse(M: ManifoldSpec, point, g: np.ndarray) -> np.ndarray:
    """Inverse of the metric values ``g`` at ``point`` (one point or a
    stack), given by the diagonal ``(..., m)`` alone when ``M.is_diagonal``;
    raises :class:`SingularMetricError` for the first singular one.  A
    metric value that is not finite is singular.

    A diagonal is tested and inverted entry by entry: the singular values of
    a diagonal matrix are its ``|g_kk|`` and its inverse holds ``1 / g_kk``,
    so this is the SVD test and ``np.linalg.inv`` without LAPACK.  The test
    is written so that NaN or inf fails it.
    """
    if M.is_diagonal:
        a = abs(g)
        singular = ~(a.min(-1) > RANK_RTOL * np.maximum(a.max(-1), 1e-300))
        if singular.any():
            raise SingularMetricError(np.reshape(point, (-1, M.dim))[np.argmax(singular)])
        ginv = np.zeros(g.shape + (M.dim,))
        k = np.arange(M.dim)
        ginv[..., k, k] = 1.0 / g
        return ginv
    _check_invertible(g, point)
    return np.linalg.inv(g)


def _check_invertible(g: np.ndarray, point) -> None:
    """Raise for the first of the metrics ``g`` (one, or a stack at the
    points ``point``) that is numerically singular.  A metric with a NaN or
    inf entry is singular; LAPACK's SVD is handed finite matrices only."""
    finite = np.isfinite(g).all((-2, -1))
    scale = np.maximum(abs(np.diagonal(g, axis1=-2, axis2=-1)).max(-1), 1e-300)
    sigma = np.linalg.svd(np.where(finite[..., None, None], g, 0.0), compute_uv=False).min(-1)
    singular = ~finite | (sigma <= RANK_RTOL * scale)
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
            M.inverse_metric_at(p)
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
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", ginv, B)
    # A metric derivative that is not finite: named at the first finite point.
    bad = ~np.isfinite(gamma).all((-3, -2, -1)) & np.isfinite(p).all(-1)
    if bad.any():
        raise GeometryError(f"Christoffel symbols are not finite at {np.reshape(p, (-1, m))[np.argmax(bad)].tolist()}")
    return gamma


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
        """Wrap explicit samples (e.g. an analytic curve) with energy data,
        computed in blocks of samples (``expr.blocks``)."""
        s = np.asarray(s, dtype=float)
        points = np.asarray(points, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        energies = np.empty(len(velocities))
        for b in blocks(len(velocities)):
            v = velocities[b]
            energies[b] = np.einsum("ni,nij,nj->n", v, M.metric_at(points[b]), v)
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


def _rk4_loop(M: ManifoldSpec):
    """``loop(M, y, step, n, out)``: ``n`` RK4 steps of the state ``y``
    (``2m`` floats) on a curved diagonal metric, on Python floats, from the
    code walk of ``M._geodesic_rate``.  Sample k goes to ``out[k]``; it
    returns ``(n, None)``, or ``(k, row)`` for the first row at step k that
    ``M.domain._inside`` rejects (a tube's error propagates).  Where a
    stage cannot step, because the rate raises an :class:`ArithmeticError`
    or :class:`ValueError` or its diagonal fails the singular test of
    :func:`_inverse`, it calls :func:`_rk4_stop` with the step's start
    state and the stage point.  Every value has the bits of ``_rk4_step``:
    the weighted sum ``((k1 + 2k2) + 2k3) + k4`` starts at ``-0.0``, and
    ``-0.0 + t`` is ``t``."""
    m = M.dim
    lines, results, constants = _walk(M._geodesic_rate.entries, lambda i: f"z{i - 1}", "r")
    y, z, s, a = ([f"{c}{i}" for i in range(2 * m)] for c in "yzsa")
    k = z[m:] + results[m:]  # the rate (v, accel) at the stage state z
    Y, Z, S, A, X = (", ".join(names) for names in (y, z, s, a[:m], z[:m]))
    source = [
        "def _f(M, y, step, n, out):",
        f"    {Y} = y",
        "    h, h6 = 0.5 * step, step / 6.0",
        "    inside = M.domain._inside",
        "    for j in range(1, n + 1):",
        f"        {Z} = {Y}",
        f"        {S} = {', '.join(['-0.0'] * 2 * m)}",
        "        for c, w in ((h, 1.0), (h, 2.0), (step, 2.0), (0.0, 1.0)):",
        "            try:",
        *(f"                {line}" for line in lines),
        "            except (ArithmeticError, ValueError):",
        f"                _stop(M, [{Y}], step, [{X}])",
        f"            {A} = {', '.join(f'abs({g})' for g in results[:m])}",
        f"            if not ({' and '.join(f'_isfinite({x})' for x in a[:m])}"
        f" and min([{A}]) > _rtol * max([{A}, 1e-300])):",
        f"                _stop(M, [{Y}], step, [{X}])",
        f"            {S} = {', '.join(f'{u} + w * {v}' for u, v in zip(s, k))}",
        f"            {Z} = {', '.join(f'{u} + c * {v}' for u, v in zip(y, k))}",
        f"        {Y} = {', '.join(f'{u} + h6 * {v}' for u, v in zip(y, s))}",
        f"        if not inside({', '.join(y[:m])}):",
        f"            return j, [{Y}]",
        f"        out[j] = {Y}",
        "    return n, None\n",
    ]
    return _define("\n".join(source), dict(constants, _isfinite=math.isfinite, _rtol=RANK_RTOL, _stop=_rk4_stop))


def _rk4_stop(M: ManifoldSpec, y, step: float, point):
    """Raise what :func:`_rk4_step` raises from ``y``, the start state of a
    step where the RK4 loop cannot step at the stage point ``point``, so
    that the first failing stage point is named; never returns."""
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_step(M, np.array(y), step)
    raise GeometryError(f"the geodesic rate cannot be evaluated at {point}")


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
    :class:`ValueError` that row raises alone.  An error in the metric (an
    :class:`ExprError`, a :class:`SingularMetricError`) ends the whole call.
    On a curved diagonal metric the rows run one after another, in row
    order, through the metric's ``_rk4_loop``, so the first row that meets
    a metric error raises it.  On any other metric the live rows advance as
    one RK4 over ``(T, 2m)``, every row bit for bit its one-row
    integration; a row leaves the stack when it finishes or exits, and one
    live row steps as ``(2m,)``.
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

    if M._rk4 is not None:
        for r, rows in list(samples.items()):
            k, exit_row = M._rk4(M, rows[0].tolist(), step, len(rows) - 1, rows)
            results[r] = trajectory(r, k + 1) if exit_row is None else DomainExitError(trajectory(r, k), exit_row[:m], k * step)
    for r in [r for r in samples if len(samples[r]) == 1]:
        results[r] = trajectory(r, 1)
    live = list(samples)
    y = starts[live]
    k = 0  # steps taken by every live row
    inside = M.domain._inside
    while live:
        y = _rk4_step(M, y, step) if len(live) > 1 else _rk4_step(M, y[0], step)[None]
        k += 1
        keep = []
        for j, (r, row) in enumerate(zip(live, y[:, :m].tolist())):
            if not inside(*row):
                results[r] = DomainExitError(trajectory(r, k), row, k * step)
                continue
            rows = samples[r]
            rows[k] = y[j]
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


def sample_points(domain: SamplingDomain, count: int, seed: int | str) -> np.ndarray:
    """Seeded uniform samples from the domain (rejection sampling)."""
    if not isinstance(seed, (int, str)):
        raise TypeError(f"seed must be an int or a str, not {type(seed).__name__}")
    return domain.sample(random.Random(seed), count)
