"""Per-sample state: what the checks read at a set of points, computed once
and stacked along a leading sample axis.

A :class:`SampleState` holds N points and the scenario parts it may need
(source manifold, map, structure, exponent) and builds each array on first
use: the metric and Christoffel symbols, the map's value, Jacobian and
Hessian, the target metric and its Christoffel symbols, the g-orthonormal
vertical and horizontal bases, the derivative of the vertical projector,
phi with its derivatives, and the gradient of the exponent.

The split at each point comes from a rank-revealing SVD of the Jacobian,
one stacked ``np.linalg.svd`` for all points: the vertical space is the
null space, the horizontal space its metric-orthogonal complement, both
orthonormalized in the source metric with a deterministic sign rule
(largest-magnitude component positive).

Vectors handed to the methods carry the sample axis first and any probe
axes after it, ``(N, ..., m)``.  The one-point helpers (``frame_at``,
``tensor_T``, ``nabla_phi``, ...) build a state of one row.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .expr import partials
from .geometry import RANK_RTOL, christoffel, gradient


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


class Frame:
    """Orthonormal bases of the vertical/horizontal split at one point: row
    ``i`` of a :class:`SampleState`, whose arrays it reads on first use."""

    __slots__ = ("state", "i")

    def __init__(self, state: "SampleState", i: int):
        self.state = state
        self.i = i

    @property
    def point(self) -> np.ndarray:
        return self.state.points[self.i]

    @property
    def metric(self) -> np.ndarray:
        return self.state.metric[self.i]

    @property
    def vertical(self) -> np.ndarray:
        """``(m - n, m)`` rows, g-orthonormal."""
        return self.state.vertical[self.i]

    @property
    def horizontal(self) -> np.ndarray:
        """``(n, m)`` rows, g-orthonormal."""
        return self.state.horizontal[self.i]

    def vertical_part(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vertical = self.vertical
        coeffs = vertical @ (self.metric @ v)
        return coeffs @ vertical

    def horizontal_part(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float) - self.vertical_part(v)


def apply(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mats[n] @ v[n, ...]`` for matrices ``(N, a, b)`` and vectors ``(N, ..., b)``."""
    return np.einsum("nij,n...j->n...i", mats, v)


def metric_norms(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Norms of the vectors ``v`` ``(N, ..., m)`` in the metrics ``g`` ``(N, m, m)``."""
    return np.sqrt(np.maximum(np.einsum("n...i,nij,n...j->n...", v, g, v), 0.0))


def pairs(basis: np.ndarray):
    """``(E, F)`` with ``E[n, j, k] = basis[n, j]`` and ``F[n, j, k] = basis[n, k]``."""
    shape = basis.shape[:2] + basis.shape[1:]
    return np.broadcast_to(basis[:, :, None], shape), np.broadcast_to(basis[:, None], shape)


def _fix_sign(rows: np.ndarray) -> np.ndarray:
    # First component of largest magnitude made positive; the magnitude
    # comparison tolerates rounding so exact ties resolve deterministically.
    mags = np.abs(rows)
    first = np.argmax(mags >= (1.0 - 1e-9) * mags.max(-1, keepdims=True), axis=-1)
    flat = rows.reshape(-1, rows.shape[-1])
    lead = flat[np.arange(len(flat)), first.ravel()].reshape(first.shape)
    return np.where(lead[..., None] < 0.0, -rows, rows)


def _orthonormalize(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g-orthonormal rows ``(N, r, m)`` by Gram-Schmidt, skipped at points
    whose rows already are; then the sign rule."""
    gram = rows @ g @ rows.swapaxes(1, 2)
    done = abs(gram - np.eye(rows.shape[1])).max(axis=(1, 2), initial=0.0) < 1e-13
    if not done.all():
        todo = np.flatnonzero(~done)
        rows, g_todo, out = rows.copy(), g[todo], []
        for v in rows[todo].swapaxes(0, 1):
            for u in out:
                v = v - np.einsum("ni,nij,nj->n", v, g_todo, u)[:, None] * u
            norm = metric_norms(g_todo, v)
            if (norm < 1e-12).any():
                raise SubmersionError("degenerate basis during orthonormalization")
            out.append(v / norm[:, None])
        rows[todo] = np.stack(out, axis=1)
    return _fix_sign(rows)


def vertical_bases(F, points: np.ndarray, metric: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """g-orthonormal bases ``(N, m - n, m)`` of the Jacobian null spaces at
    the points ``(N, m)``, from one stacked SVD: the frame builder."""
    n = F.target.dim
    _, s, vt = np.linalg.svd(jacobian)
    # The singular values come sorted: full rank when the smallest counts.
    cutoff = RANK_RTOL * np.maximum(s[:, 0], 1e-300)
    if (s[:, -1] <= cutoff).any():
        i = np.flatnonzero(s[:, -1] <= cutoff)[0]
        raise RankDeficiencyError(points[i], int((s[i] > cutoff[i]).sum()), n)
    return _orthonormalize(vt[:, n:], metric)


def horizontal_bases(metric: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """g-orthonormal bases ``(N, n, m)`` of the complements of the null spaces."""
    # The g-orthocomplement of the kernel is the inverse-metric image of
    # the Jacobian row space.
    comp = np.linalg.solve(metric, jacobian.swapaxes(1, 2)).swapaxes(1, 2)
    return _orthonormalize(comp, metric)


def sample_state(samples, M, F=None, J=None, f=None) -> "SampleState":
    """``samples`` itself when it is a state, else the state at those points."""
    if isinstance(samples, SampleState):
        return samples
    return SampleState(np.atleast_2d(np.asarray(samples, dtype=float)), M, F, J, f)


class SampleState:
    """Arrays at the points ``(N, m)``, each built on first use and kept.

    ``known`` holds arrays already computed at these points, by attribute
    name (a frame's bases, say).
    """

    def __init__(self, points, M, F=None, J=None, f=None, **known):
        self.points = np.asarray(points, dtype=float)
        self.M, self.F, self.J, self.f = M, F, J, f
        self.__dict__.update(known)

    @classmethod
    def at_frame(cls, fr: Frame, M, F=None, J=None, f=None, gamma=None) -> "SampleState":
        """The one-row state at a frame's point, with every array the
        frame's state has built there and, when given, the Christoffel
        symbols ``gamma``."""
        i = fr.i
        known = {
            k: v[i:i + 1] for k, v in vars(fr.state).items()
            if isinstance(v, np.ndarray) and k != "points"
        }
        if gamma is not None:
            known["christoffel"] = np.asarray(gamma, dtype=float)[None]
        return cls(fr.point[None], M, F, J, f, **known)

    def frame(self, i: int) -> Frame:
        """The frame at point ``i``."""
        return Frame(self, i)

    # -- source geometry -------------------------------------------------

    @cached_property
    def metric(self) -> np.ndarray:
        return self.M.metric_at(self.points)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """``G[n, k, i, j]``."""
        return christoffel(self.M, self.points)

    def inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``g(a, b)`` at each point for vectors ``(N, ..., m)``."""
        return np.einsum("n...i,nij,n...j->n...", a, self.metric, b)

    def norm(self, v: np.ndarray) -> np.ndarray:
        return metric_norms(self.metric, v)

    def unit_probes(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        """Random g-unit vectors ``(N, *shape, m)``, drawn sample by sample."""
        v = rng.standard_normal((len(self.points),) + shape + (self.M.dim,))
        return v / self.norm(v)[..., None]

    # -- the map and the split -------------------------------------------

    @cached_property
    def jacobian(self) -> np.ndarray:
        return self.F.jacobian_at(self.points)

    @cached_property
    def hessian(self) -> np.ndarray:
        """``H[n, a, i, j] = d_j d_i`` (component a)."""
        return self.F.jacobian_derivs_at(self.points)

    @cached_property
    def map_points(self) -> np.ndarray:
        return self.F.map_point(self.points)

    @cached_property
    def target_metric(self) -> np.ndarray:
        return self.F.target.metric_at(self.map_points)

    @cached_property
    def target_christoffel(self) -> np.ndarray:
        return christoffel(self.F.target, self.map_points)

    @cached_property
    def vertical(self) -> np.ndarray:
        """g-orthonormal vertical bases ``(N, m - n, m)``."""
        return vertical_bases(self.F, self.points, self.metric, self.jacobian)

    @cached_property
    def horizontal(self) -> np.ndarray:
        """g-orthonormal horizontal bases ``(N, n, m)``."""
        self.vertical  # a rank-deficient Jacobian is reported there
        return horizontal_bases(self.metric, self.jacobian)

    def vertical_part(self, v: np.ndarray) -> np.ndarray:
        coeffs = np.einsum("nkj,n...j->n...k", self.vertical, apply(self.metric, v))
        return np.einsum("n...k,nkm->n...m", coeffs, self.vertical)

    def horizontal_part(self, v: np.ndarray) -> np.ndarray:
        return v - self.vertical_part(v)

    @cached_property
    def projector_derivs(self) -> np.ndarray:
        """``dP[n, l] = d P_V / d x_{l+1}`` at each point.

        With ``K = G^-1`` and ``Z = (A K A^T)^-1 A`` for the Jacobian ``A``,
        the vertical projector is ``P_V = I - K A^T Z``; differentiating
        through the inverses (Golub & Pereyra 1973) gives

            dP_V = -P_V K (dA^T Z - dG P_H) - K Z^T dA P_V

        with ``dA`` from the map's Hessian and ``dG`` from the metric
        derivatives.
        """
        g, A, V = self.metric, self.jacobian, self.vertical
        K = np.linalg.inv(g)
        Z = np.linalg.solve(A @ K @ A.swapaxes(1, 2), A)
        pv = V.swapaxes(1, 2) @ V @ g
        H = self.hessian  # [n, a, i, l] = d_l A[n, a, i]
        X = np.einsum("nail,naj->nlij", H, Z)
        if not self.M.is_flat_constant:
            X = X - self.M.metric_derivs_at(self.points) @ (np.eye(self.M.dim) - pv)[:, None]
        return (
            -(pv @ K)[:, None] @ X
            - (K @ Z.swapaxes(1, 2))[:, None] @ H.transpose(0, 3, 1, 2) @ pv[:, None]
        )

    # -- structure and exponent ------------------------------------------

    @cached_property
    def phi(self) -> np.ndarray:
        return self.J.matrix_at(self.points)

    @cached_property
    def phi_derivs(self) -> np.ndarray:
        """``D[n, l, i, j] = d phi^i_j / d x_{l+1}``."""
        return self.J.derivs_at(self.points)

    @cached_property
    def df(self) -> np.ndarray:
        """Coordinate partials of the exponent ``f``."""
        return partials(self.f, self.M.dim).eval(self.points)

    @cached_property
    def grad_f(self) -> np.ndarray:
        """Metric gradient of the exponent ``f``."""
        return gradient(self.M, self.f, self.points)
