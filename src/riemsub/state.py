"""Per-sample state: what the checks read at a set of points, computed once
and stacked along a leading sample axis.

A :class:`SampleState` holds N points and the scenario parts it may need
(source manifold, map, structure, exponent) and builds each array on first
use, once, for every check that reads it: the metric, its inverse (from
``M.inverse_metric_at``) and its Christoffel symbols, the map's value,
Jacobian and Hessian, the target metric and its symbols, the g-orthonormal
vertical and horizontal bases, the derivative of the vertical projector,
O'Neill's fiber-shape tensor on vertical frame pairs, phi with its
derivatives, and the gradient of the exponent.

The split at each point comes from a rank-revealing SVD of the Jacobian,
one stacked ``np.linalg.svd`` for all points: the vertical space is the
null space, the horizontal space its metric-orthogonal complement, both
orthonormalized in the source metric with a deterministic sign rule
(largest-magnitude component positive).

Vectors handed to the methods carry the sample axis first and any probe
axes after it, ``(N, ..., m)``.  The one-point helpers that remain
(``build_frame``, ``tensor_T``, ``tensor_A``, ``nabla_phi`` and
``geodesic_condition_residuals``) run the same kernels on a one-row state.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .expr import partials
from .geometry import RANK_RTOL, christoffel


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
    """Orthonormal bases of the vertical/horizontal split at one point: a
    one-row :class:`SampleState`, whose arrays it reads on first use."""

    __slots__ = ("state",)

    def __init__(self, state: "SampleState"):
        self.state = state

    @property
    def point(self) -> np.ndarray:
        return self.state.points[0]

    @property
    def metric(self) -> np.ndarray:
        return self.state.metric[0]

    @property
    def vertical(self) -> np.ndarray:
        """``(m - n, m)`` rows, g-orthonormal."""
        return self.state.vertical[0]

    @property
    def horizontal(self) -> np.ndarray:
        """``(n, m)`` rows, g-orthonormal."""
        return self.state.horizontal[0]

    def vertical_part(self, v) -> np.ndarray:
        return self.state.vertical_part(np.asarray(v, dtype=float)[None])[0]

    def horizontal_part(self, v) -> np.ndarray:
        return self.state.horizontal_part(np.asarray(v, dtype=float)[None])[0]


def apply(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mats[n] @ v[n, ...]`` for matrices ``(N, a, b)`` and vectors ``(N, ..., b)``."""
    return np.einsum("nij,n...j->n...i", mats, v)


def metric_norms(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Norms of the vectors ``v`` ``(N, ..., m)`` in the metrics ``g`` ``(N, m, m)``."""
    return np.sqrt(np.maximum(np.einsum("n...i,nij,n...j->n...", v, g, v), 0.0))


def connection(gamma: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``Gamma(u, w)`` for stacked symbols ``gamma`` ``(N, m, m, m)``, vectors ``(N, ..., m)``."""
    return np.einsum("nkij,n...i,n...j->n...k", gamma, u, w)


def pairs(basis: np.ndarray):
    """``(E, F)`` with ``E[n, j, k] = basis[n, j]`` and ``F[n, j, k] = basis[n, k]``."""
    shape = basis.shape[:2] + basis.shape[1:]
    return np.broadcast_to(basis[:, :, None], shape), np.broadcast_to(basis[:, None], shape)


# The five-point stencil reads the points ``p + t FD_STEP u`` at these
# offsets ``t``, stacked offset-major: as rows (offset, sample).
FD_STEP = 1e-5
STENCIL_OFFSETS = (-2.0, -1.0, 1.0, 2.0)


def stencil_points(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The stencil's rows around points ``p`` along directions ``u`` ``(N, m)``."""
    return np.stack([p + (t * FD_STEP) * u for t in STENCIL_OFFSETS]).reshape(-1, p.shape[-1])


def five_point(rows, h: float) -> np.ndarray:
    """Fourth-order central derivative from the stencil's rows of values at
    -2h, -h, +h, +2h.  Differences are grouped before summing so that
    nearly-equal samples cancel exactly instead of leaving an ulp residue
    amplified by 1/h."""
    m2, m1, p1, p2 = np.split(rows, len(STENCIL_OFFSETS))
    return (8.0 * (p1 - m1) + (m2 - p2)) / (12.0 * h)


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
    """Arrays at the points ``(N, m)``, each built on first use and kept."""

    def __init__(self, points, M, F=None, J=None, f=None):
        self.points = np.asarray(points, dtype=float)
        self.M, self.F, self.J, self.f = M, F, J, f

    # -- source geometry -------------------------------------------------

    @cached_property
    def metric(self) -> np.ndarray:
        return self.M.metric_at(self.points)

    @cached_property
    def inverse_metric(self) -> np.ndarray:
        return self.M.inverse_metric_at(self.points)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """``G[n, k, i, j]``."""
        return christoffel(self.M, self.points)

    def connection(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``Gamma(u, w)`` at each point for vectors ``(N, ..., m)``."""
        return connection(self.christoffel, u, w)

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

    @cached_property
    def vertical_stencils(self) -> tuple:
        """The states at ``stencil_points(points, V_k)``, one per vertical
        basis vector ``V_k``, which every finite-difference oracle shares."""
        return tuple(SampleState(stencil_points(self.points, u), self.M, self.F, self.J)
                     for u in self.vertical.swapaxes(0, 1))

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
        g, K, A, V = self.metric, self.inverse_metric, self.jacobian, self.vertical
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

    @cached_property
    def fiber_shape(self) -> np.ndarray:
        """O'Neill's ``T[n, j, l] = T_{V_j} V_l`` on vertical frame pairs."""
        return _oneill(self, "T", *pairs(self.vertical))

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
        """Metric gradient ``g^{kj} d_j f`` of the exponent ``f``."""
        return (self.inverse_metric @ self.df[..., None])[..., 0]


def _oneill(st: SampleState, kind: str, e, fp, fjac=None) -> np.ndarray:
    """O'Neill's ``T_e fp`` (``kind`` "T") or ``A_e fp`` (``kind`` "A") at
    every sample and probe: ``e`` and ``fp`` are ``(N, ..., m)``; ``fjac``, the
    field's Jacobian ``(N, ..., m, m)``, is None for constant extensions."""
    u = st.vertical_part(e) if kind == "T" else st.horizontal_part(e)
    vfp = st.vertical_part(fp)
    hfp = fp - vfp
    # Derivatives along u of the field (symbolic) and of its vertical
    # projection q -> P_V(q) F(q).
    dvert = np.einsum("n...l,nlij,n...j->n...i", u, st.projector_derivs, fp)
    dfield = 0.0
    if fjac is not None:
        dfield = np.einsum("n...ij,n...j->n...i", fjac, u)
        dvert = dvert + st.vertical_part(dfield)
    nabla_vf = dvert + st.connection(u, vfp)
    nabla_hf = (dfield - dvert) + st.connection(u, hfp)
    return st.horizontal_part(nabla_vf) + st.vertical_part(nabla_hf)
