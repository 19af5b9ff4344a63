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

The vertical space at each point is the null space of the Jacobian ``A``,
the horizontal space its metric-orthogonal complement, both orthonormalized
in the source metric with a deterministic sign rule (largest-magnitude
component positive).  Where a determinant bound on ``A A^T`` proves
``sigma_min(A) / sigma_max(A) > FRAME_RTOL``, the null space is read off the
projector ``I - A^T (A A^T)^-1 A`` by pivoted deflation and one
re-projection (``null_rows``); the Jacobians it cannot certify take one
stacked ``np.linalg.svd``, which also decides and reports rank deficiency.

Each Gram matrix (``A A^T`` for the frames, ``A K A^T`` for the projector
derivative) is factored once by the stacked Cholesky kernel ``cholesky``,
whose factor gives the determinant and every solve; the small matrix
products are ``np.einsum`` calls with explicit subscripts.  So a state whose
Jacobians are certified and whose metric is diagonal calls neither BLAS nor
LAPACK: LAPACK is left to the Jacobians the bound rejects, to the rows whose
Cholesky fails (a metric that is not positive definite) and to non-diagonal
metrics (``geometry._inverse``).

Vectors handed to the methods carry the sample axis first and any probe
axes after it, ``(N, ..., m)``.  The one-point helpers that remain
(``build_frame``, ``tensor_T``, ``tensor_A``, ``nabla_phi`` and
``geodesic_condition_residuals``) run the same kernels on a one-row state.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

import numpy as np

from .expr import partials
from .geometry import RANK_RTOL, christoffel, uniforms


# Rounding leaves the projector's null vectors off the null space by about
# u kappa(A)^2 (u = 2^-53, kappa = sigma_max / sigma_min); one re-projection
# brings that down to about u kappa(A), an SVD's, while u kappa^2 is small.
# The projector therefore serves the Jacobians whose kappa the determinant
# bound proves below 1 / FRAME_RTOL, where u kappa^2 < 2e-8; the SVD serves
# the rest, rank-deficient ones (kappa > 1 / RANK_RTOL) among them.
FRAME_RTOL = 1e-4


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
    gram = np.einsum("nri,nij,nsj->nrs", rows, g, rows)
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


def cholesky(S: np.ndarray) -> tuple:
    """Lower-triangular factors ``L`` ``(N, n, n)`` with ``L L^T = S`` of the
    symmetric matrices ``S`` ``(N, n, n)``, one column at a time over the
    whole stack (Golub & Van Loan, *Matrix Computations*, 4.2), and the mask
    of the rows whose pivots are all positive and finite.  A row whose pivot
    is not (``S`` indefinite, singular or not finite) holds NaN or inf from
    that column on and raises no warning; only the mask tells.  No row is
    swapped or gathered, so each row has the same bits in any stack."""
    N, n, _ = S.shape
    L = np.zeros_like(S)
    ok = np.ones(N, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(n):
            d = S[:, j, j] - np.einsum("nk,nk->n", L[:, j, :j], L[:, j, :j])
            ok &= (d > 0.0) & (d < np.inf)
            L[:, j, j] = np.sqrt(d)
            below = S[:, j + 1:, j] - np.einsum("nik,nk->ni", L[:, j + 1:, :j], L[:, j, :j])
            L[:, j + 1:, j] = below / L[:, j, j, None]
    return L, ok


def forward_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``L^-1 B`` for the factors ``L`` of :func:`cholesky` and ``B`` ``(N, n, r)``."""
    Y = np.empty_like(B)
    with np.errstate(all="ignore"):  # the rows ``cholesky`` did not pass
        for i in range(B.shape[1]):
            Y[:, i] = (B[:, i] - np.einsum("nk,nkr->nr", L[:, i, :i], Y[:, :i])) / L[:, i, i, None]
    return Y


def back_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``L^-T B`` for the factors ``L`` of :func:`cholesky` and ``B`` ``(N, n, r)``."""
    X = np.empty_like(B)
    with np.errstate(all="ignore"):
        for i in reversed(range(B.shape[1])):
            X[:, i] = (B[:, i] - np.einsum("nk,nkr->nr", L[:, i + 1:, i], X[:, i + 1:])) / L[:, i, i, None]
    return X


def null_rows(jacobian: np.ndarray) -> tuple:
    """Rows ``(N, m - n, m)`` spanning the null spaces of the Jacobians
    ``A`` ``(N, n, m)``, orthonormal up to rounding, from the projectors
    ``P = I - A^T (A A^T)^-1 A``, and the mask of the Jacobians whose rows
    these are: those where the determinant bound on ``G = A A^T`` proves
    ``sigma_min(A) / sigma_max(A) > FRAME_RTOL``.  ``G`` is factored once,
    ``G = L L^T`` (:func:`cholesky`): ``det G`` is the product of the
    ``L_jj^2``, and with ``Y = L^-1 A`` the projector is ``I - Y^T Y``.  A
    ``G`` with a pivot that is not positive is not certified.  Other rows
    are left unset."""
    N, n, m = jacobian.shape
    top = abs(jacobian).max((1, 2))
    done = np.flatnonzero(np.isfinite(top) & (top > 0))
    A = jacobian[done] / top[done, None, None]  # scaled so that A A^T cannot overflow
    G = np.einsum("nai,nbi->nab", A, A)
    L, positive = cholesky(G)
    trace = np.trace(G, axis1=1, axis2=2)
    # The other n - 1 eigenvalues of G sum to at most its trace, so their
    # product is at most (trace / (n - 1))^(n - 1) and
    # sigma_min(G) >= det G ((n - 1) / trace)^(n - 1); trace >= sigma_max(G).
    det = np.prod(np.diagonal(L, axis1=1, axis2=2) ** 2, axis=-1)
    keep = positive & (det * ((n - 1) / trace) ** (n - 1) > FRAME_RTOL**2 * trace)
    done, Y = done[keep], forward_solve(L[keep], A[keep])
    P = np.eye(m) - np.einsum("nai,naj->nij", Y, Y)
    # Pivoted deflation: the column of largest norm, normalized, then
    # removed from P, which stays the projector onto what is left.
    e, k = np.empty((len(done), m - n, m)), np.arange(len(done))
    for r in range(m - n):
        if r:
            P = P - e[:, r - 1, :, None] * e[:, r - 1, None, :]
        sq = (P * P).sum(1)
        j = sq.argmax(-1)
        e[:, r] = P[k, :, j] / np.sqrt(sq[k, j])[:, None]
    # One re-projection, e -= e Y^T Y (A^T G^-1 A e on each row): see FRAME_RTOL.
    rows = np.empty((N, m - n, m))
    rows[done] = e - np.einsum("nra,naj->nrj", np.einsum("nri,nai->nra", e, Y), Y)
    certified = np.zeros(N, dtype=bool)
    certified[done] = True
    return rows, certified


def vertical_bases(F, points: np.ndarray, metric: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """g-orthonormal bases ``(N, m - n, m)`` of the Jacobian null spaces at
    the points ``(N, m)``: the frame builder.  The Jacobians that
    ``null_rows`` cannot certify take one stacked SVD, which reports rank
    deficiency."""
    n = F.target.dim
    rows, certified = null_rows(jacobian)
    if not certified.all():
        rest = np.flatnonzero(~certified)
        _, s, vt = np.linalg.svd(jacobian[rest])
        # The singular values come sorted: full rank when the smallest counts.
        cutoff = RANK_RTOL * np.maximum(s[:, 0], 1e-300)
        if (s[:, -1] <= cutoff).any():
            i = np.flatnonzero(s[:, -1] <= cutoff)[0]
            raise RankDeficiencyError(points[rest[i]], int((s[i] > cutoff[i]).sum()), n)
        rows[rest] = vt[:, n:]
    return _orthonormalize(rows, metric)


def horizontal_bases(metric: np.ndarray, inverse_metric: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """g-orthonormal bases ``(N, n, m)`` of the complements of the null spaces."""
    # The g-orthocomplement of the kernel is the inverse-metric image of
    # the Jacobian row space.
    comp = np.einsum("nij,naj->nai", inverse_metric, jacobian)
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

    def unit_probes(self, rng: random.Random | None, shape: tuple) -> np.ndarray:
        """Random g-unit vectors ``(N, *shape, m)``, drawn sample by sample:
        uniform in the cube ``[-1, 1)^m``, then scaled to g-norm 1.  The map
        from ``uniforms`` is exact IEEE arithmetic, so the bits do not depend
        on numpy's vector math.  ``rng`` defaults to ``random.Random(0)``."""
        shape = (len(self.points),) + shape + (self.M.dim,)
        u = uniforms(random.Random(0) if rng is None else rng, math.prod(shape)).reshape(shape)
        v = 2.0 * u - 1.0
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
        return horizontal_bases(self.metric, self.inverse_metric, self.jacobian)

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
        derivatives.  ``Z`` comes from one :func:`cholesky` of ``A K A^T``;
        a row where that fails, where the metric is not positive definite,
        is solved by LAPACK.
        """
        g, K, A, V = self.metric, self.inverse_metric, self.jacobian, self.vertical
        S = np.einsum("nai,nij,nbj->nab", A, K, A)
        L, positive = cholesky(S)
        Z = back_solve(L, forward_solve(L, A))
        if not positive.all():  # the metric is not positive definite here
            rest = np.flatnonzero(~positive)
            Z[rest] = np.linalg.solve(S[rest], A[rest])
        pv = np.einsum("nki,nkl->nil", V, np.einsum("nkj,njl->nkl", V, g))
        H = self.hessian  # [n, a, i, l] = d_l A[n, a, i]
        X = np.einsum("nail,naj->nlij", H, Z)
        if not self.M.is_flat_constant:
            X = X - np.einsum("nlij,njk->nlik", self.M.metric_derivs_at(self.points), np.eye(self.M.dim) - pv)
        return (
            -np.einsum("nij,nljk->nlik", np.einsum("nij,njk->nik", pv, K), X)
            - np.einsum("nia,nlak->nlik", np.einsum("nij,naj->nia", K, Z),
                        np.einsum("najl,njk->nlak", H, pv))
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
        return np.einsum("nkj,nj->nk", self.inverse_metric, self.df)


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
