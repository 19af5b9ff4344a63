"""Bundled metric / complex-structure / map presets.

``PRESETS`` maps each name that scenario files may use (and that
``riemsub presets`` lists) to its kind, description and builder; the
builder functions themselves serve the test suite and the demos.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .expr import Const, parse
from .geometry import ManifoldSpec, SamplingDomain, box_domain


def _matmul(A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                term = A[i][k] * B[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def euclidean_metric(dim: int):
    return [
        [Const(1.0) if i == j else Const(0.0) for j in range(dim)] for i in range(dim)
    ]


def euclidean_manifold(dim: int, domain: SamplingDomain | None = None) -> ManifoldSpec:
    if domain is None:
        domain = box_domain(dim, -2.0, 2.0)
    return ManifoldSpec(dim, euclidean_metric(dim), domain)


def conformal_metric_r2():
    """The smallest metric with nonzero connection coefficients."""
    e = parse("exp(2 * x1)", 2)
    return [[e, Const(0.0)], [Const(0.0), e]]


def conformal_r2(domain: SamplingDomain | None = None) -> ManifoldSpec:
    if domain is None:
        domain = box_domain(2, -1.5, 1.5)
    return ManifoldSpec(2, conformal_metric_r2(), domain)


def canonical_phi():
    """Constant block structure: column j holds the image of e_j, so
    e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3."""
    rows = [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
    return [[Const(v) for v in row] for row in rows]


def twisted_phi():
    """Canonical structure conjugated by an x1-dependent (e2, e3) rotation.

    Still orthogonal and squaring to -I, but not parallel, so it fails the
    symmetrized-derivative test at generic points (negative fixture).
    """
    c = parse("cos(x1)", 4)
    s = parse("sin(x1)", 4)
    one, zero = Const(1.0), Const(0.0)
    R = [
        [one, zero, zero, zero],
        [zero, c, -s, zero],
        [zero, s, c, zero],
        [zero, zero, zero, one],
    ]
    Rt = [[R[j][i] for j in range(4)] for i in range(4)]
    return _matmul(_matmul(R, canonical_phi()), Rt)


def map_example_i_components():
    return tuple(parse(s, 4) for s in ["(x1 + x2) / sqrt(2)", "x3", "x4"])


def map_example_ii_components():
    """Singular on the x3x4-axis."""
    return tuple(parse(s, 4) for s in ["sqrt(x1^2 + x2^2)", "x3", "x4"])


class Preset(NamedTuple):
    """A named fixture: its kind ("metric", "phi" or "map"), a one-line
    description, the builder of its entries from the source dimension, and
    the dimension it requires (None: any)."""

    kind: str
    description: str
    build: Callable[[int], object]
    dim: int | None = None


PRESETS = {
    "euclidean": Preset("metric", "flat metric, any dimension", euclidean_metric),
    "euclidean-r4": Preset("metric", "flat metric on R^4", euclidean_metric, 4),
    "conformal-r2": Preset("metric", "exp(2*x1) times the flat metric on R^2",
                           lambda _: conformal_metric_r2(), 2),
    "canonical-phi": Preset("phi", "constant orthogonal complex structure on R^4",
                            lambda _: canonical_phi(), 4),
    "twisted-phi": Preset("phi", "canonical structure conjugated by an x1-rotation "
                          "in (e2,e3); synthetic non-parallel negative fixture",
                          lambda _: twisted_phi(), 4),
    "map-example-i": Preset("map", "((x1 + x2)/sqrt(2), x3, x4) onto R^3",
                            lambda _: map_example_i_components()),
    "map-example-ii": Preset("map", "(sqrt(x1^2 + x2^2), x3, x4) onto R^3",
                             lambda _: map_example_ii_components()),
}


def build_preset(kind: str, name: str, dim: int):
    """Entries of the ``kind`` preset ``name`` over a source of dimension
    ``dim``; a ``ValueError`` names what does not fit."""
    preset = PRESETS.get(name)
    if preset is None or preset.kind != kind:
        raise ValueError(f"unknown {kind} preset {name!r}")
    if preset.dim is not None and dim != preset.dim:
        raise ValueError(f"{name} requires dim {preset.dim}")
    return preset.build(dim)
