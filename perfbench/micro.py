"""Layer microbenchmarks at fixed seeded points.

They mirror the baseline table of the project roadmap: one uncached frame,
the Christoffel symbols of a flat and of a curved metric, one fiber-shape
tensor, one RK4 step, and the evaluation of the third derivative tree of
``sqrt(x1^2 + x2^2)``.  The points come from a fixed seed, not from the
workload seed, so the numbers compare across runs and commits.  Each value
is the median over ``REPEATS`` batches of the per-call time in microseconds.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from riemsub import (
    build_frame,
    christoffel,
    geodesic_integrate,
    load_scenario,
    parse,
    resolve_scenario_path,
    sample_points,
    tensor_T,
)

REPEATS = 5
POINT_SEED = 20201012
WARPED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios", "warped-product.yaml")


def _per_call_us(fn, args_list) -> float:
    """Median over batches of the mean per-call time; each batch is ``args_list``."""
    times = []
    for batch in args_list:
        t0 = time.perf_counter()
        for args in batch:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(batch))
    return statistics.median(times) * 1e6


def _batches(domain, per_batch: int, seed: int):
    pts = sample_points(domain, per_batch * REPEATS, seed)
    return [pts[k * per_batch:(k + 1) * per_batch] for k in range(REPEATS)]


def node_count(e) -> int:
    """Number of nodes in an expression tree."""
    children = [getattr(e, a) for a in ("a", "b", "base", "arg") if hasattr(e, a)]
    return 1 + sum(node_count(c) for c in children)


def run_all() -> dict:
    radius = load_scenario(resolve_scenario_path("example-ii")).scenario
    warped = load_scenario(WARPED).scenario
    F, M = radius.F, radius.M
    out = {}

    # Every point is new, so every call builds its frame.
    batches = _batches(M.domain, 200, POINT_SEED)
    out["submersion.build_frame_us.uncached"] = _per_call_us(
        build_frame, [[(F, p) for p in b] for b in batches]
    )

    batches = _batches(M.domain, 500, POINT_SEED + 1)
    out["geometry.christoffel_us.flat"] = _per_call_us(
        christoffel, [[(M, p) for p in b] for b in batches]
    )
    batches = _batches(warped.M.domain, 300, POINT_SEED + 2)
    out["geometry.christoffel_us.warped"] = _per_call_us(
        christoffel, [[(warped.M, p) for p in b] for b in batches]
    )

    # The base frame is built outside the timed region; the four displaced
    # frames of the stencil are new points, so the tensor builds them.
    calls = []
    for b in _batches(M.domain, 60, POINT_SEED + 3):
        batch = []
        for p in b:
            fr = build_frame(F, p)
            v = fr.vertical[0]
            batch.append((F, v, v, p, fr, christoffel(M, p)))
        calls.append(batch)
    out["submersion.tensor_T_us"] = _per_call_us(tensor_T, calls)

    steps, h = 400, 1e-3
    p0, v0 = np.array([1.5, 0.2, 0.1, -0.3]), np.array([0.1, 0.9, 0.3, 0.2])
    out["geometry.rk4_step_us"] = _per_call_us(
        geodesic_integrate, [[(M, p0, v0, steps * h, h)]] * REPEATS
    ) / steps

    e = parse("sqrt(x1^2 + x2^2)", 4)
    for k in range(4):
        out[f"expr.nodes.sqrt-d{k}"] = node_count(e)
        if k < 3:
            e = e.diff(1)
    rng = np.random.default_rng(POINT_SEED + 4)
    points = [[(tuple(q),) for q in rng.uniform(0.5, 2.0, (400, 4))] for _ in range(REPEATS)]
    out["expr.eval_us.sqrt-d3"] = _per_call_us(e.eval, points)
    return out
