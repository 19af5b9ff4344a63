"""Spans and counters recorded from outside ``riemsub``.

Nothing in ``riemsub`` is edited.  A traced operation wraps each layer
function and rebinds the wrapper under every name that refers to the
original in the ``riemsub`` modules (``build_frame``, for example, is bound
in ``submersion``, ``clairaut`` and the package root), so internal calls go
through the wrapper too.  Methods are wrapped on their class.

Each span records its name, start, end and parent span.  Spans stay in
memory and are written out once, when the operation ends; ``aggregate``
turns them into per-name call counts, inclusive time and self time (a
span's duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import sys
import time

# Layer functions: (span name, module, attribute).  The span name is
# ``<module>.<function>``, the module the function is defined in.
LAYER_FUNCTIONS = (
    ("scenario.load_scenario", "riemsub.scenario", "load_scenario"),
    ("geometry.christoffel", "riemsub.geometry", "christoffel"),
    ("geometry.geodesic_integrate", "riemsub.geometry", "geodesic_integrate"),
    ("submersion.build_frame", "riemsub.submersion", "build_frame"),
    ("submersion.tensor_T", "riemsub.submersion", "tensor_T"),
    ("submersion.tensor_A", "riemsub.submersion", "tensor_A"),
    ("hermitian.nabla_phi", "riemsub.hermitian", "nabla_phi"),
    ("clairaut.invariant_series", "riemsub.clairaut", "invariant_series"),
    ("cli.run_scenario", "riemsub.cli", "run_scenario"),
    ("cli.main", "riemsub.cli", "main"),
)

# Layer methods: (span name, module, class, method).
LAYER_METHODS = (
    ("geometry.metric_derivs_at", "riemsub.geometry", "ManifoldSpec", "metric_derivs_at"),
    ("report.to_json", "riemsub.report", "ReportDocument", "to_json"),
)

# Check entry points as ``cli.run_scenario`` calls them, mapped to the check
# family name the report uses.  ``geodesic-energy`` has no function of its
# own: it is the integration, measured by the ``geometry.geodesic_integrate``
# spans under ``cli.run_scenario``.
CHECK_FUNCTIONS = (
    ("structure", "check_structure"),
    ("nearly-kaehler", "check_nearly_kaehler"),
    ("submersion-axioms", "check_submersion"),
    ("oneill-skew", "check_skew"),
    ("oneill-decomposition", "check_decompositions"),
    ("map-second-fundamental-form", "check_sff_vertical"),
    ("anti-invariance", "check_anti_invariant"),
    ("fiber-character", "fiber_character"),
    ("bishop-clairaut", "check_bishop"),
    ("pq-identities", "check_pq_identities"),
    ("aq-gradient-identity", "check_thm33_identity"),
    ("dichotomies", "check_dichotomies"),
    ("geodesic-conditions", "check_geodesic_conditions"),
    ("geodesic-pq-curve", "pq_curve_residual"),
    ("geodesic-invariant", "clairaut_invariant"),
    ("geodesic-clairaut-condition", "check_clairaut_condition"),
)
CHECK_FAMILIES = tuple(f for f, _ in CHECK_FUNCTIONS) + ("geodesic-energy",)

EXPR_CLASSES = ("Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Func")

now_ns = time.perf_counter_ns


def _rebind(original, replacement) -> None:
    """Bind ``replacement`` wherever a ``riemsub`` module binds ``original``."""
    for name, module in list(sys.modules.items()):
        if name != "riemsub" and not name.startswith("riemsub."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.svd_calls: dict[int, int] = {}
        self.gate_evals = 0
        self.gate_pairs: set = set()

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, span_name: str, fn):
        idx = self._name_index(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = now_ns()
                starts[sid] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer, check entry point and counter in ``riemsub``."""
        import importlib

        import numpy as np

        import riemsub  # noqa: F401  (loads every submodule)

        for span_name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            _rebind(original, self.wrap(span_name, original))
        for span_name, module_name, cls_name, meth in LAYER_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))

        cli = sys.modules["riemsub.cli"]
        for family, attr in CHECK_FUNCTIONS:
            setattr(cli, attr, self.wrap(f"check.{family}", getattr(cli, attr)))

        clairaut = sys.modules["riemsub.clairaut"]
        gate = clairaut.geodesic_condition_residuals

        @functools.wraps(gate)
        def counted_gate(sc, traj, i):
            self.gate_evals += 1
            self.gate_pairs.add(
                (traj.points[0].tobytes(), traj.velocities[0].tobytes(), len(traj), i)
            )
            return gate(sc, traj, i)

        _rebind(gate, counted_gate)

        svd = np.linalg.svd
        stack, names, counts = self._stack, self.name, self.svd_calls

        @functools.wraps(svd)
        def counted_svd(*args, **kwargs):
            owner = names[stack[-1]] if stack[-1] >= 0 else -1
            counts[owner] = counts.get(owner, 0) + 1
            return svd(*args, **kwargs)

        np.linalg.svd = counted_svd

    def dump(self) -> dict:
        return {
            "op": self.op_id,
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "svd_calls": {
                (self.names[k] if k >= 0 else "-"): v for k, v in self.svd_calls.items()
            },
            "gate_evals": self.gate_evals,
            "gate_pairs": len(self.gate_pairs),
        }


def install_node_counter() -> list:
    """Count expression-node evaluations; returns the one-element counter."""
    from riemsub import expr

    counter = [0]
    for cls_name in EXPR_CLASSES:
        cls = getattr(expr, cls_name)
        original = cls.eval

        def counted(node, point, _original=original):
            counter[0] += 1
            return _original(node, point)

        cls.eval = counted
    return counter


def aggregate(trace: dict) -> dict:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Also returns ``check_s`` (inclusive seconds per check family) and the
    recorded counters.
    """
    names = trace["names"]
    name, parent, start, end = trace["name"], trace["parent"], trace["start"], trace["end"]
    n = len(name)
    child_ns = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_ns[parent[i]] += end[i] - start[i]
    per = {k: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for k in names}
    roots_s = 0.0
    energy_s = 0.0
    run_idx = names.index("cli.run_scenario") if "cli.run_scenario" in names else -2
    for i in range(n):
        dur = end[i] - start[i]
        rec = per[names[name[i]]]
        rec["calls"] += 1
        rec["total_s"] += dur * 1e-9
        rec["self_s"] += (dur - child_ns[i]) * 1e-9
        if parent[i] < 0:
            roots_s += dur * 1e-9
        elif names[name[i]] == "geometry.geodesic_integrate" and name[parent[i]] == run_idx:
            energy_s += dur * 1e-9
    check_s = {f: per.get(f"check.{f}", {"total_s": 0.0})["total_s"] for f in CHECK_FAMILIES}
    check_s["geodesic-energy"] = energy_s
    return {
        "spans": per,
        "check_s": check_s,
        "roots_s": roots_s,
        "self_sum_s": sum(r["self_s"] for r in per.values()),
        "svd_calls": trace["svd_calls"],
        "gate_evals": trace["gate_evals"],
        "gate_pairs": trace["gate_pairs"],
    }
