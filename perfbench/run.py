"""Benchmark of the ``riemsub`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``riemsub`` from
``src/`` and needs nothing installed beyond numpy and PyYAML.  One client
sends one operation at a time (a closed loop).  Every operation is one
``riemsub`` command in a fresh interpreter, with BLAS limited to one thread.
The workload seed derives the command's inputs (``--seed`` for the check
workloads, ``--p0``/``--v0`` for the geodesic workload); each input is run
twice, so that the two reports can be compared byte for byte.

``--trace 0`` measures the end-to-end metrics with nothing traced.  The
speed of a shared machine drifts by tens of percent over minutes, so the
run also times ``reference.py``, fixed work that does not use ``riemsub``,
after every other child process, and reports times at a fixed machine speed: scaled
by ``REFERENCE_S`` over the median reference time of the run.
``--trace 1`` makes one run that counts expression-node evaluations, runs
the layer microbenchmarks, then alternates untraced and traced runs of the
same command, and reports the per-layer metrics.  Which metric
should move on which workload is written down in ``NOTES.md``.

Every operation is checked: exit code, the verdict of every check against
``scenarios/expected.json``, the trajectory against the exact straight line
of the flat metric, and byte-identical output for equal inputs.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXPECTED = json.loads((HERE / "scenarios" / "expected.json").read_text())
WARPED = "perfbench/scenarios/warped-product.yaml"
CHECK_SCENARIOS = {"radius-check": "example-ii", "warped-check": WARPED}
WORKLOADS = ("radius-check", "warped-check", "radius-geodesic")

# log10(tolerance / residual) for a zero residual, about the decades of
# double precision.
HEADROOM_CAP = 16.0
OP_TIMEOUT_S = 60.0
# A typical median time of one ``reference.py`` run on the machine the
# bounds were set on (2-vCPU Xeon virtual machine, Python 3.11, numpy 2.4).
REFERENCE_S = 0.23
# Flat metric: the geodesic is the straight line p0 + s v0 up to rounding.
LINE_ATOL = 1e-9

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("min_headroom_decades", "decades"),
    ("ok_ops_ratio", "ratio"),
)

SPAN_SELF = (
    "geometry.christoffel",
    "geometry.metric_derivs_at",
    "geometry.geodesic_integrate",
    "submersion.build_frame",
    "submersion.tensor_T",
    "submersion.tensor_A",
    "hermitian.nabla_phi",
    "clairaut.invariant_series",
    "cli.run_scenario",
    "cli.main",
)
SPAN_CALLS = (
    "geometry.christoffel",
    "geometry.metric_derivs_at",
    "submersion.build_frame",
    "submersion.tensor_T",
    "submersion.tensor_A",
    "hermitian.nabla_phi",
)
MICRO = (
    ("submersion.build_frame_us.uncached", "us"),
    ("geometry.christoffel_us.flat", "us"),
    ("geometry.christoffel_us.warped", "us"),
    ("submersion.tensor_T_us", "us"),
    ("geometry.rk4_step_us", "us"),
    ("expr.eval_us.sqrt-d3", "us"),
    ("expr.nodes.sqrt-d0", "count"),
    ("expr.nodes.sqrt-d1", "count"),
    ("expr.nodes.sqrt-d2", "count"),
    ("expr.nodes.sqrt-d3", "count"),
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {"scenario.load_scenario.s": "s", "report.to_json.s": "s"}
    units.update({f"{n}.calls": "count" for n in SPAN_CALLS})
    units.update({f"{n}.self_s": "s" for n in SPAN_SELF})
    units.update({
        "submersion.frame_cache_hit_ratio": "ratio",
        "submersion.svd_calls": "count",
        "clairaut.gate_eval_ratio": "ratio",
        "expr.node_evals": "count",
    })
    units.update(dict(MICRO))
    units.update({f"check.{f}.s": "s" for f in tracing.CHECK_FAMILIES})
    units["trace.overhead_s"] = "s"
    return units


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

def _geodesic_start(rng: random.Random):
    """Start point and unit direction whose straight line of the expected
    length stays inside the sampling box, away from the excluded axis, and
    has a vertical velocity component (so the invariant is not near zero)."""
    exp = EXPECTED["radius-geodesic"]
    length = exp["length"]
    while True:
        r, a = rng.uniform(1.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        p0 = [r * math.cos(a), r * math.sin(a), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(c * c for c in v))
        v0 = [c / norm for c in v]
        if abs(p0[0] * v0[1] - p0[1] * v0[0]) < 0.2:
            continue
        inside = True
        for k in range(301):
            x = [p + (length * k / 300) * d for p, d in zip(p0, v0)]
            if max(abs(c) for c in x) > 3.5 or math.hypot(x[0], x[1]) < 0.5:
                inside = False
                break
        if inside:
            return p0, v0


def op_input(workload: str, seed: int, k: int, workdir: Path) -> dict:
    """The ``k``-th command input of a run, derived from the workload seed."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload in CHECK_SCENARIOS:
        prog_seed = rng.randrange(1, 2**31 - 1)
        argv = ["check", CHECK_SCENARIOS[workload], "--seed", str(prog_seed), "--format", "machine"]
        return {"key": str(prog_seed), "argv": argv, "seed": prog_seed}
    p0, v0 = _geodesic_start(rng)
    exp = EXPECTED["radius-geodesic"]
    out = workdir / f"traj-{k}.csv"
    # "--p0=" form: a value may start with "-".
    argv = [
        "geodesic", "example-ii",
        "--p0=" + ",".join(repr(c) for c in p0),
        "--v0=" + ",".join(repr(c) for c in v0),
        "--length", repr(exp["length"]), "--step", repr(exp["step"]),
        "--out", str(out),
    ]
    return {"key": argv[2] + argv[3], "argv": argv, "p0": p0, "v0": v0, "out": out}


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_op(mode: str, inp: dict, workdir: Path, tag: str) -> dict:
    """Run one child process and collect its output and measurements."""
    meta_path = workdir / f"{tag}.json"
    out = inp.get("out")
    if mode == "reference":
        cmd = [sys.executable, str(HERE / "reference.py")]
    else:
        cmd = [sys.executable, str(HERE / "op.py"), mode, str(meta_path), *inp["argv"]]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=OP_TIMEOUT_S
        )
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        exit_code, stdout, stderr = None, b"", b"timed out"
    t1 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    meta_path.unlink(missing_ok=True)
    output = stdout
    if out is not None and mode != "setup":
        output += b"\0" + (out.read_bytes() if out.exists() else b"")
        out.unlink(missing_ok=True)
    loaded = meta.get("loaded_ns")
    return {
        "mode": mode,
        "key": inp.get("key"),
        "exit": exit_code,
        "stdout": stdout,
        "stderr": stderr,
        "output": output,
        "wall_s": (t1 - t0) * 1e-9,
        "setup_s": (loaded - t0) * 1e-9 if loaded is not None else None,
        "rss_mb": meta["maxrss_kb"] / 1024.0 if "maxrss_kb" in meta else None,
        "meta": meta,
    }


# --------------------------------------------------------------------------
# Correctness and failure accounting
# --------------------------------------------------------------------------

def _headroom(tolerance: float, residual: float) -> float:
    if residual <= 0.0:
        return HEADROOM_CAP
    return min(HEADROOM_CAP, math.log10(tolerance / residual))


def judge_check(workload: str, inp: dict, op: dict):
    """Failure reason (or None) and headroom of one check command."""
    exp = EXPECTED[workload]
    if op["exit"] != exp["exit_code"]:
        return f"exit code {op['exit']}, expected {exp['exit_code']}", None
    try:
        report = json.loads(op["stdout"])
        verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
        overall, seed, count = report["overall"], report["seed"], report["sample_count"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}", None
    if seed != inp["seed"] or count != exp["sample_count"]:
        return f"report is for seed {seed} with {count} samples", None
    if overall != exp["overall"]:
        return f"overall verdict {overall}, expected {exp['overall']}", None
    if verdicts != exp["verdicts"]:
        wrong = sorted(
            n for n in set(verdicts) | set(exp["verdicts"])
            if verdicts.get(n) != exp["verdicts"].get(n)
        )
        return f"verdicts differ from the expected table: {', '.join(wrong)}", None
    try:
        headroom = min(
            _headroom(float(c["tolerance"]), float(c["max_residual"]))
            for c in report["checks"] if exp["verdicts"][c["name"]] == "pass"
        )
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable residual: {exc}", None
    return None, headroom


def judge_geodesic(inp: dict, op: dict):
    """Failure reason (or None) and headroom of one geodesic command."""
    exp = EXPECTED["radius-geodesic"]
    if op["exit"] != exp["exit_code"]:
        return f"exit code {op['exit']}, expected {exp['exit_code']}", None
    try:
        summary, csv = op["output"].split(b"\0", 1)
        lines = summary.decode().splitlines()
        invariant_line = next(ln for ln in lines if ln.startswith("invariant:"))
        relative = float(invariant_line.rsplit("(relative", 1)[1].strip(" )"))
        rows = csv.decode().splitlines()[1:]
        table = [[float(c) for c in row.split(",")] for row in rows]
    except (ValueError, StopIteration, IndexError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}", None
    if any("left the sampling domain" in ln for ln in lines):
        return "trajectory left the sampling domain", None
    if len(table) != exp["rows"]:
        return f"{len(table)} trajectory rows, expected {exp['rows']}", None
    p0, v0 = inp["p0"], inp["v0"]
    inv0 = table[0][-1]
    tol = exp["drift_tolerance_per_unit_length"] * max(1.0, exp["length"])
    for row in table:
        s, x, v = row[0], row[1:5], row[5:9]
        if any(abs(xi - (pi + s * di)) > LINE_ATOL for xi, pi, di in zip(x, p0, v0)):
            return f"point at s={s} is off the straight line", None
        if any(abs(vi - di) > LINE_ATOL for vi, di in zip(v, v0)):
            return f"velocity at s={s} differs from v0", None
        if abs(row[-1] - inv0) > tol * abs(inv0):
            return f"invariant at s={s} drifted beyond tolerance", None
    if relative > tol:
        return f"relative invariant drift {relative} exceeds {tol}", None
    return None, _headroom(tol, relative)


def judge(workload: str, inputs: dict, ops: list) -> list:
    """Mark each operation with ``failure`` (a reason or None) and
    ``headroom``.  Setup probes, reference runs and microbenchmark runs
    only need to exit cleanly with their measurement; command runs are
    checked in full, and all command runs of one input must print the same
    bytes."""
    for op in ops:
        op["headroom"] = None
        if op["mode"] == "reference":
            ok = op["exit"] == 0
            op["failure"] = None if ok else f"reference run failed: {op['stderr'][-300:]!r}"
            continue
        if op["mode"] == "setup":
            ok = op["exit"] == 0 and op["setup_s"] is not None
            op["failure"] = None if ok else f"setup probe failed: {op['stderr'][-300:]!r}"
            continue
        if op["mode"] == "micro":
            ok = op["exit"] == 0 and "metrics" in op["meta"]
            op["failure"] = None if ok else f"microbenchmarks failed: {op['stderr'][-300:]!r}"
            continue
        inp = inputs[op["key"]]
        if workload in CHECK_SCENARIOS:
            op["failure"], op["headroom"] = judge_check(workload, inp, op)
        else:
            op["failure"], op["headroom"] = judge_geodesic(inp, op)
    by_key: dict = {}
    for op in ops:
        if op["mode"] in ("plain", "trace", "count"):
            by_key.setdefault(op["key"], []).append(op)
    for group in by_key.values():
        if len({op["output"] for op in group}) > 1:
            for op in group:
                op["failure"] = op["failure"] or "output differs between runs of the same input"
    return ops


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _spread(values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return f"median of n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1={q1:.6g} q3={q3:.6g}"


def end_to_end_metrics(ops: list) -> dict:
    plain = [op for op in ops if op["mode"] == "plain" and not op["failure"]]
    setups = [op["setup_s"] for op in ops if op["mode"] in ("plain", "setup") and not op["failure"]]
    refs = [op["wall_s"] for op in ops if op["mode"] == "reference" and not op["failure"]]
    ok = sum(1 for op in ops if not op["failure"])
    print(f"raw wall_s: {_median([op['wall_s'] for op in plain])} s, raw setup_s: "
          f"{_median(setups)} s, reference: {_median(refs)} s ({_spread(refs)})")
    scale = REFERENCE_S / _median(refs) if refs else 1.0
    values = {
        "wall_s": [op["wall_s"] * scale for op in plain],
        "setup_s": [s * scale for s in setups if s is not None],
        "peak_rss_mb": [op["rss_mb"] for op in plain],
        "min_headroom_decades": [op["headroom"] for op in plain],
    }
    out = {}
    for name, unit in END_TO_END:
        if name == "ok_ops_ratio":
            value, spread = ok / len(ops), f"{ok} of {len(ops)} operations"
        else:
            value, spread = _median(values[name]), _spread(values[name])
        print(f"{name}: {value} {unit} ({spread})")
        out[name] = {"value": value if value is not None else 0.0, "unit": unit}
    return out


def layer_metrics(agg: dict) -> dict:
    """Per-layer values of one traced operation."""
    spans = agg["spans"]

    def field(name, key):
        return spans.get(name, {}).get(key, 0.0)

    m = {
        "scenario.load_scenario.s": field("scenario.load_scenario", "total_s"),
        "report.to_json.s": field("report.to_json", "total_s"),
    }
    m.update({f"{n}.calls": field(n, "calls") for n in SPAN_CALLS})
    m.update({f"{n}.self_s": field(n, "self_s") for n in SPAN_SELF})
    frames = field("submersion.build_frame", "calls")
    built = agg["svd_calls"].get("submersion.build_frame", 0)
    m["submersion.frame_cache_hit_ratio"] = 1.0 - built / frames if frames else 0.0
    m["submersion.svd_calls"] = sum(agg["svd_calls"].values())
    pairs = agg["gate_pairs"]
    m["clairaut.gate_eval_ratio"] = agg["gate_evals"] / pairs if pairs else 0.0
    m.update({f"check.{f}.s": s for f, s in agg["check_s"].items()})
    return m


def per_layer_metrics(ops: list) -> dict:
    units = per_layer_units()
    good = [op for op in ops if not op["failure"]]
    traced = [layer_metrics(tracing.aggregate(op["meta"]["trace"])) for op in good if op["mode"] == "trace"]
    values = {name: _median([t[name] for t in traced]) for name in traced[0]} if traced else {}
    counts = [op["meta"]["node_evals"] for op in good if op["mode"] == "count"]
    values["expr.node_evals"] = _median(counts)
    micro = [op["meta"]["metrics"] for op in good if op["mode"] == "micro"]
    for name, _ in MICRO:
        values[name] = micro[0][name] if micro else None
    plain = _median([op["wall_s"] for op in good if op["mode"] == "plain"])
    traced_wall = _median([op["wall_s"] for op in good if op["mode"] == "trace"])
    values["trace.overhead_s"] = (
        traced_wall - plain if plain is not None and traced_wall is not None else None
    )
    print(f"traced wall {traced_wall} s, untraced wall {plain} s")
    out = {}
    for name, unit in units.items():
        value = values.get(name)
        out[name] = {"value": value if value is not None else 0.0, "unit": unit}
    return out


# --------------------------------------------------------------------------
# Main loop
# --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    start = time.monotonic()
    inputs: dict = {}
    ops: list = []

    def new_input(k):
        inp = op_input(workload, seed, k, workdir)
        inputs[inp["key"]] = inp
        return inp

    # Compiles bytecode and warms the file cache; not measured.
    run_op("setup", new_input(0), workdir, "warmup")
    if trace:
        ops.append(run_op("count", new_input(0), workdir, "count"))
        ops.append(run_op("micro", {"argv": []}, workdir, "micro"))
    # Rounds of two runs of one input; a round starts only if one more
    # round of the mean length so far ends within half a round of
    # ``seconds``, so that runs end at ``seconds`` on average.
    k = 0
    round_start = time.monotonic()
    while True:
        inp = new_input(k)
        if trace:
            ops.append(run_op("plain", inp, workdir, f"p{k}"))
            ops.append(run_op("trace", inp, workdir, f"t{k}"))
        else:
            for j in range(2):
                for mode in ("plain", "setup"):
                    ops.append(run_op(mode, inp, workdir, f"{mode}{k}.{j}"))
                    ops.append(run_op("reference", {"argv": []}, workdir, f"ref{k}.{j}"))
        k += 1
        now = time.monotonic()
        if now + 0.5 * (now - round_start) / k > start + seconds:
            break
    judge(workload, inputs, ops)
    for op in ops:
        if op["failure"]:
            print(f"FAILED {op['mode']} {op['key']}: {op['failure']}", file=sys.stderr)
    failed = sum(1 for op in ops if op["failure"])
    metrics = per_layer_metrics(ops) if trace else end_to_end_metrics(ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "riemsub" / "cli.py").is_file():
        print(f"error: no riemsub sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
