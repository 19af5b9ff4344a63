"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Checks that a corrupted report, a wrong exit code, a nondeterministic
report and a wrong trajectory are each counted as a failed operation; that
every workload prints every metric named in ``BENCHMARK.json`` with its
unit and a well-formed name; and that the self times of a traced operation
add up to no more than its wall time.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _one_op(workload: str, mode: str = "plain"):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        inp = run.op_input(workload, 0, 0, Path(tmp))
        op = run.run_op(mode, inp, Path(tmp), "op")
    return inp, op


def _failures(workload, inp, ops):
    run.judge(workload, {inp["key"]: inp}, ops)
    return [op["failure"] for op in ops]


def test_failure_accounting_check():
    inp, op = _one_op("warped-check")
    assert _failures("warped-check", inp, [dict(op)]) == [None]

    report = json.loads(op["stdout"])
    report["checks"][0]["verdict"] = "fail"
    corrupted = json.dumps(report).encode()
    truncated = op["stdout"][: len(op["stdout"]) // 2]
    for bad in (corrupted, truncated):
        bad_op = dict(op, stdout=bad, output=bad)
        assert _failures("warped-check", inp, [bad_op])[0] is not None

    assert _failures("warped-check", inp, [dict(op, exit=0)])[0].startswith("exit code")

    # Same verdicts, one residual digit changed: only the byte comparison
    # between the two runs of the input catches it.
    drift = op["stdout"].replace(b"e-11", b"e-12", 1)
    assert drift != op["stdout"]
    drift_op = dict(op, stdout=drift, output=drift)
    assert _failures("warped-check", inp, [dict(drift_op)]) == [None]
    both = _failures("warped-check", inp, [dict(op), dict(drift_op)])
    assert all(f and "differs between runs" in f for f in both)


def test_failure_accounting_geodesic():
    inp, op = _one_op("radius-geodesic")
    assert _failures("radius-geodesic", inp, [dict(op)]) == [None]
    summary, csv = op["output"].split(b"\0", 1)
    lines = csv.split(b"\n")
    cells = lines[100].split(b",")
    cells[1] = repr(float(cells[1]) + 1e-6).encode()
    lines[100] = b",".join(cells)
    bad = summary + b"\0" + b"\n".join(lines)
    assert "off the straight line" in _failures("radius-geodesic", inp, [dict(op, output=bad)])[0]
    bad = summary + b"\0" + b"\n".join(lines[:-10])
    assert "rows" in _failures("radius-geodesic", inp, [dict(op, output=bad)])[0]


def test_traced_self_time_within_wall():
    inp, op = _one_op("warped-check", "trace")
    agg = tracing.aggregate(op["meta"]["trace"])
    assert min(r["self_s"] for r in agg["spans"].values()) >= 0.0
    assert agg["self_sum_s"] <= op["wall_s"]
    assert abs(agg["self_sum_s"] - agg["roots_s"]) < 1e-6
    assert agg["spans"]["cli.main"]["calls"] == 1


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_workload_emits_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(NAME.match(n) for n in expected)
        for workload in run.WORKLOADS:
            result = _bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            if trace == 0:
                assert all(m["value"] != 0 for m in result["metrics"].values())


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
