import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import riemsub
from riemsub import clairaut, cli, geometry, state, submersion
from riemsub.cli import CHECKS, main, run_scenario
from riemsub.scenario import (
    ScenarioValidationError,
    bundled_scenario_names,
    load_scenario,
    resolve_scenario_path,
)

MINIMAL = {
    "name": "mini",
    "source": {
        "dim": 4,
        "metric": "euclidean-r4",
        "domain": {"intervals": [[-2.0, 2.0]] * 4},
    },
    "target": {
        "dim": 3,
        "metric": "euclidean",
        "domain": {"intervals": [[-10.0, 10.0]] * 3},
    },
    "phi": "canonical-phi",
    "map": "map-example-i",
    "clairaut": {"f": "0"},
    "sampling": {"count": 10, "seed": 1},
}

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_WARPED_FILE = os.path.join(_ROOT, "perfbench", "scenarios", "warped-product.yaml")
with open(_WARPED_FILE) as _fh:
    _WARPED = yaml.safe_load(_fh)
with open(resolve_scenario_path("example-ii")) as _fh:
    _EXAMPLE_II = yaml.safe_load(_fh)
with open(resolve_scenario_path("h2xh2")) as _fh:
    _H2XH2 = yaml.safe_load(_fh)


def _write(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    assert "example-i" in names
    assert "example-ii" in names
    assert "h2xh2" in names
    assert "h2xh2-wrong-exponent" in names


def test_load_bundled_example_ii():
    bundle = load_scenario(resolve_scenario_path("example-ii"))
    sc = bundle.scenario
    assert sc.name == "example-ii"
    assert sc.M.dim == 4
    assert sc.N.dim == 3
    assert len(bundle.geodesics) == 5
    assert sc.M.domain.tubes[0].radius == 0.1


def test_unknown_key_rejected(tmp_path):
    doc = dict(MINIMAL)
    doc["surprise"] = 1
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "surprise" in str(err.value)


def test_nested_unknown_key_has_path(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    doc["sampling"]["weird"] = True
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "sampling.weird" in str(err.value)


def test_bad_expression_reports_field(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    doc["clairaut"]["f"] = "ln(x1 +"
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "clairaut.f" in str(err.value)


def test_missing_required_key(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    del doc["map"]
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "map" in str(err.value)


def test_explicit_matrix_metric(tmp_path):
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    doc["source"]["metric"] = [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ]
    bundle = load_scenario(_write(tmp_path, doc))
    assert bundle.scenario.M.is_flat_constant


def test_run_scenario_mini_passes(tmp_path):
    report = run_scenario(_write(tmp_path, MINIMAL))
    assert report.overall == "pass"
    names = [c.name for c in report.checks]
    assert names[0] == "structure"
    assert "bishop-clairaut" in names


def test_cli_check_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out

    bad = yaml.safe_load(yaml.safe_dump(MINIMAL))
    bad["clairaut"]["f"] = "x3"  # breaks nothing for example-i (T = 0, grad f != 0)
    bad["map"] = "map-example-ii"
    bad["source"]["domain"]["exclude"] = [
        {"expr": "sqrt(x1^2 + x2^2)", "radius": 0.1}
    ]
    bad_path = _write(tmp_path, bad, "bad.yaml")
    assert main(["check", str(bad_path)]) == 1

    assert main(["check", str(tmp_path / "missing.yaml")]) == 2


def test_cli_overflow_exits_2_without_traceback(tmp_path):
    doc = yaml.safe_load(resolve_scenario_path("example-ii").read_text())
    doc["clairaut"]["f"] = "exp(1000 * x1)"
    doc["sampling"]["count"] = 10
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemsub.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "riemsub", "check", str(_write(tmp_path, doc))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert "DomainError" in proc.stderr and "overflows" in proc.stderr


def test_non_finite_residual_fails_without_warning(tmp_path):
    # A phi entry of 1e300 on a curved metric makes inf - inf inside
    # pq-identities: the check fails with the reason, and no numpy
    # RuntimeWarning escapes.
    doc = yaml.safe_load(yaml.safe_dump(_H2XH2))
    doc["phi"] = [["0", "1e300", "0", "0"], ["-1", "0", "0", "0"],
                  ["0", "0", "0", "1"], ["0", "0", "-1", "0"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemsub.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "riemsub", "check",
         str(_write(tmp_path, doc)), "--format", "machine"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    pq = checks["pq-identities"]
    assert pq["max_residual"] == "nan" and pq["verdict"] == "fail"
    assert pq["details"]["reason"] == "non-finite residual"
    assert checks["structure"]["details"]["reason"] == "non-finite residual"


def _with(doc, **changes):
    out = yaml.safe_load(yaml.safe_dump(doc))
    out.update(changes)
    return out


_GEODESIC = {"p0": [0.5, 0.4, 0.3, 0.2], "v0": [0.0, 1.0, 0.0, 0.0], "length": 0.5}
_THRESHOLD_V0 = [5.844416210671739e-13, 6.110858467135888e-13, -4.427439595952497e-13, -2.982949308195329e-13]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        # Fewer than 5 samples leave no interior window for the curve checks.
        pytest.param(
            ["check"], _with(MINIMAL, geodesics=[dict(_GEODESIC, length=0.002, step=0.001)]),
            "geodesics[0]", id="short-geodesic",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, geodesics=[dict(_GEODESIC, length=float("inf"))]),
            "geodesics[0].length", id="infinite-length",
        ),
        pytest.param(
            ["geodesic", "--length", "inf"], _with(MINIMAL, geodesics=[_GEODESIC]),
            "finite number of steps", id="geodesic-infinite-length",
        ),
        pytest.param(
            ["geodesic", "--length", "1e300", "--step", "1e-10"],
            _with(MINIMAL, geodesics=[_GEODESIC]),
            "finite number of steps", id="geodesic-step-count-overflow",
        ),
        # Finite, but 10^20 steps: refused before the first one.
        pytest.param(
            ["geodesic", "--length", "1e-300", "--step", "1e-320"],
            _with(MINIMAL, geodesics=[_GEODESIC]),
            "steps, more than 1000000", id="geodesic-step-count-over-cap",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, clairaut={"f": "x1^2^2000"}),
            "clairaut.f", id="exponent-overflow",
        ),
        pytest.param(
            ["check", "--tolerance-scale", "inf"], MINIMAL,
            "--tolerance-scale", id="infinite-tolerance-scale",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, tolerances={"fd": float("inf")}),
            "tolerances.fd", id="infinite-tolerance",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, tolerances={"drift": 0.0}),
            "tolerances.drift", id="zero-tolerance",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, tolerances={"fd": 10**400}),
            "tolerances.fd", id="integer-beyond-float-range",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, clairaut={"f": "sin(x1 * 1e400)"}),
            "of an infinite value", id="sine-of-infinity",
        ),
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=inf,0,0,0", "--length", "0.01"], MINIMAL,
            "--v0: expected finite numbers", id="geodesic-infinite-v0",
        ),
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=nan,0,0,0", "--length", "0.01"], MINIMAL,
            "--v0: expected finite numbers", id="geodesic-nan-v0",
        ),
        # A zero initial velocity leaves the Clairaut angle undefined.
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=0,0,0,0"], MINIMAL,
            "--v0: must be nonzero", id="geodesic-zero-v0",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, geodesics=[dict(_GEODESIC, v0=[0, 0, 0, 0])]),
            "geodesics[0].v0: must be nonzero", id="zero-v0",
        ),
        # Below the regularity threshold the same rule applies.
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=1e-13,0,0,0", "--length", "0.01"], MINIMAL,
            "--v0: must be nonzero", id="geodesic-tiny-v0",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, geodesics=[dict(_GEODESIC, v0=[1.0e-13, 0, 0, 0])]),
            "geodesics[0].v0: must be nonzero", id="tiny-v0",
        ),
        # At the threshold the start test reads the speed with the arithmetic
        # of the series along the curve: 9.999999999999998e-13 here, where a
        # matrix product reads 1e-12.
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=" + ",".join(map(repr, _THRESHOLD_V0))], _EXAMPLE_II,
            "--v0: must be nonzero, with metric speed at least 1e-12 at p0", id="geodesic-threshold-v0",
        ),
        pytest.param(
            ["check"], _with(_EXAMPLE_II, geodesics=[dict(_EXAMPLE_II["geodesics"][0], v0=_THRESHOLD_V0)]),
            "geodesics[0].v0: must be nonzero, with metric speed at least 1e-12 at p0", id="threshold-v0",
        ),
        # A speed that overflows leaves no direction either, and no energy.
        pytest.param(
            ["geodesic", "--p0=1,0,0,0", "--v0=1e200,0,0,0"], MINIMAL,
            "--v0: metric speed at p0 must be finite", id="geodesic-overflowing-v0",
        ),
        # A start outside the domain is named as such, whatever its speed.
        pytest.param(
            ["geodesic", "--p0=1e308,0,0,0", "--v0=1e308,0,0,0"], MINIMAL,
            "outside sampling domain", id="geodesic-overflowing-p0-v0",
        ),
        pytest.param(
            ["geodesic", "--p0=1e308,0,0,0", "--v0=1,0,0,0"], _WARPED,
            "outside sampling domain", id="geodesic-far-p0-overflowing-metric",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, geodesics=[dict(_GEODESIC, v0=[1.0e200, 0, 0, 0])]),
            "geodesics[0].v0: metric speed at p0 must be finite", id="overflowing-v0",
        ),
        # e^f overflows along the curve, so there is no Clairaut invariant.
        pytest.param(
            ["check"], _with(_H2XH2, clairaut={"f": "x4 + 1e300"}),
            "DomainError: exponential overflows in exp(x4 + 1e+300)", id="overflowing-exp-f",
        ),
        pytest.param(
            ["geodesic"], _with(_H2XH2, clairaut={"f": "x4 + 1e300"}),
            "DomainError: exponential overflows in exp(x4 + 1e+300)", id="geodesic-overflowing-exp-f",
        ),
        # numpy's seed sequence takes nonnegative integers only.
        pytest.param(
            ["check", "--seed", "-1"], MINIMAL,
            "--seed: must be nonnegative", id="negative-seed",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, sampling={"count": 10, "seed": -3}),
            "sampling.seed: must be nonnegative", id="negative-sampling-seed",
        ),
        # Counts over the cap are refused before any sample is drawn.
        pytest.param(
            ["check", "--samples", "100000000000000000000"], MINIMAL,
            "--samples must be between 1 and 100000", id="samples-over-cap",
        ),
        pytest.param(
            ["check"], _with(MINIMAL, sampling={"count": 10**20}),
            "sampling.count: must be between 1 and 100000", id="sampling-count-over-cap",
        ),
        # Output files under a directory that does not exist ({missing}).
        pytest.param(
            ["check", "--report", "{missing}/r.json"], MINIMAL,
            "--report: cannot write", id="unwritable-report",
        ),
        pytest.param(
            ["geodesic", "--out", "{missing}/g.csv"], _with(MINIMAL, geodesics=[_GEODESIC]),
            "--out: cannot write", id="unwritable-out",
        ),
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, command, doc, message):
    missing = str(tmp_path / "missing")
    argv = [command[0], str(_write(tmp_path, doc))] + [a.replace("{missing}", missing) for a in command[1:]]
    proc = _run_cli(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


def _run_cli(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemsub.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", "import sys; from riemsub.cli import main; sys.exit(main())", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_unreadable_scenario_exits_2_without_traceback(tmp_path):
    undecodable = tmp_path / "latin1.yaml"
    undecodable.write_bytes(yaml.safe_dump(MINIMAL).replace("mini", "mini\xe9").encode("latin-1"))
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("name: [unclosed\nsource: 1\n")
    cases = [
        (tmp_path, "cannot read scenario file"),
        (undecodable, "not valid YAML at offset 48: invalid continuation byte"),
        (malformed, "not valid YAML at line 2, column 7: expected ',' or ']'"),
    ]
    for path, message in cases:
        proc = _run_cli(["check", str(path)])
        assert proc.returncode == 2
        # One line: no traceback and no YAML mark snippet.
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and str(path) in line and message in line


def test_far_start_fails_integration_not_input(tmp_path):
    # The metric overflows at this p0, outside the domain; the verdict names
    # the domain, as it does for a start just outside it.
    far = dict(_WARPED["geodesics"][0], p0=[1.0e308, 0.2, -0.1, 0.3])
    path = _write(tmp_path, _with(_WARPED, geodesics=[far]))
    report = run_scenario(path, samples=5)
    failed = [c for c in report.checks if c.name.startswith("geodesic-")]
    assert [c.name for c in failed] == ["geodesic-0-integration"]
    assert failed[0].verdict == "fail"
    assert "outside sampling domain" in failed[0].details["error"]
    assert main(["check", str(path), "--samples", "5"]) == 1


_OUTSIDE = "scenario is outside the anti-invariant nearly-parallel setting"
_IDENTITY_PHI = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
_SMALL_II = {
    "name": "small-ii",
    "source": {
        "dim": 4,
        "metric": "euclidean-r4",
        "domain": {
            "intervals": [[-4.0, 4.0]] * 4,
            "exclude": [{"expr": "sqrt(x1^2 + x2^2)", "radius": 0.1}],
        },
    },
    "target": {"dim": 3, "metric": "euclidean", "domain": {"intervals": [[-10.0, 10.0]] * 3}},
    "phi": "canonical-phi",
    "map": "map-example-ii",
    "clairaut": {"f": "ln(sqrt(x1^2 + x2^2))"},
    "sampling": {"count": 5, "seed": 3},
}
_LINE = {"p0": [1.0, 0.2, 0.1, -0.2], "v0": [0.1, 0.8, 0.3, 0.2], "length": 0.2}


@pytest.mark.parametrize(
    "doc, expected, omitted",
    [
        # phi = I squares to +I: everything resting on the structure skips.
        pytest.param(
            _with(MINIMAL, phi=_IDENTITY_PHI, geodesics=[_GEODESIC]),
            {
                "structure": ("fail", None),
                "nearly-kaehler": ("skip", "structure check failed"),
                "aq-gradient-identity": ("skip", _OUTSIDE),
                "dichotomies": ("skip", _OUTSIDE),
                "geodesic-0-conditions": ("skip", _OUTSIDE),
                "geodesic-0-clairaut-condition": ("skip", _OUTSIDE),
            },
            ["geodesic-0-pq-curve"], id="structure-failure",
        ),
        # A non-parallel structure: pq-curve is left out, not skipped.
        pytest.param(
            _with(MINIMAL, phi="twisted-phi", geodesics=[_GEODESIC]),
            {
                "structure": ("pass", None),
                "nearly-kaehler": ("fail", None),
                "geodesic-0-conditions": ("skip", _OUTSIDE),
                "geodesic-0-invariant": ("pass", None),
            },
            ["geodesic-0-pq-curve"], id="pq-curve-omitted",
        ),
        # The wrong sign of f: the fibers' mean curvature is -grad(ln r).
        pytest.param(
            _with(_SMALL_II, clairaut={"f": "-ln(sqrt(x1^2 + x2^2))"}, geodesics=[_LINE]),
            {
                "bishop-clairaut": ("fail", None),
                "aq-gradient-identity": ("skip", "umbilicity criterion failed"),
                "dichotomies": ("skip", "umbilicity criterion failed"),
                "geodesic-0-conditions": ("pass", None),
                "geodesic-0-pq-curve": ("pass", None),
                "geodesic-0-clairaut-condition": ("skip", "umbilicity criterion failed"),
            },
            [], id="umbilicity-failure",
        ),
        # A coarse step leaves the five-point stencil far from the curve.
        pytest.param(
            _with(_SMALL_II, geodesics=[dict(_LINE, length=2.0, step=0.25)]),
            {
                "bishop-clairaut": ("pass", None),
                "geodesic-0-conditions": ("fail", None),
                "geodesic-0-clairaut-condition": ("skip", "curve failed the geodesic gate"),
            },
            [], id="geodesic-gate",
        ),
        # The first curve leaves the box; the second still runs every check.
        pytest.param(
            _with(MINIMAL, geodesics=[
                dict(_GEODESIC, p0=[1.5, 0.0, 0.0, 0.0], v0=[1.0, 0.0, 0.0, 0.0], length=1.0),
                _GEODESIC,
            ]),
            {
                "geodesic-0-integration": ("fail", None),
                "geodesic-1-clairaut-condition": ("pass", None),
            },
            ["geodesic-0-energy", "geodesic-0-conditions", "geodesic-0-invariant"],
            id="integration-failure",
        ),
    ],
)
def test_skip_paths(tmp_path, doc, expected, omitted):
    report = run_scenario(_write(tmp_path, doc))
    checks = {c.name: c for c in report.checks}
    for name, (verdict, reason) in expected.items():
        assert checks[name].verdict == verdict, name
        assert checks[name].details.get("reason") == reason, name
    assert not set(omitted) & set(checks)
    assert report.overall == "fail"
    if "geodesic-0-integration" in checks:
        failed = checks["geodesic-0-integration"]
        assert failed.ref == "-" and failed.max_residual == float("inf")
        assert "left the sampling domain" in failed.details["error"]


def test_step_count_over_the_cap_fails_integration(tmp_path, monkeypatch):
    # 500 steps against a cap of 100: the curve is refused before the loop.
    monkeypatch.setattr(geometry, "MAX_STEPS", 100)
    report = run_scenario(_write(tmp_path, _with(MINIMAL, geodesics=[_GEODESIC])))
    checks = {c.name: c for c in report.checks if c.name.startswith("geodesic-")}
    assert list(checks) == ["geodesic-0-integration"]
    assert checks["geodesic-0-integration"].verdict == "fail"
    assert "500 steps, more than 100" in checks["geodesic-0-integration"].details["error"]



_MIXED = os.path.join(_ROOT, "tests", "fixtures", "mixed-geodesics.yaml")


def _record_integrations(monkeypatch, events):
    """Log each stacked ``geodesic_integrate`` call of ``run_scenario`` as
    ``("integrate", start points, samples held)`` and each invariant check
    as ``("check", start point)``."""
    integrate, invariant = cli.geodesic_integrate, cli.clairaut_invariant

    def logged_integrate(M, p0, v0, length, step):
        results = integrate(M, p0, v0, length, step)
        held = sum(len(r.trajectory if isinstance(r, geometry.DomainExitError) else r)
                   for r in results if not isinstance(r, ValueError))
        events.append(("integrate", [tuple(p) for p in p0], held))
        return results

    def logged_invariant(sc, traj):
        events.append(("check", tuple(traj.points[0])))
        return invariant(sc, traj)

    monkeypatch.setattr(cli, "geodesic_integrate", logged_integrate)
    monkeypatch.setattr(cli, "clairaut_invariant", logged_invariant)


def test_stacked_geodesics_report_as_curve_by_curve(monkeypatch):
    # Steps 0.001, 0.001, 0.002, 0.002, 0.001: three stacks, one of them
    # with an exiting curve and one with a start outside the domain.
    bundle = load_scenario(_MIXED)
    assert cli._geodesic_stacks(bundle.geodesics) == [[0, 1], [2, 3], [4]]
    events = []
    _record_integrations(monkeypatch, events)
    stacked = run_scenario(_MIXED)
    assert [len(e[1]) for e in events if e[0] == "integrate"] == [2, 2, 1]
    errors = {c.name: c.details["error"] for c in stacked.checks if c.name.endswith("-integration")}
    assert list(errors) == ["geodesic-1-integration", "geodesic-3-integration"]
    assert errors["geodesic-1-integration"].startswith("trajectory left the sampling domain at s=0.101,")
    assert errors["geodesic-3-integration"] == "initial point [0.05, 0.0, 0.0, 0.0] outside sampling domain"
    monkeypatch.setattr(cli, "_geodesic_stacks", lambda geodesics: [[i] for i in range(len(geodesics))])
    assert run_scenario(_MIXED).to_json() == stacked.to_json()


@pytest.mark.parametrize(
    "scenario, cap, stacks",
    # example-ii: five 2,001-sample curves, two to a stack under a cap of
    # 4,501 samples.  The fixture: 501 + 501 samples do not fit in 601.
    [("example-ii", 4500, [[0, 1], [2, 3], [4]]), (_MIXED, 600, [[0], [1], [2, 3], [4]])],
)
def test_stacks_hold_at_most_max_steps_plus_one_samples(monkeypatch, scenario, cap, stacks):
    path = resolve_scenario_path(scenario)
    unsplit = run_scenario(path, samples=3).to_json()
    events = []
    _record_integrations(monkeypatch, events)
    monkeypatch.setattr(geometry, "MAX_STEPS", cap)
    monkeypatch.setattr(cli, "MAX_STEPS", cap)
    assert cli._geodesic_stacks(load_scenario(path).geodesics) == stacks
    assert run_scenario(path, samples=3).to_json() == unsplit
    integrations = [e for e in events if e[0] == "integrate"]
    assert [len(rows) for _, rows, _ in integrations] == [len(stack) for stack in stacks]
    assert all(held <= cap + 1 for _, _, held in integrations)
    # Each stack's curves are checked before the next stack is integrated.
    for kind, start, *_ in events:
        if kind == "integrate":
            stack = start
        else:
            assert start in stack


def test_metric_error_in_a_stack_keeps_curve_order(tmp_path, monkeypatch):
    # Geodesic 0 overflows x2^2 in its third RK4 stage; geodesic 1 meets a
    # singular metric in its second.  The two-row stack raises geodesic 1's
    # error first; curve-by-curve order, and so the run, raises geodesic 0's.
    doc = yaml.safe_load(resolve_scenario_path("h2xh2").read_text())
    doc["sampling"]["count"] = 5
    doc["geodesics"][0]["v0"] = [1.0e150, 1.0, 1.0, 1.0]
    doc["geodesics"][1]["v0"] = [1.0, 1.0e150, 1.0, 1.0]
    path = _write(tmp_path, doc)
    raised = []
    integrate = cli.geodesic_integrate

    def logged(M, p0, v0, length, step):
        try:
            return integrate(M, p0, v0, length, step)
        except Exception as exc:
            raised.append((len(p0), type(exc).__name__))
            raise

    monkeypatch.setattr(cli, "geodesic_integrate", logged)
    with pytest.raises(riemsub.expr.DomainError, match=r"power overflows in x2\^2\.0"):
        run_scenario(path)
    assert raised == [(2, "SingularMetricError"), (1, "DomainError")]
    proc = _run_cli(["check", str(path)])
    assert proc.returncode == 2
    assert proc.stderr == "error: DomainError: power overflows in x2^2.0\n"


def test_example_ii_integrates_its_five_curves_in_2000_stacked_steps(monkeypatch):
    # Four stages per step: 4 x 2,000 Christoffel evaluations for the five
    # stacked curves (curve by curve it was 4 x 10,000), and 7 for the
    # sample-point checks.
    calls = []
    original = geometry.christoffel

    def counted(M, point):
        calls.append(np.shape(point))
        return original(M, point)

    for module in (riemsub, geometry, state):
        monkeypatch.setattr(module, "christoffel", counted)
    run_scenario(resolve_scenario_path("example-ii"))
    assert len(calls) == 4 * 2000 + 7
    assert calls.count((5, 4)) == 4 * 2000


def test_warped_geodesic_takes_the_compiled_rate_at_every_stage(monkeypatch):
    # Four stages per step of the 1,000-step geodesic, each one compiled
    # rate evaluation and no Christoffel symbols.
    bundle = load_scenario(_WARPED_FILE)
    M = bundle.scenario.M
    rate, original = M._geodesic_rate, geometry.christoffel
    rows, calls = [], []

    class Counted:
        def values(self, point):
            rows.append(len(point))
            return rate.values(point)

    def counted(M, point):
        calls.append(np.shape(point))
        return original(M, point)

    monkeypatch.setattr(M, "_geodesic_rate", Counted())
    monkeypatch.setattr(geometry, "christoffel", counted)
    (g,) = bundle.geodesics
    traj = geometry.geodesic_integrate(M, g.p0, g.v0, g.length, g.step)
    assert len(traj) == 1001
    assert rows == [8] * 4 * 1000
    assert calls == []


def test_example_ii_evaluates_the_fiber_shape_tensor_once(monkeypatch):
    # fiber-character, bishop-clairaut, map-second-fundamental-form and
    # dichotomies read T on the vertical frame pairs of the one sample state.
    pair_calls = []
    original = state._oneill

    def counted(st, kind, e, fp, fjac=None):
        k = st.vertical.shape[1]
        if kind == "T" and np.shape(e)[1:] == (k, k, st.M.dim):
            pair_calls.append(len(st.points))
        return original(st, kind, e, fp, fjac)

    for module in (state, submersion, clairaut):
        monkeypatch.setattr(module, "_oneill", counted)
    run_scenario(resolve_scenario_path("example-ii"))
    assert pair_calls == [200]


@pytest.mark.parametrize(
    "scenario, builds",
    # example-ii: 10 windows for each of 5 geodesics, shared by the
    # geodesic-conditions and clairaut-condition checks.  The warped product
    # skips both, so it builds none.
    [("example-ii", 50), (_WARPED_FILE, 0)],
)
def test_each_curve_window_is_built_once(monkeypatch, scenario, builds):
    built = []
    original = cli.curve_windows

    def counted(sc, traj, indices):
        built.extend((traj.points[0].tobytes(), traj.velocities[0].tobytes(), i) for i in indices)
        return original(sc, traj, indices)

    monkeypatch.setattr(cli, "curve_windows", counted)
    run_scenario(resolve_scenario_path(scenario), samples=3)
    assert len(built) == builds
    assert len(set(built)) == builds


def test_each_sample_frame_is_built_once(monkeypatch):
    # example-ii, 200 samples: 200 base frames, 1,600 displaced frames for
    # the decomposition stencils (two directions, four offsets; the stencil
    # along the vertical vector is the base state's, which the basicness
    # test reads too), 250 for the 50 curve windows (five samples each) and
    # 10,005 for the invariant series of the five 2001-sample geodesics.
    # Each of those is one stacked build: one base state, two stencil
    # states, two window states and one series state per geodesic.
    built, drawn, in_series = [], [], []
    original_bases, original_points = state.vertical_bases, cli.sample_points
    original_series = clairaut.invariant_series

    def counted_bases(F, points, metric, jacobian):
        built.append((np.array(points), bool(in_series)))
        return original_bases(F, points, metric, jacobian)

    def recorded_points(*args):
        drawn.append(original_points(*args))
        return drawn[-1]

    def flagged_series(sc, traj):
        in_series.append(True)
        try:
            return original_series(sc, traj)
        finally:
            in_series.pop()

    monkeypatch.setattr(state, "vertical_bases", counted_bases)
    monkeypatch.setattr(cli, "sample_points", recorded_points)
    monkeypatch.setattr(clairaut, "invariant_series", flagged_series)
    run_scenario(resolve_scenario_path("example-ii"))
    assert len(built) == 18
    assert [len(p) for p, series in built if series] == [2001] * 5
    points = np.concatenate([p for p, _ in built])
    assert len(points) == 12055
    (samples,) = drawn
    assert len(samples) == 200
    for p in samples:
        assert (points == p).all(axis=1).sum() == 1


def test_readme_lists_every_check():
    with open(os.path.join(_ROOT, "README.md")) as fh:
        section = fh.read().split("## Checks", 1)[1].split("\n## ", 1)[0]
    for name, ref, _run, _requires in CHECKS:
        assert f"| `{name}` | `{ref}` |" in section, name


@pytest.mark.parametrize(
    "phi, message",
    [
        ("nope", "phi: unknown phi preset 'nope'"),
        ("canonical-phi", "phi: canonical-phi requires dim 4"),
    ],
)
def test_phi_preset_name_checked_before_dimension(tmp_path, phi, message):
    doc = _with(
        MINIMAL,
        source={"dim": 3, "metric": "euclidean", "domain": {"intervals": [[-2.0, 2.0]] * 3}},
        target={"dim": 2, "metric": "euclidean", "domain": {"intervals": [[-10.0, 10.0]] * 2}},
        phi=phi,
        map=["x1", "x2"],
    )
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert str(err.value) == message


def test_cli_validation_error_message(tmp_path, capsys):
    doc = yaml.safe_load(yaml.safe_dump(MINIMAL))
    doc["sampling"]["count"] = "many"
    assert main(["check", str(_write(tmp_path, doc))]) == 2
    assert "sampling.count" in capsys.readouterr().err


def test_cli_machine_report_and_file(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    report_path = tmp_path / "report.json"
    code = main(["check", str(path), "--format", "machine", "--report", str(report_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] == "pass"
    assert payload["checks"][0]["ref"] == "eq-ka1"
    assert json.loads(report_path.read_text()) == payload


def test_check_records_carry_ref_tags(tmp_path):
    report = run_scenario(_write(tmp_path, MINIMAL))
    refs = {c.name: c.ref for c in report.checks}
    assert refs["oneill-skew"] == "EQ2.14"
    assert refs["structure"] == "eq-ka1"
    assert refs["bishop-clairaut"] == "th-bis"


def test_cli_geodesic_writes_rows(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "geodesic",
            "example-ii",
            "--p0",
            "1,0,0,0",
            "--v0",
            "0,1,0,0",
            "--length",
            "2.0",
            "--step",
            "0.001",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "s", "x1", "x2", "x3", "x4", "v1", "v2", "v3", "v4", "sin_theta", "invariant",
    ]
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert len(data) == 2001
    assert abs(data[:, -1] - 1.0).max() < 1e-6  # invariant column constant 1
    assert abs(data[0, 1] - 1.0) < 1e-15


def test_cli_geodesic_horizontal_sin_theta_zero(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "geodesic",
            "example-ii",
            "--p0",
            "1,0,0.5,0",
            "--v0",
            "0.7071067811865476,0,0.7071067811865476,0",
            "--length",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    assert abs(data[:, -2]).max() < 1e-10


def test_cli_geodesic_rejects_excluded_start(capsys):
    code = main(
        ["geodesic", "example-ii", "--p0", "0,0,1,0", "--v0", "1,0,0,0", "--length", "1"]
    )
    assert code == 2
    assert "outside sampling domain" in capsys.readouterr().err


def test_cli_presets_catalog(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in (
        "euclidean-r4",
        "canonical-phi",
        "twisted-phi",
        "conformal-r2",
        "map-example-i",
        "map-example-ii",
    ):
        assert name in out


def test_run_scenario_overrides(tmp_path):
    path = _write(tmp_path, MINIMAL)
    report = run_scenario(path, seed=7, samples=25)
    assert report.seed == 7
    assert report.sample_count == 25
    assert report.checks[0].samples == 25


def test_tolerance_scale_wired_through(tmp_path):
    path = _write(tmp_path, MINIMAL)
    base = run_scenario(path)
    scaled = run_scenario(path, tolerance_scale=10.0)
    ref = {c.name: c.tolerance for c in base.checks}
    for c in scaled.checks:
        if c.verdict != "skip":
            assert c.tolerance == pytest.approx(10.0 * ref[c.name])


def test_bad_overrides_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL)
    with pytest.raises(ScenarioValidationError):
        run_scenario(path, samples=0)
    with pytest.raises(ScenarioValidationError):
        run_scenario(path, tolerance_scale=0.0)
    with pytest.raises(ScenarioValidationError):
        run_scenario(path, tolerance_scale=float("nan"))


def test_report_table_format(tmp_path):
    report = run_scenario(_write(tmp_path, MINIMAL))
    table = report.to_table()
    assert "overall: pass" in table
    assert "structure" in table
