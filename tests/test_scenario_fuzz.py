"""Scenario fuzzer: one field of a bundled scenario changed at a time.

Every input must give exit code 0, 1 or 2 through ``cli.main``, with no
traceback and no numpy ``RuntimeWarning`` (CI runs with them as errors), and
two runs must print the same bytes.  No check passes with a NaN in its
residual or its details.  The changed field is the exponent f, a
map component, a metric entry (with its mirror), a phi entry, a number of
the geodesic or a domain bound.  Each input draws at most 8 samples and
takes at most 500 RK4 steps.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from riemsub import cli
from riemsub.presets import build_preset
from riemsub.scenario import bundled_scenario_names, resolve_scenario_path

SAMPLES = 8
STEPS = 250  # per geodesic before a change; a changed length reaches 500

NUMBERS = [0.0, 1e-8, 1e300, -1e300, -1.0, 0.5]
EXPRESSION_ATOMS = ["0", "1e-8", "1e300", "-1", "x1", "x2", "x3", "x4"]


def _explicit(name: str) -> dict:
    """Bundled scenario ``name`` with every preset written out as expression
    strings, its sample count cut to ``SAMPLES`` and its first geodesic
    alone, cut to ``STEPS`` steps."""
    doc = yaml.safe_load(resolve_scenario_path(name).read_text())
    dim = doc["source"]["dim"]
    for kind, holder in (("metric", doc["source"]), ("phi", doc), ("map", doc)):
        if isinstance(holder[kind], str):
            entries = build_preset(kind, holder[kind], dim)
            holder[kind] = np.array(entries, dtype=object).astype(str).tolist()
    doc["sampling"]["count"] = SAMPLES
    geodesic = doc["geodesics"][0]
    geodesic["length"] = min(geodesic["length"], STEPS * geodesic["step"])
    doc["geodesics"] = [geodesic]
    return doc


BASES = {name: _explicit(name) for name in bundled_scenario_names()}


def _expressions(original: str):
    base = st.sampled_from([original] + EXPRESSION_ATOMS)
    return st.one_of(
        base,
        st.tuples(base, st.sampled_from("+-*/"), base).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(["exp", "ln", "sqrt", "sin"]), base).map(lambda t: f"{t[0]}({t[1]})"),
    )


@st.composite
def mutated(draw):
    """(bundled name, the changed field, the scenario document)."""
    name = draw(st.sampled_from(sorted(BASES)))
    doc = yaml.safe_load(yaml.safe_dump(BASES[name]))
    dim = doc["source"]["dim"]
    field = draw(st.sampled_from(["f", "map", "metric", "phi", "geodesic", "domain"]))
    if field == "f":
        doc["clairaut"]["f"] = draw(_expressions(doc["clairaut"]["f"]))
    elif field == "map":
        i = draw(st.integers(0, len(doc["map"]) - 1))
        doc["map"][i] = draw(_expressions(doc["map"][i]))
    elif field in ("metric", "phi"):
        rows = doc["source"]["metric"] if field == "metric" else doc["phi"]
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        rows[i][j] = draw(_expressions(rows[i][j]))
        if field == "metric":
            rows[j][i] = rows[i][j]
    elif field == "geodesic":
        geodesic = doc["geodesics"][0]
        key = draw(st.sampled_from(["p0", "v0", "length", "step"]))
        if key in ("length", "step"):
            geodesic[key] = draw(st.sampled_from(NUMBERS))
        else:
            geodesic[key][draw(st.integers(0, dim - 1))] = draw(st.sampled_from(NUMBERS))
    else:
        interval = doc["source"]["domain"]["intervals"][draw(st.integers(0, dim - 1))]
        interval[draw(st.integers(0, 1))] = draw(st.sampled_from(NUMBERS))
    return name, field, doc


def _run(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``, with numpy
    RuntimeWarnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _holds_nan(value) -> bool:
    """Whether a machine-report value holds a NaN (written as "nan")."""
    if isinstance(value, dict):
        return any(map(_holds_nan, value.values()))
    if isinstance(value, list):
        return any(map(_holds_nan, value))
    return value == "nan"


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated(), st.sampled_from(["check", "geodesic"]))
def test_one_changed_field_exits_0_1_or_2_the_same_twice(scenario_file, case, command):
    name, field, doc = case
    scenario_file.write_text(yaml.safe_dump(doc))
    argv = [command, str(scenario_file)] + (["--format", "machine"] if command == "check" else [])
    first = _run(argv)
    assert first[0] in (0, 1, 2), (name, field, first)
    assert _run(argv) == first
    if command == "check" and first[0] != 2:
        for check in json.loads(first[1])["checks"]:
            if check["verdict"] == "pass":
                assert not _holds_nan([check["max_residual"], check["details"]]), (name, field, check)
