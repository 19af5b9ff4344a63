"""Scenario files: a YAML schema describing one full verification setup.

A scenario names a source and target manifold (dimension, metric entries
or preset, sampling domain), an almost complex structure, the submersion
map, the Clairaut exponent, sampling and tolerance settings, and a list of
geodesic initial conditions.  Validation is strict: unknown keys are
rejected, and every error message carries the dotted path of the offending
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import yaml

from .clairaut import MAX_SAMPLES, ClairautScenario, SamplingConfig
from .expr import ExprError, parse
from .geometry import ExclusionTube, ManifoldSpec, SamplingDomain
from .hermitian import AlmostComplexField
from .presets import build_preset
from .report import Tolerances
from .submersion import SmoothMap


class ScenarioValidationError(Exception):
    pass


@dataclass(frozen=True)
class GeodesicConfig:
    p0: tuple
    v0: tuple
    length: float
    step: float = 1e-3


@dataclass
class ScenarioBundle:
    scenario: ClairautScenario
    geodesics: tuple
    path: str


def _err(path: str, message: str):
    raise ScenarioValidationError(f"{path}: {message}")


def _as_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _err(path, "expected a mapping")
    return value


def _check_keys(mapping: dict, path: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in mapping:
            _err(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in mapping:
        if key not in allowed:
            _err(f"{path}.{key}", "unknown key")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _err(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        _err(path, "expected a finite number")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _err(path, "expected an integer")
    return value


def _as_vector(value, dim: int, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != dim:
        _err(path, f"expected a list of {dim} numbers")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_expr(text, dim: int, path: str):
    if not isinstance(text, str):
        _err(path, "expected an expression string")
    try:
        return parse(text, dim)
    except ExprError as exc:
        _err(path, f"bad expression: {exc}")


def _load_domain(raw, dim: int, path: str) -> SamplingDomain:
    raw = _as_mapping(raw, path)
    _check_keys(raw, path, required=("intervals",), optional=("exclude",))
    intervals_raw = raw["intervals"]
    if not isinstance(intervals_raw, list) or len(intervals_raw) != dim:
        _err(f"{path}.intervals", f"expected {dim} [lo, hi] pairs")
    intervals = []
    for i, pair in enumerate(intervals_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            _err(f"{path}.intervals[{i}]", "expected [lo, hi]")
        lo = _as_number(pair[0], f"{path}.intervals[{i}][0]")
        hi = _as_number(pair[1], f"{path}.intervals[{i}][1]")
        if hi <= lo:
            _err(f"{path}.intervals[{i}]", "upper bound must exceed lower bound")
        intervals.append((lo, hi))
    tubes = []
    for i, tube_raw in enumerate(raw.get("exclude", []) or []):
        tpath = f"{path}.exclude[{i}]"
        tube_raw = _as_mapping(tube_raw, tpath)
        _check_keys(tube_raw, tpath, required=("expr", "radius"))
        tubes.append(
            ExclusionTube(
                _parse_expr(tube_raw["expr"], dim, f"{tpath}.expr"),
                _as_number(tube_raw["radius"], f"{tpath}.radius"),
            )
        )
    return SamplingDomain(tuple(intervals), tuple(tubes))


def _load_manifold(raw, path: str) -> ManifoldSpec:
    raw = _as_mapping(raw, path)
    _check_keys(raw, path, required=("dim", "metric", "domain"))
    dim = _as_int(raw["dim"], f"{path}.dim")
    if dim < 1:
        _err(f"{path}.dim", "must be positive")
    metric = _load_entries(raw["metric"], "metric", (dim, dim), dim, f"{path}.metric")
    domain = _load_domain(raw["domain"], dim, f"{path}.domain")
    return ManifoldSpec(dim, metric, domain)


def _load_entries(raw, kind: str, shape: tuple, dim: int, path: str):
    """Expression entries of a metric, phi or map: the ``kind`` preset named
    by ``raw``, or ``raw`` parsed as an n x n matrix (``shape`` (n, n)) or a
    list (``shape`` (n,)) of expressions over ``x1..x<dim>``."""
    matrix = len(shape) == 2
    if isinstance(raw, str):
        try:
            return build_preset(kind, raw, dim)
        except ValueError as exc:
            _err(path, str(exc))
    if not isinstance(raw, list):
        _err(path, f"expected a preset name or a {'matrix' if matrix else 'list'} of strings")
    if not matrix:
        if len(raw) != shape[0]:
            _err(path, f"expected {shape[0]} component expressions")
        return [_parse_expr(e, dim, f"{path}[{i}]") for i, e in enumerate(raw)]
    if len(raw) != shape[0] or any(not isinstance(r, list) or len(r) != shape[1] for r in raw):
        _err(path, f"expected a {shape[0]}x{shape[1]} matrix of strings")
    return [
        [_parse_expr(e, dim, f"{path}[{i}][{j}]") for j, e in enumerate(row)]
        for i, row in enumerate(raw)
    ]


def _load_map(raw, source: ManifoldSpec, target: ManifoldSpec, path: str) -> SmoothMap:
    components = _load_entries(raw, "map", (target.dim,), source.dim, path)
    if len(components) != target.dim:  # only a preset can disagree
        _err(path, f"preset has {len(components)} components, target dim is {target.dim}")
    return SmoothMap(source, target, tuple(components))


def load_scenario(path) -> ScenarioBundle:
    """Load and validate a scenario file into a ready-to-run bundle."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ScenarioValidationError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioValidationError(f"{path}: not valid YAML: {exc}") from None
    return build_scenario(raw, str(path))


def build_scenario(raw, origin: str = "<memory>") -> ScenarioBundle:
    raw = _as_mapping(raw, "scenario")
    _check_keys(
        raw,
        "scenario",
        required=("source", "target", "phi", "map", "clairaut"),
        optional=("name", "sampling", "geodesics", "tolerances"),
    )
    source = _load_manifold(raw["source"], "source")
    target = _load_manifold(raw["target"], "target")
    if target.dim >= source.dim:
        _err("target.dim", "must be smaller than source.dim")
    phi = AlmostComplexField(
        _load_entries(raw["phi"], "phi", (source.dim, source.dim), source.dim, "phi")
    )
    smap = _load_map(raw["map"], source, target, "map")

    clairaut_raw = _as_mapping(raw["clairaut"], "clairaut")
    _check_keys(clairaut_raw, "clairaut", required=("f",))
    f = _parse_expr(clairaut_raw["f"], source.dim, "clairaut.f")

    sampling = SamplingConfig()
    if "sampling" in raw:
        s_raw = _as_mapping(raw["sampling"], "sampling")
        _check_keys(s_raw, "sampling", required=(), optional=("count", "seed"))
        sampling = SamplingConfig(
            count=_as_int(s_raw.get("count", sampling.count), "sampling.count"),
            seed=_as_int(s_raw.get("seed", sampling.seed), "sampling.seed"),
        )
        if not 1 <= sampling.count <= MAX_SAMPLES:
            _err("sampling.count", f"must be between 1 and {MAX_SAMPLES}")
        if sampling.seed < 0:
            _err("sampling.seed", "must be nonnegative")

    tolerances = Tolerances()
    if "tolerances" in raw:
        t_raw = _as_mapping(raw["tolerances"], "tolerances")
        _check_keys(t_raw, "tolerances", required=(), optional=("algebraic", "fd", "drift"))
        values = {}
        for key in ("algebraic", "fd", "drift"):
            value = _as_number(t_raw.get(key, getattr(tolerances, key)), f"tolerances.{key}")
            if value <= 0:
                _err(f"tolerances.{key}", "must be positive")
            values[key] = value
        tolerances = Tolerances(**values)

    geodesics = []
    for i, g_raw in enumerate(raw.get("geodesics", []) or []):
        gpath = f"geodesics[{i}]"
        g_raw = _as_mapping(g_raw, gpath)
        _check_keys(g_raw, gpath, required=("p0", "v0", "length"), optional=("step",))
        step = _as_number(g_raw.get("step", GeodesicConfig.step), f"{gpath}.step")
        if step <= 0:
            _err(f"{gpath}.step", "must be positive")
        geodesics.append(
            GeodesicConfig(
                p0=_as_vector(g_raw["p0"], source.dim, f"{gpath}.p0"),
                v0=_as_vector(g_raw["v0"], source.dim, f"{gpath}.v0"),
                length=_as_number(g_raw["length"], f"{gpath}.length"),
                step=step,
            )
        )

    name = raw.get("name", Path(origin).stem)
    if not isinstance(name, str):
        _err("name", "expected a string")

    scenario = ClairautScenario(
        name=name, J=phi, F=smap, f=f, tolerances=tolerances, sampling=sampling
    )
    return ScenarioBundle(scenario=scenario, geodesics=tuple(geodesics), path=origin)


def bundled_scenario_names() -> list:
    files = resources.files("riemsub") / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in files.iterdir() if p.name.endswith(".yaml"))


def bundled_scenario_path(name: str) -> Path:
    candidate = resources.files("riemsub") / "scenarios" / f"{name}.yaml"
    with resources.as_file(candidate) as concrete:
        if not concrete.exists():
            raise ScenarioValidationError(f"no bundled scenario named {name!r}")
        return concrete


def resolve_scenario_path(spec: str) -> Path:
    """Interpret ``spec`` as a file path, else as a bundled scenario name."""
    p = Path(spec)
    if p.exists():
        return p
    try:
        return bundled_scenario_path(spec)
    except ScenarioValidationError:
        raise ScenarioValidationError(
            f"{spec!r} is neither a file nor a bundled scenario "
            f"(bundled: {', '.join(bundled_scenario_names())})"
        ) from None
