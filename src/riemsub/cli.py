"""Command-line entry point: scenario checking, geodesic integration,
and the preset catalog.

Subcommands::

    riemsub check <scenario> [--seed N] [--samples N] [--tolerance-scale X]
                             [--report PATH] [--format {human,machine}]
    riemsub geodesic <scenario> [--p0 ...] [--v0 ...] [--length L]
                                [--step H] [--out PATH]
    riemsub presets

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input or
validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from .clairaut import (
    MAX_SAMPLES,
    MIN_SPEED,
    ClairautScenario,
    NonGeodesicError,
    check_anti_invariant,
    check_bishop,
    check_clairaut_condition,
    check_dichotomies,
    check_geodesic_conditions,
    check_pq_identities,
    check_thm33_identity,
    clairaut_invariant,
    curve_windows,
    interior_indices,
    invariant_drift,
    invariant_series,
    pq_curve_residual,
)
from .expr import ExprError, blocks
from .geometry import (
    MAX_STEPS,
    DomainExitError,
    GeodesicTrajectory,
    GeometryError,
    geodesic_integrate,
    step_count,
)
from .hermitian import check_nearly_kaehler, check_structure
from .presets import PRESETS
from .report import FAIL, SKIP, CheckReport, ReportDocument, Tolerances
from .scenario import (
    GeodesicConfig,
    ScenarioValidationError,
    bundled_scenario_names,
    load_scenario,
    resolve_scenario_path,
)
from .state import SampleState
from .submersion import (
    SubmersionError,
    check_decompositions,
    check_sff_vertical,
    check_skew,
    check_submersion,
    fiber_character,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2
# What a shell reports for a command that SIGPIPE ended: 128 + 13.
EXIT_CLOSED_PIPE = 141


# Everything derived for anti-invariant submersions of a manifold with
# vanishing symmetrized structure derivative applies only when both hold;
# otherwise those checks are skipped, not failed.
OUTSIDE_SETTING = "scenario is outside the anti-invariant nearly-parallel setting"
_IN_SETTING = (("nearly-kaehler", OUTSIDE_SETTING), ("anti-invariance", OUTSIDE_SETTING))
_UMBILIC = _IN_SETTING + (("bishop-clairaut", "umbilicity criterion failed"),)


@dataclass
class _Run:
    """What a table entry's ``run`` reads: the scenario, its tolerances,
    probe generators and the state at the sample points (built once, shared
    by every entry), the reports so far by table name and, for ``geodesic-``
    entries, one trajectory and its interior indices, whose curve windows
    are built on first use and then shared."""

    sc: ClairautScenario
    tol: Tolerances
    rngs: list
    state: SampleState
    done: dict
    traj: GeodesicTrajectory | None = None
    indices: list | None = None

    @cached_property
    def windows(self):
        return curve_windows(self.sc, self.traj, self.indices)


def _nearly_kaehler(s: _Run) -> CheckReport:
    report = check_nearly_kaehler(s.sc.M, s.sc.J, s.state, tolerance=s.tol.algebraic, rng=s.rngs[2])
    # Per-sample series are diagnostics, too bulky for the report.
    del report.details["per_sample"], report.details["kaehler_per_sample"]
    return report


def _fiber_character(s: _Run) -> CheckReport:
    report = fiber_character(s.sc.F, s.state, tolerance=s.tol.fd)
    # Mean curvature vectors are per-sample diagnostics; keep the report flat.
    report.details["mean_curvature_first_sample"] = report.details.pop("mean_curvature")[0]
    return report


# The check table, in report order: (name, ref, run, requires).  ``run(s)``
# returns the report.  ``requires`` holds (check name, reason) pairs; the
# first whose check did not pass makes the entry a skip with that reason, or,
# when the reason is None, leaves the entry out of the report.  Entries named
# ``geodesic-<check>`` run once per trajectory and report as
# ``geodesic-<i>-<check>``; their requirements see that trajectory's reports.
# The lambdas look each check function up by name when they run, so a
# rebinding of that module-level name (a tracer's, say) reaches the call.
CHECKS = (
    ("structure", "eq-ka1", lambda s: check_structure(
        s.sc.M, s.sc.J, s.state, tolerance=s.tol.algebraic, rng=s.rngs[1]), ()),
    ("nearly-kaehler", "eq-ka2", _nearly_kaehler, (("structure", "structure check failed"),)),
    ("submersion-axioms", "def-submersion",
     lambda s: check_submersion(s.sc.F, s.state, tolerance=s.tol.algebraic), ()),
    ("oneill-skew", "EQ2.14",
     lambda s: check_skew(s.sc.F, s.state, tolerance=s.tol.algebraic, rng=s.rngs[3]), ()),
    ("oneill-decomposition", "EQ2.10-2.13",
     lambda s: check_decompositions(s.sc.F, s.state, tolerance=s.tol.algebraic), ()),
    ("map-second-fundamental-form", "EQ2.15",
     lambda s: check_sff_vertical(s.sc.F, s.state, tolerance=s.tol.fd), ()),
    ("anti-invariance", "def-anti-invariant", lambda s: check_anti_invariant(s.sc, s.state), ()),
    ("fiber-character", "eq-7", _fiber_character, ()),
    ("bishop-clairaut", "th-bis", lambda s: check_bishop(s.sc, s.state), ()),
    ("pq-identities", "eq-c2/c3/c5", lambda s: check_pq_identities(
        s.sc, s.state, rng=s.rngs[4], include_antisymmetry=s.done["nearly-kaehler"].passed), ()),
    ("aq-gradient-identity", "th2", lambda s: check_thm33_identity(s.sc, s.state), _UMBILIC),
    ("dichotomies", "th3", lambda s: check_dichotomies(s.sc, s.state), _UMBILIC),
    ("geodesic-energy", "-", lambda s: CheckReport.from_residual(
        "", "-", len(s.traj), s.traj.energy_drift, s.tol.algebraic * max(1.0, float(s.traj.s[-1])),
        {"length": float(s.traj.s[-1])}), ()),
    ("geodesic-conditions", "th1",
     lambda s: check_geodesic_conditions(s.sc, s.windows), _IN_SETTING),
    ("geodesic-pq-curve", "eq-c4", lambda s: CheckReport.from_residual(
        "", "eq-c4", len(s.indices), pq_curve_residual(s.sc, s.traj, s.indices), s.tol.algebraic,
    ), (("nearly-kaehler", None),)),
    ("geodesic-invariant", "def-clairaut", lambda s: clairaut_invariant(s.sc, s.traj), ()),
    ("geodesic-clairaut-condition", "eq-6", lambda s: check_clairaut_condition(s.sc, s.windows),
     _UMBILIC + (("geodesic-conditions", "curve failed the geodesic gate"),)),
)


def _run_checks(entries, s: _Run, label=str) -> list:
    """Reports of the table ``entries`` run in order on ``s``; ``label``
    turns a table name into the name the report carries."""
    reports = []
    for name, ref, run, requires in entries:
        unmet = [why for need, why in requires if not s.done[need].passed]
        if unmet and unmet[0] is None:
            continue
        report = CheckReport("", ref, 0, 0.0, 0.0, SKIP, {"reason": unmet[0]}) if unmet else run(s)
        report.name = label(name)
        s.done[name] = report
        reports.append(report)
    return reports


def _check_regular_start(M, cfg: GeodesicConfig, path: str) -> None:
    """Reject a trajectory whose metric speed at ``p0`` is not finite or is
    below ``MIN_SPEED``: the angle the Clairaut checks measure along it is
    undefined.  A ``p0`` outside the domain is left to the integrator, which
    names it."""
    if not M.domain.contains(cfg.p0):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        # The arithmetic invariant_series tests the curve's speeds with.
        speed = SampleState(np.atleast_2d(cfg.p0), M).norm(np.asarray(cfg.v0, dtype=float)[None])[0]
    if not math.isfinite(speed):
        raise ScenarioValidationError(f"{path}: metric speed at p0 must be finite")
    if speed < MIN_SPEED:
        raise ScenarioValidationError(
            f"{path}: must be nonzero, with metric speed at least {MIN_SPEED:g} at p0"
        )


def _geodesic_stacks(geodesics) -> list:
    """Indices of the geodesics in runs of consecutive equal ``step``, each
    integrated as one stack; a run is split so that a stack holds at most
    ``MAX_STEPS + 1`` samples."""
    stacks, held = [], 0
    for i, cfg in enumerate(geodesics):
        try:
            size = step_count(cfg.length, cfg.step) + 1
        except ValueError:
            size = 0  # the row fails before it holds a sample
        if stacks and cfg.step == geodesics[stacks[-1][-1]].step and held + size <= MAX_STEPS + 1:
            stacks[-1].append(i)
            held += size
        else:
            stacks.append([i])
            held = size
    return stacks


def _integrate(M, cfgs) -> list:
    """Each geodesic's trajectory, or the error that stands in for it:
    one stacked ``geodesic_integrate`` call for geodesics of one step."""
    return geodesic_integrate(M, [c.p0 for c in cfgs], [c.v0 for c in cfgs], [c.length for c in cfgs], cfgs[0].step)


def _curve_checks(run: _Run, i: int, result) -> list:
    """The ``geodesic-<i>-`` reports of one integration ``result``: a
    trajectory, or the error that stood in for it."""
    if isinstance(result, Exception):
        # No curve to check: one failed entry stands for its checks.
        return [CheckReport(
            f"geodesic-{i}-integration", "-", 0, float("inf"), 0.0, FAIL, {"error": str(result)}
        )]
    if len(result) < 5:
        raise ScenarioValidationError(
            f"geodesics[{i}]: {len(result)} samples, the curve checks need "
            "at least 5 (length / step >= 4)"
        )
    curve = replace(run, done=dict(run.done), traj=result, indices=interior_indices(result))
    label = f"geodesic-{i}-"
    per_curve = [e for e in CHECKS if e[0].startswith("geodesic-")]
    return _run_checks(per_curve, curve, lambda name: name.replace("geodesic-", label, 1))


def streams(seed: int) -> list:
    """The five generators of a run at ``seed``: stream 0 draws the sample
    points, streams 1 to 4 the probes of the checks that read random
    vectors.  Each is seeded with the string ``"<seed>/<k>"``, which
    ``random.Random`` hashes with SHA-512."""
    return [random.Random(f"{seed}/{k}") for k in range(5)]


def run_scenario(
    path,
    seed: int | None = None,
    samples: int | None = None,
    tolerance_scale: float = 1.0,
) -> ReportDocument:
    """Run ``CHECKS`` on a scenario file; the overall verdict passes only
    when every check that was not skipped passes."""
    bundle = load_scenario(path)
    sc = bundle.scenario
    if seed is not None and seed < 0:
        raise ScenarioValidationError("--seed: must be nonnegative")
    if samples is not None and not 1 <= samples <= MAX_SAMPLES:
        raise ScenarioValidationError(f"--samples must be between 1 and {MAX_SAMPLES}")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ScenarioValidationError("--tolerance-scale must be finite and positive")
    overrides = {"seed": seed, "count": samples}
    sc.sampling = replace(sc.sampling, **{k: v for k, v in overrides.items() if v is not None})
    sc.tolerances = tol = sc.tolerances.scaled(tolerance_scale)
    for key, value in asdict(tol).items():
        if not (math.isfinite(value) and value > 0.0):
            raise ScenarioValidationError(
                f"--tolerance-scale: scaled tolerances.{key} is {value!r}, must be finite and positive"
            )
    for i, cfg in enumerate(bundle.geodesics):
        _check_regular_start(sc.M, cfg, f"geodesics[{i}].v0")

    rngs = streams(sc.sampling.seed)
    pts = sc.M.domain.sample(rngs[0], sc.sampling.count)
    sc.M.validate(pts)
    run = _Run(sc, tol, rngs, SampleState(pts, sc.M, sc.F, sc.J, sc.f), {})
    # Every check reads the target metric at every mapped sample.
    sc.N.validate(run.state.map_points)

    checks = _run_checks([e for e in CHECKS if not e[0].startswith("geodesic-")], run)
    for stack in _geodesic_stacks(bundle.geodesics):
        cfgs = [bundle.geodesics[i] for i in stack]
        try:
            results = _integrate(sc.M, cfgs)
        except (ExprError, GeometryError):
            # Integrate one curve, then check it, so the first error is the
            # one curve-by-curve order raises.
            results = [None] * len(cfgs)
        for i, cfg, result in zip(stack, cfgs, results):
            checks += _curve_checks(run, i, _integrate(sc.M, [cfg])[0] if result is None else result)

    return ReportDocument(
        scenario=sc.name,
        path=str(path),
        seed=sc.sampling.seed,
        sample_count=sc.sampling.count,
        tolerance_scale=tolerance_scale,
        checks=checks,
    )


def _cmd_check(args) -> int:
    path = resolve_scenario_path(args.scenario)
    report = run_scenario(path, args.seed, args.samples, args.tolerance_scale)
    sys.stdout.write(report.to_json() if args.format == "machine" else report.to_table())
    if args.report:
        _write_file(args.report, [report.to_json()], "--report")
    return EXIT_PASS if report.overall == "pass" else EXIT_FAIL


def _write_file(path: str, chunks, option: str) -> None:
    """Write the strings ``chunks`` to ``path``, one after another."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ScenarioValidationError(f"{option}: cannot write {path}: {exc.strerror}") from None


def _parse_tuple(text: str, dim: int, label: str):
    parts = [t for t in text.replace(",", " ").split() if t]
    if len(parts) != dim:
        raise ScenarioValidationError(f"{label}: expected {dim} numbers")
    try:
        values = tuple(float(t) for t in parts)
    except ValueError:
        raise ScenarioValidationError(f"{label}: expected numbers") from None
    if not all(math.isfinite(x) for x in values):
        raise ScenarioValidationError(f"{label}: expected finite numbers")
    return values


def _cmd_geodesic(args) -> int:
    path = resolve_scenario_path(args.scenario)
    bundle = load_scenario(path)
    sc = bundle.scenario
    if args.p0 is not None or args.v0 is not None:
        if args.p0 is None or args.v0 is None:
            raise ScenarioValidationError("--p0 and --v0 must be given together")
        cfg = GeodesicConfig(
            p0=_parse_tuple(args.p0, sc.M.dim, "--p0"),
            v0=_parse_tuple(args.v0, sc.M.dim, "--v0"),
            length=1.0,
        )
    elif bundle.geodesics:
        cfg = bundle.geodesics[0]
    else:
        raise ScenarioValidationError(
            "scenario has no geodesics block; pass --p0 and --v0"
        )
    overrides = {"length": args.length, "step": args.step}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    _check_regular_start(sc.M, cfg, "--v0" if args.v0 is not None else "geodesics[0].v0")

    exited = None
    try:
        traj = geodesic_integrate(sc.M, cfg.p0, cfg.v0, cfg.length, cfg.step)
    except DomainExitError as exc:
        traj = exc.trajectory
        exited = exc
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from None

    sin_theta, invariant = invariant_series(sc, traj)
    csv = _csv_chunks(traj, sin_theta, invariant)

    c0, drift, relative = invariant_drift(invariant)
    summary = [
        f"samples: {len(traj)}   step: {traj.step:g}   "
        f"arc length: {float(traj.s[-1]):g}",
        f"energy drift: {traj.energy_drift:.3e}",
        f"invariant: initial {c0!r}, max drift {drift:.3e} (relative {relative:.3e})",
    ]
    if exited is not None:
        summary.append(f"left the sampling domain at s={exited.s:g}")

    if args.out:
        _write_file(args.out, csv, "--out")
        print("\n".join(summary))
    else:
        sys.stdout.writelines(csv)
        print("\n".join(summary), file=sys.stderr)
    return EXIT_PASS


def _csv_chunks(traj, sin_theta, invariant):
    """The ``geodesic`` CSV text: its header, then the rows of one
    ``expr.blocks`` slice of samples per string, so that the text of the
    whole curve is never held at once."""
    coords = [f"{c}{i}" for c in "xv" for i in range(1, traj.points.shape[1] + 1)]
    yield ",".join(["s", *coords, "sin_theta", "invariant"]) + "\n"
    for b in blocks(len(traj)):
        table = np.column_stack([traj.s[b], traj.points[b], traj.velocities[b], sin_theta[b], invariant[b]])
        yield "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def _cmd_presets(_args) -> int:
    for name, preset in PRESETS.items():
        print(f"{name:16s} {preset.kind:7s} {preset.description}")
    print()
    print("bundled scenarios: " + ", ".join(bundled_scenario_names()))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemsub",
        description="Residual checks for Riemannian submersion scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the full check suite on a scenario")
    p_check.add_argument("scenario", help="scenario file path or bundled name")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--tolerance-scale", type=float, default=1.0)
    p_check.add_argument("--report", default=None, help="write machine report here")
    p_check.add_argument("--format", choices=("human", "machine"), default="human")
    p_check.set_defaults(func=_cmd_check)

    p_geo = sub.add_parser("geodesic", help="integrate one geodesic, write rows")
    p_geo.add_argument("scenario", help="scenario file path or bundled name")
    p_geo.add_argument("--p0", default=None, help="comma-separated start point")
    p_geo.add_argument("--v0", default=None, help="comma-separated start velocity")
    p_geo.add_argument("--length", type=float, default=None)
    p_geo.add_argument("--step", type=float, default=None)
    p_geo.add_argument("--out", default=None, help="trajectory file (default stdout)")
    p_geo.set_defaults(func=_cmd_geodesic)

    p_presets = sub.add_parser("presets", help="list bundled presets")
    p_presets.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExprError, GeometryError, SubmersionError, NonGeodesicError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry(argv=None) -> int:
    """The ``riemsub`` command: :func:`main`, with an error that it does not
    handle printed as one line and exit code 2, not a traceback and exit
    code 1, which means a failed check.  A stdout whose reader has gone
    (``riemsub ... | head -1``) ends the command quietly with
    ``EXIT_CLOSED_PIPE``."""
    try:
        code = main(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python's advice: point stdout at devnull, so that the flush at
        # exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(entry())
