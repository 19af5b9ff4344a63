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
import sys
from dataclasses import replace

import numpy as np

from .clairaut import (
    NonGeodesicError,
    check_anti_invariant,
    check_bishop,
    check_clairaut_condition,
    check_dichotomies,
    check_geodesic_conditions,
    check_pq_identities,
    check_thm33_identity,
    clairaut_invariant,
    interior_indices,
    invariant_series,
    pq_curve_residual,
)
from .expr import ExprError
from .geometry import (
    DomainExitError,
    GeometryError,
    geodesic_integrate,
    sample_points,
)
from .hermitian import check_nearly_kaehler, check_structure
from .presets import PRESETS
from .report import SKIP, CheckReport, ReportDocument
from .scenario import (
    GeodesicConfig,
    ScenarioValidationError,
    bundled_scenario_names,
    load_scenario,
    nonzero_velocity,
    resolve_scenario_path,
)
from .submersion import (
    SubmersionError,
    check_decompositions,
    check_sff_vertical,
    check_skew,
    check_submersion,
    fiber_character,
)

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


# Everything derived for anti-invariant submersions of a manifold with
# vanishing symmetrized structure derivative applies only when both hold;
# otherwise those checks are skipped, not failed.
OUTSIDE_SETTING = "scenario is outside the anti-invariant nearly-parallel setting"


def _skip(name: str, ref: str, reason: str) -> CheckReport:
    return CheckReport(name, ref, 0, 0.0, 0.0, SKIP, {"reason": reason})


def run_scenario(
    path,
    seed: int | None = None,
    samples: int | None = None,
    tolerance_scale: float = 1.0,
) -> ReportDocument:
    """Run the full check suite for a scenario file.

    Order: structure checks, submersion checks, anti-invariance, fiber
    character, the umbilicity criterion, then the geodesic-based checks.
    Checks whose preconditions failed are recorded as skipped; the overall
    verdict passes only when every non-skipped check passes.
    """
    bundle = load_scenario(path)
    sc = bundle.scenario
    if samples is not None and samples < 1:
        raise ScenarioValidationError("--samples must be positive")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ScenarioValidationError("--tolerance-scale must be finite and positive")
    if seed is not None:
        sc.sampling = type(sc.sampling)(count=sc.sampling.count, seed=seed)
    if samples is not None:
        sc.sampling = type(sc.sampling)(count=samples, seed=sc.sampling.seed)
    tol = sc.tolerances.scaled(tolerance_scale)
    sc.tolerances = tol

    seeds = np.random.SeedSequence(sc.sampling.seed).spawn(5)
    pts = sample_points(sc.M.domain, sc.sampling.count, seeds[0])
    sc.M.validate(pts)
    sc.N.validate([sc.F.map_point(p) for p in pts[:25]])

    checks = []

    def add(name, ref, run, skip_if=()):
        """Append ``run()`` under ``name`` (``ref`` labels a skip), or, if a
        condition in ``skip_if`` holds, a skip carrying the first such
        reason; return the report."""
        reason = next((why for blocked, why in skip_if if blocked), None)
        report = run() if reason is None else _skip(name, ref, reason)
        report.name = name
        checks.append(report)
        return report

    structure = add("structure", "eq-ka1", lambda: check_structure(
        sc.M, sc.J, pts, tolerance=tol.algebraic, rng=np.random.default_rng(seeds[1])
    ))
    nk = add("nearly-kaehler", "eq-ka2", lambda: check_nearly_kaehler(
        sc.M, sc.J, pts, tolerance=tol.algebraic, rng=np.random.default_rng(seeds[2])
    ), [(not structure.passed, "structure check failed")])
    # Per-sample series are diagnostics, too bulky for the report.
    nk.details.pop("per_sample", None)
    nk.details.pop("kaehler_per_sample", None)

    add("submersion-axioms", "def-submersion",
        lambda: check_submersion(sc.F, pts, tolerance=tol.algebraic))
    add("oneill-skew", "EQ2.14", lambda: check_skew(
        sc.F, pts, tolerance=tol.algebraic, rng=np.random.default_rng(seeds[3])
    ))
    add("oneill-decomposition", "EQ2.10-2.13",
        lambda: check_decompositions(sc.F, pts, tolerance=tol.algebraic))
    add("map-second-fundamental-form", "EQ2.15",
        lambda: check_sff_vertical(sc.F, pts, tolerance=tol.fd))
    anti = add("anti-invariance", "def-anti-invariant", lambda: check_anti_invariant(sc, pts))
    fiber = add("fiber-character", "eq-7", lambda: fiber_character(sc.F, pts, tolerance=tol.fd))
    # Mean curvature vectors are per-sample diagnostics; keep the report flat.
    fiber.details["mean_curvature_first_sample"] = fiber.details.pop("mean_curvature")[0]
    bishop = add("bishop-clairaut", "th-bis", lambda: check_bishop(sc, pts))
    add("pq-identities", "eq-c2/c3/c5", lambda: check_pq_identities(
        sc, pts, rng=np.random.default_rng(seeds[4]), include_antisymmetry=nk.passed
    ))

    outside = [(not (nk.passed and anti.passed), OUTSIDE_SETTING)]
    umbilic = outside + [(not bishop.passed, "umbilicity criterion failed")]
    add("aq-gradient-identity", "th2", lambda: check_thm33_identity(sc, pts), umbilic)
    add("dichotomies", "th3",
        lambda: check_dichotomies(sc, pts, fiber_report=fiber), umbilic)

    for i, cfg in enumerate(bundle.geodesics):
        prefix = f"geodesic-{i}"
        try:
            traj = geodesic_integrate(sc.M, cfg.p0, cfg.v0, cfg.length, cfg.step)
        except (DomainExitError, ValueError) as exc:
            add(f"{prefix}-integration", "-", lambda: CheckReport(
                "", "-", 0, float("inf"), 0.0, "fail", {"error": str(exc)}
            ))
            continue
        if len(traj) < 5:
            raise ScenarioValidationError(
                f"geodesics[{i}]: {len(traj)} samples, the curve checks need "
                "at least 5 (length / step >= 4)"
            )
        arc = max(1.0, float(traj.s[-1]))
        add(f"{prefix}-energy", "-", lambda: CheckReport.from_residual(
            "", "-", len(traj), traj.energy_drift, tol.algebraic * arc,
            {"length": float(traj.s[-1])},
        ))
        idx = interior_indices(traj)
        conditions = add(f"{prefix}-conditions", "th1",
                         lambda: check_geodesic_conditions(sc, traj, idx), outside)
        if nk.passed:
            add(f"{prefix}-pq-curve", "eq-c4", lambda: CheckReport.from_residual(
                "", "eq-c4", len(idx), pq_curve_residual(sc, traj, idx), tol.algebraic
            ))
        add(f"{prefix}-invariant", "def-clairaut", lambda: clairaut_invariant(sc, traj))
        add(f"{prefix}-clairaut-condition", "eq-6",
            lambda: check_clairaut_condition(sc, traj, idx),
            umbilic + [(not conditions.passed, "curve failed the geodesic gate")])

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
    report = run_scenario(
        path,
        seed=args.seed,
        samples=args.samples,
        tolerance_scale=args.tolerance_scale,
    )
    if args.format == "machine":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_table())
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
    return EXIT_PASS if report.overall == "pass" else EXIT_FAIL


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
            v0=nonzero_velocity(_parse_tuple(args.v0, sc.M.dim, "--v0"), "--v0"),
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

    exited = None
    try:
        traj = geodesic_integrate(sc.M, cfg.p0, cfg.v0, cfg.length, cfg.step)
    except DomainExitError as exc:
        traj = exc.trajectory
        exited = exc
    except ValueError as exc:
        raise ScenarioValidationError(str(exc)) from None

    sin_theta, invariant = invariant_series(sc, traj)
    m = sc.M.dim
    header = (
        ["s"]
        + [f"x{i}" for i in range(1, m + 1)]
        + [f"v{i}" for i in range(1, m + 1)]
        + ["sin_theta", "invariant"]
    )
    rows = [",".join(header)]
    for k in range(len(traj)):
        cells = (
            [repr(float(traj.s[k]))]
            + [repr(float(x)) for x in traj.points[k]]
            + [repr(float(v)) for v in traj.velocities[k]]
            + [repr(float(sin_theta[k])), repr(float(invariant[k]))]
        )
        rows.append(",".join(cells))
    text = "\n".join(rows) + "\n"

    c0 = float(invariant[0])
    drift = float(abs(invariant - c0).max())
    summary = [
        f"samples: {len(traj)}   step: {traj.step:g}   "
        f"arc length: {float(traj.s[-1]):g}",
        f"energy drift: {traj.energy_drift:.3e}",
        f"invariant: initial {c0!r}, max drift {drift:.3e} "
        f"(relative {drift / max(abs(c0), 1e-9):.3e})",
    ]
    if exited is not None:
        summary.append(f"left the sampling domain at s={exited.s:g}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("\n".join(summary))
    else:
        sys.stdout.write(text)
        print("\n".join(summary), file=sys.stderr)
    return EXIT_PASS


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ExprError, GeometryError, SubmersionError, NonGeodesicError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
