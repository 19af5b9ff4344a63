"""Seed sweep: a verdict must not depend on where the samples land.

Runs ``riemsub check`` in-process on every bundled scenario, both fixtures
under ``tests/fixtures`` and the benchmark's warped product, at the file's
seed and at seeds 1 to 40, and prints one line per input.  It exits 1 if
any input gives more than one verdict table, that is more than one list of
``(check, verdict)`` pairs.

    PYTHONPATH=src python tests/seed_sweep.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from riemsub.cli import run_scenario
from riemsub.scenario import bundled_scenario_names, bundled_scenario_path

ROOT = Path(__file__).resolve().parents[1]
# The sweep's last seed: it runs the file seed, then seeds 1 to SEEDS.
SEEDS = 40
# label -> scenario file
INPUTS = {
    **{name: bundled_scenario_path(name) for name in bundled_scenario_names()},
    **{f"tests/fixtures/{p.name}": p for p in sorted((ROOT / "tests" / "fixtures").glob("*.yaml"))},
    "perfbench/scenarios/warped-product.yaml": ROOT / "perfbench" / "scenarios" / "warped-product.yaml",
}


def verdict_table(path: Path, seed) -> list:
    return [[c.name, c.verdict] for c in run_scenario(path, seed).checks]


def main() -> int:
    seeds = [None, *range(1, SEEDS + 1)]
    split = False
    for scenario, path in INPUTS.items():
        by_seed = {"file" if s is None else str(s): verdict_table(path, s) for s in seeds}
        distinct = {json.dumps(t) for t in by_seed.values()}
        fails = sum(v == "fail" for _, v in by_seed["file"])
        print(f"{scenario}: {len(seeds)} seeds, {len(distinct)} verdict table(s), {fails} failing check(s)")
        if len(distinct) > 1:
            split = True
            first = json.dumps(by_seed["file"])
            print("  seeds whose table differs from the file seed's:",
                  ", ".join(s for s, t in by_seed.items() if json.dumps(t) != first))
    return 1 if split else 0


if __name__ == "__main__":
    sys.exit(main())
