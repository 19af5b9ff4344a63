"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/op.py MODE META_PATH [riemsub arguments ...]

MODE is one of:

- ``plain``: run the ``riemsub`` command with nothing traced;
- ``setup``: the same start-up, stopped as soon as the scenario is loaded;
- ``trace``: run the command with every layer span recorded;
- ``count``: run the command counting expression-node evaluations only;
- ``micro``: run the layer microbenchmarks instead of a command.

The command's own output goes to stdout and its exit code becomes this
process's exit code.  Measurements go to META_PATH as JSON: the monotonic
clock reading when the scenario finished loading, the peak resident set
size, and the spans or counters of the mode.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import tracing


class _SetupDone(Exception):
    pass


def _stamp_load(cli, meta: dict, stop: bool) -> None:
    """Record when ``load_scenario`` first returns inside ``cli``."""
    load = cli.load_scenario

    def stamped(path):
        bundle = load(path)
        meta.setdefault("loaded_ns", time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        if stop:
            raise _SetupDone
        return bundle

    cli.load_scenario = stamped


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))


def main(argv) -> int:
    mode, meta_path, args = argv[0], argv[1], argv[2:]
    meta: dict = {"mode": mode}
    if mode == "micro":
        import micro

        meta["metrics"] = micro.run_all()
        _write_json(meta_path, meta)
        return 0

    tracer = counter = None
    if mode == "trace":
        tracer = tracing.Tracer(op_id=os.path.basename(meta_path))
        tracer.install()
    elif mode == "count":
        counter = tracing.install_node_counter()
    from riemsub import cli

    _stamp_load(cli, meta, stop=mode == "setup")
    try:
        code = cli.main(args)
    except _SetupDone:
        code = 0
    sys.stdout.flush()
    meta["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        meta["trace"] = tracer.dump()
    if counter is not None:
        meta["node_evals"] = counter[0]
    _write_json(meta_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
