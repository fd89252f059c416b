"""Traced stand-in for ``python -m heatavg``.

Usage: ``python3 perfbench/shim.py TRACE_JSON <heatavg arguments>``

Runs the same ``heatavg.cli.main`` as ``python -m heatavg`` with the same
arguments and exit code, with the span wrappers of `spans` installed after
a fresh ``import heatavg``.  Writes the spans and the instants that bound
them to TRACE_JSON, so the parent can add interpreter start-up and shutdown.
"""

import time

import_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from heatavg import cli

    import_end = time.perf_counter()
    from spans import Tracer, install

    tracer = Tracer()
    tracer.record("cli.import", import_start, import_end)
    install(tracer)
    code = cli.main(argv)
    ended = time.perf_counter()
    with open(trace_path, "w") as fh:
        json.dump({"import_start": import_start, "ended": ended, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
