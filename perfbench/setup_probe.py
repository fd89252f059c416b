"""Set-up time of the library workloads, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py SPEC_JSON``

Times ``import heatavg``, ``build_eigensystem`` for the constant operator,
and ``WeightSpec.validate`` plus ``stability_constants`` for every weight in
the spec, and prints ``{"setup_s": seconds}``.  A fresh interpreter makes
every probe pay the cold import a user pays once per process.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import heatavg as ha

    grid = ha.Grid.uniform(spec["length"], spec["nodes"])
    es = ha.build_eigensystem(ha.OperatorSpec.constant(spec["length"]), grid, spec["modes"])
    for kappa, pieces, horizon, t1 in spec["weights"]:
        ws = ha.WeightSpec(kappa, tuple(tuple(p) for p in pieces), horizon, t1)
        if not ws.validate().ok:
            print(f"weight {pieces} is not admissible", file=sys.stderr)
            return 1
        ha.stability_constants(ws, es)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
