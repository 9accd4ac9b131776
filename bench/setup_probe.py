"""Print the program's own set-up time for one workload, in a fresh process.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Set-up is ``import capacities`` (plus ``capacities.cli`` where the workload
drives the CLI) and the workload's ``setup()``: the validated capacities,
models and extensions it builds before its first op. Generating the
benchmark's inputs happens in between and is not counted. Prints the time
at the reference speed of ``clock`` (probed after the import and after the
set-up, since the probe needs numpy) and the raw wall time.
"""

import sys
import time

import common


def main(workload: str, seed: int) -> tuple:
    t0 = time.perf_counter()
    C = common.load_package(with_cli=workload == "verify")
    imported = time.perf_counter() - t0

    import clock
    import workloads
    from tracing import NullTracer

    before = clock.probe()
    wl = workloads.WORKLOADS[workload](C, seed, NullTracer(), workdir=None)
    t0 = time.perf_counter()
    wl.setup()
    wall = imported + time.perf_counter() - t0
    return clock.scale(wall, before, clock.probe()), wall


if __name__ == "__main__":
    print("%r %r" % main(sys.argv[1], int(sys.argv[2])))
