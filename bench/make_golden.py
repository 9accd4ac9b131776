"""Regenerate ``golden_verify.json`` from the package in this checkout.

Usage: python3 bench/make_golden.py

Runs every ``verify`` and ``compare`` configuration of the fixed verify
pool through ``capacities.cli.main`` and stores the verdicts, sample counts
and counterexamples (rounded to 12 significant digits). The ``verify``
workload checks its outputs against this file, so regenerate it only when
a change to the package is meant to change those results.
"""

import json
import os
import shutil
import tempfile

import common


def main() -> None:
    C = common.load_package()
    import workloads as w
    from clock import Stopwatch
    from tracing import NullTracer

    os.makedirs(common.TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="golden-", dir=common.TMP)
    null = NullTracer()
    golden = {}
    try:
        w.write_pool(workdir)
        points = w.write_json(os.path.join(workdir, "points.json"), [[0.5, -0.25, 1.0, 0.0]])
        for n in w.POOL_SIZES:
            for ext in w.EXTENSIONS:
                for v in range(w.POOL_VARIANTS):
                    for s in w.AXIOM_SEEDS:
                        rc, out, err = w.run_cli(C, null, Stopwatch(), w.verify_argv(workdir, n, ext, v, s))
                        if rc != 0:
                            raise RuntimeError("verify failed: %s" % err)
                        golden[w.verify_key(n, ext, v, s)] = w.verify_record(json.loads(out))
        for v in range(w.POOL_VARIANTS):
            for s in w.AXIOM_SEEDS:
                rc, out, err = w.run_cli(C, null, Stopwatch(), w.compare_argv(workdir, v, s, points))
                if rc != 0:
                    raise RuntimeError("compare failed: %s" % err)
                golden[w.compare_key(v, s)] = json.loads(out)["verdicts"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(w.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
