"""Benchmark of the ``capacities`` package: four workloads, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {rank,verify,analyze,tables} \\
        --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src/`` (nothing needs to be
installed). One process drives each workload as a closed loop with a single
client and no threads. It runs the whole rounds of ops that take about
``--seconds`` of op time at the reference speed of ``clock.py`` on the
package as of the benchmark's first commit (see ``Workload.round_s``).
Every output is checked against the naive oracles in ``oracles.py`` or the
golden file ``golden_verify.json``, outside the timed region.

``--trace 0`` prints the end-to-end metrics: set-up time (median of three
fresh processes), throughput, median and tail latency, work per second
and peak resident memory. Times are rescaled to a reference machine speed
(see ``clock.py``); the raw wall times are printed beside them.
``--trace 1`` runs the workload with spans around every call into the
package for ``--seconds / 2``, replays the same ops untraced to measure the
tracing overhead, runs one round of each other workload traced, times
fresh CLI start-ups, and prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and the host record are written to ``.bench_out/``; scratch files go
to ``.bench_tmp/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

import clock
import common
import metrics
import workloads
from tracing import NullTracer, Tracer

SETUP_PROBES = 3
CLI_START_PROBES = 15
IMPORT_PROBES = 5
SUBPROCESS_TIMEOUT = 120
CAP = 4  # stop starting rounds after this many times --seconds of raw op time
IMPORT_CODE = "import time; t = time.perf_counter(); import capacities.cli; print(time.perf_counter() - t)"


class Record:
    """One op: its kind, round, time at reference speed, raw wall time,
    work units and problems (empty when its outputs were right)."""

    __slots__ = ("kind", "round", "seconds", "raw", "work", "problems")

    def __init__(self, kind, round, seconds, raw, work, problems):
        self.kind = kind
        self.round = round
        self.seconds = seconds
        self.raw = raw
        self.work = work
        self.problems = problems


def run_op(op, r, tracer) -> Record:
    sw = clock.Stopwatch()
    before = getattr(tracer, "n_evals", 0), getattr(tracer, "ext_total", 0.0)
    with tracer.span("op." + op.kind) as span:
        try:
            work, problems = op.run(sw)
        except Exception:  # an unexpected exception fails the op; the loop goes on
            work, problems = 0, [traceback.format_exc(limit=3)]
    if span is not None:
        span.attrs.update(
            op_s=sw.raw,
            work=work,
            evals=tracer.n_evals - before[0],
            ext_s=tracer.ext_total - before[1],
        )
    return Record(op.kind, r, sw.total, sw.raw, work, problems)


def rounds_for(wl, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` at the reference speed.

    A fixed count per ``--seconds`` gives every run the same op mix and the
    same number of samples, so the quantiles sit at the same ranks. A
    package that gets faster or slower changes how long the rounds take.
    """
    return max(1, round(seconds / wl.round_s))


def drive(wl, tracer, rounds: int, cap_s: float = float("inf")):
    """Run ``rounds`` whole rounds of ``wl``, starting no new round once the
    raw op time passes ``cap_s``. Returns the records and the rounds run."""
    records = []
    spent = 0.0
    r = 0
    while r < rounds and spent <= cap_s:
        for op in wl.round_ops(r):
            rec = run_op(op, r, tracer)
            records.append(rec)
            spent += rec.raw
        r += 1
    return records, r


def _python(args):
    return subprocess.run(
        [sys.executable] + args,
        cwd=common.ROOT,
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
        check=False,
    )


def _child_seconds(args) -> list:
    proc = _python(args)
    if proc.returncode != 0:
        raise RuntimeError("%s failed: %s" % (args[0], proc.stderr.strip()))
    return [float(x) for x in proc.stdout.split()]


def cli_start(workdir: str, seed: int):
    """Scaled and raw wall times of fresh ``python -m capacities.cli eval``
    runs on a 4-criterion file, and how many printed a wrong value."""
    import gen
    import oracles

    values = gen.capacity("distorted", seed, 60, n=4)
    path = workloads.write_json(os.path.join(workdir, "start.json"), gen.table_dict(values, 4))
    want = oracles.Reference(values, 4).extension("choquet", [0.2, 0.5, 0.1, 0.9])
    argv = ["-m", "capacities.cli", "eval", "--integral", "choquet", "--capacity", path, "--scores", "0.2,0.5,0.1,0.9"]
    scaled, raw, bad = [], [], 0
    for _ in range(CLI_START_PROBES):
        proc, s, w = clock.timed(lambda: _python(argv))
        scaled.append(s)
        raw.append(w)
        if proc.returncode != 0 or not oracles.close(float(proc.stdout.strip() or "nan"), want):
            bad += 1
    return scaled, raw, bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_level(index_dir: str) -> int:
    with open(os.path.join(index_dir, "level")) as fh:
        return int(fh.read())


def host_record() -> dict:
    """CPU, core count, LLC, versions, numpy copy bandwidth, table sizes."""
    import platform

    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = [os.path.join(cache, d) for d in os.listdir(cache) if d.startswith("index")]
        with open(os.path.join(max(levels, key=_cache_level), "size")) as fh:
            llc = fh.read().strip()
    except (OSError, ValueError):
        pass
    a = np.ones(1 << 24)  # 128 MiB
    b = np.empty_like(a)
    best = float("inf")
    for _ in range(3):
        t0 = clock.perf()
        np.copyto(b, a)
        best = min(best, clock.perf() - t0)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "copy_gbps": 2 * a.nbytes / best / 1e9,
        "reference_probe_s": clock.REFERENCE_S,
        "table_bytes": {"n%d" % n: 8 << n for n in (20, 22, 24)},
    }


def run_plain(args, C, workdir) -> dict:
    probe = [os.path.join(common.BENCH, "setup_probe.py"), args.workload, str(args.seed)]
    setup = [_child_seconds(probe) for _ in range(SETUP_PROBES)]
    null = NullTracer()
    wl = workloads.WORKLOADS[args.workload](C, args.seed, null, workdir)
    wl.prepare()
    wl.setup()
    records, rounds = drive(wl, null, rounds_for(wl, args.seconds), cap_s=CAP * args.seconds)
    rss = peak_rss_mb()
    values, notes = metrics.end_to_end(records, statistics.median(s for s, _ in setup), rss)
    raw, _ = metrics.end_to_end(records, statistics.median(w for _, w in setup), rss, raw=True)
    for name in values:
        if raw[name] != values[name]:
            notes[name] = ("%s; " % notes[name] if name in notes else "") + "raw wall %.6g" % raw[name]
    return {
        "values": values,
        "notes": notes,
        "records": records,
        "probes": (0, 0),
        "extra": {"rounds": rounds, "raw": raw, "setup_probes_s": setup},
        "tracer": None,
    }


def run_traced(args, C, workdir) -> dict:
    import_s = statistics.median(_child_seconds(["-c", IMPORT_CODE])[0] for _ in range(IMPORT_PROBES))
    tracer = Tracer()
    null = NullTracer()
    tracer.install(C)
    wl = workloads.WORKLOADS[args.workload](C, args.seed, tracer, workdir)
    wl.prepare()
    wl.setup()
    records, rounds = drive(wl, tracer, rounds_for(wl, args.seconds / 2), cap_s=CAP * args.seconds / 2)
    tracer.uninstall()
    wl.T = null
    wl.setup()  # rebuild without the counting extensions
    replay, _ = drive(wl, null, rounds)
    overhead = sum(r.seconds for r in records) / sum(r.seconds for r in replay) - 1.0
    records += replay
    del wl  # free its inputs before the other workloads build theirs
    tracer.install(C)
    for name, cls in workloads.WORKLOADS.items():
        if name != args.workload:
            other = cls(C, args.seed, tracer, workdir)
            other.prepare()
            other.setup()
            records += drive(other, tracer, 1)[0]
    tracer.uninstall()
    starts, starts_raw, bad = cli_start(workdir, args.seed)
    host = host_record()
    return {
        "values": metrics.per_layer(tracer, import_s, statistics.median(starts), host["copy_gbps"], overhead),
        "notes": {},
        "records": records,
        "probes": (CLI_START_PROBES, bad),
        "extra": {"rounds": rounds, "host": host, "cli_start_probes_s": starts_raw},
        "tracer": tracer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        C = common.load_package()
    except (common.MissingPackage, ImportError) as exc:
        print("error: cannot import the package under test: %s" % exc, file=sys.stderr)
        return 2

    os.makedirs(common.TMP, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, os.getpid()), dir=common.TMP)
    try:
        res = (run_traced if args.trace else run_plain)(args, C, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(common.TMP)
        except OSError:
            pass
    records, values, notes, extra, tracer = (res[k] for k in ("records", "values", "notes", "extra", "tracer"))
    host = extra.pop("host", None) or host_record()
    probe_attempts, probe_failures = res["probes"]
    failed = sum(1 for rec in records if rec.problems) + probe_failures
    attempted = len(records) + probe_attempts
    for rec in [rec for rec in records if rec.problems][:20]:
        print("FAILED %s: %s" % (rec.kind, "; ".join(rec.problems)[:400]), file=sys.stderr)

    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    out = {}
    print("workload %s  seed %d  trace %d  rounds %d  ops %d" % (args.workload, args.seed, args.trace, extra["rounds"], len(records)))
    for name, unit, _, *moves in spec:
        value = float(values[name])
        out[name] = {"value": value, "unit": unit}
        label = "%s (%s)" % (name, metrics.WORK_ALIAS[args.workload]) if name == "work_per_s" else name
        note = notes.get(name) or ("moves: " + moves[0] if moves else "")
        print("%-52s %14.6g %-12s %s" % (label, value, unit, note))
    print("failed_ratio %.6g (%d of %d)" % (failed / attempted, failed, attempted))
    print("host " + json.dumps(host, sort_keys=True))

    os.makedirs(common.OUT, exist_ok=True)
    dump = {"args": vars(args), "host": host, "metrics": out, "failed": failed, "attempted": attempted}
    dump.update(extra)
    dump["ops"] = [[rec.kind, rec.round, rec.seconds, rec.raw, rec.work] for rec in records]
    if tracer is not None:
        dump["spans"] = [s.to_json(i) for i, s in enumerate(tracer.spans)]
    path = os.path.join(common.OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dump, fh)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
