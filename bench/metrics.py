"""Metric definitions and their computation from op records and spans.

End-to-end metrics come from the untraced run. ``work_per_s`` is the
workload's own unit of work per second of timed wall time: acts ranked on
``rank`` (acts_per_s), axiom trials on ``verify`` (trials_per_s, from
``samples_tested + skipped``), interaction indices on ``analyze`` and
table entries (2**n per lattice call) on ``tables`` (entries_per_s).

Per-layer metrics come from the spans of a traced run. Each is listed with
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

EXTENSIONS = ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt")
TRANSFORMS = ("as_capacity", "mobius", "zeta", "co_mobius", "ordinal_mobius", "ordinal_zeta", "conjugate")
AXIOMS = ("HE", "A", "M", "M1", "I", "A1", "A2", "C1", "S1")
SUBCOMMANDS = ("transform", "eval", "interaction", "verify", "compare", "rank")
TABLE_SIZES = (20, 22, 24)

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

WORK_ALIAS = {
    "rank": "acts_per_s",
    "verify": "trials_per_s",
    "analyze": "indices_per_s",
    "tables": "entries_per_s",
}

TAIL_BEYOND = 10


def _layer_spec() -> list:
    spec = []

    def add(name, unit, moves):
        better = "higher" if unit == "GB/s" else "lower"
        spec.append((name, unit, better, moves))

    tables = "work_per_s (entries_per_s) and op_p50_ms on tables"
    for f in TRANSFORMS:
        for n in TABLE_SIZES:
            add("set_function.%s.n%d.ms" % (f, n), "ms", tables)
    add("set_function.mobius.n24.gbps_computed", "GB/s", tables)
    add("host.copy.gbps", "GB/s", "none; the machine's numpy copy bandwidth, to scale the line above")
    add("set_function.share", "ratio", "op_p50_ms on analyze (small share); setup_s on rank")
    for n in (16, 22):
        add("subsets.popcounts.n%d.ms" % n, "ms", "op_p50_ms on analyze")
    for e in EXTENSIONS:
        for n in (6, 10, 16):
            add("integrals.%s.n%d.us_per_point" % (e, n), "us", "work_per_s (acts_per_s) and op_p50_ms on rank")
    for e in EXTENSIONS:
        add("integrals.make_extension.%s.n16.ms" % e, "ms", "setup_s on rank")
    verify_rate = "work_per_s (trials_per_s) on verify"
    add("integrals.evals", "count", verify_rate)
    add("integrals.us_per_eval", "us", verify_rate)
    add("integrals.certify.ms", "ms", "op_p50_ms on verify")
    add("integrals.pseudo_product_extension.n8.us_per_point", "us", "op_p50_ms on verify")
    analyze = "op_p50_ms and ops_per_s on analyze"
    add("interaction.shapley.n16.ms", "ms", analyze)
    add("interaction.interaction_report.n16.ms", "ms", analyze)
    add("interaction.interaction_index.n16.us", "us", analyze)
    add("interaction.table_passes", "count", analyze)
    axioms = "work_per_s (trials_per_s), op_p50_ms and op_tail_ms on verify"
    for a in AXIOMS:
        add("axioms.%s.ms" % a, "ms", axioms)
    add("axioms.self_ms", "ms", axioms)
    add("axioms.evals_per_trial", "evals/trial", axioms)
    add("axioms.skip_ratio", "ratio", axioms)
    add("axioms.compare_extensions.ms", "ms", "op_tail_ms on verify")
    add("axioms.check_pseudo_product.ms", "ms", "op_p50_ms on verify")
    add("model.AggregationModel.ms", "ms", "setup_s on rank")
    add("model.rank_acts.self_us_per_act", "us", "work_per_s (acts_per_s) and op_p50_ms on rank")
    add("model.model_from_dict.ms", "ms", "op_p50_ms on verify")
    add("model.acts_from_obj.us_per_act", "us", "work_per_s (acts_per_s) and op_p50_ms on rank")
    add("model.indifferent_ratio", "ratio", "none; checks that the acts tie as intended")
    for sub in SUBCOMMANDS:
        add("cli.%s.ms" % sub, "ms", "op_p50_ms on verify")
    for sub in SUBCOMMANDS:
        add("cli.self_ms.%s" % sub, "ms", "op_p50_ms on verify")
    add("cli.import_s", "s", "cli_start_ms")
    # A fresh process's start-up spreads by 15 to 30 % of its median from run
    # to run on a shared VM, wider than any end-to-end bound allows.
    add("cli_start_ms", "ms", "none; wall time of a fresh `python -m capacities.cli eval` on 4 criteria")
    add("cli.output_bytes", "count", "op_p50_ms on verify")
    add("trace.overhead_ratio", "ratio", "none; traced over untraced time of the same ops, minus 1")
    return spec


PER_LAYER = _layer_spec()


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.

    An op mix has gaps between the latencies of its op kinds; a plain
    order statistic jumps across such a gap when one more op lands on
    either side, this estimate moves smoothly.
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    n = xs.shape[0]
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    grid = (np.arange(64 * n) + 0.5) / (64 * n)  # midpoints, 64 per order statistic
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    weights = np.diff(cdf[:: 64])
    return float(np.dot(weights, xs))


def tail(latencies) -> tuple:
    """(value, percentile, beyond): the latency at the highest percentile
    with TAIL_BEYOND samples above it (the maximum when there are fewer)."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0, 0
    p = 1.0 - TAIL_BEYOND / n
    return quantile(latencies, p), 100.0 * p, TAIL_BEYOND


def end_to_end(records, setup_s: float, peak_rss_mb: float, raw: bool = False):
    """Metric values and notes. Times are at the reference speed of
    ``clock``, or raw wall times with ``raw``. Throughputs are the median
    over rounds of each round's rate."""
    seconds = (lambda rec: rec.raw) if raw else (lambda rec: rec.seconds)
    lat = [seconds(rec) for rec in records]
    rounds = defaultdict(list)
    for rec in records:
        rounds[rec.round].append(rec)
    busy = [sum(seconds(rec) for rec in recs) for recs in rounds.values()]
    tail_s, pct, beyond = tail(lat)
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(len(recs) / s for recs, s in zip(rounds.values(), busy)),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": statistics.median(
            sum(rec.work for rec in recs) / s for recs, s in zip(rounds.values(), busy)
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "op_tail_ms": "at p%.1f, %d of %d samples beyond" % (pct, beyond, len(lat)),
        "ops_per_s": "median of %d rounds" % len(rounds),
    }
    return values, notes


# -- per-layer ------------------------------------------------------------------


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class _Spans:
    """Spans grouped by name, with each span's enclosing op span."""

    def __init__(self, spans):
        self.spans = spans
        self.ids = defaultdict(list)
        for i, s in enumerate(spans):
            self.ids[s.name].append(i)
        self._op = {}

    def op_of(self, i):
        if i not in self._op:
            s = self.spans[i]
            if s.name.startswith("op."):
                self._op[i] = s
            else:
                self._op[i] = None if s.parent is None else self.op_of(s.parent)
        return self._op[i]

    def all(self, name):
        return [self.spans[i] for i in self.ids[name]]

    def named(self, name, **match):
        return [s for s in self.all(name) if all(s.attrs.get(k) == v for k, v in match.items())]

    def inside(self, name, op_name):
        """Spans called ``name`` somewhere below an op span called ``op_name``."""
        return [self.spans[i] for i in self.ids[name] if getattr(self.op_of(i), "name", None) == op_name]

    def median_ms(self, name, **match):
        return _median([s.seconds for s in self.named(name, **match)]) * 1e3


def per_layer(tracer, cli_import_s: float, cli_start_s: float, copy_gbps: float, overhead: float) -> dict:
    sp = _Spans(tracer.spans)
    out = {}
    for f in TRANSFORMS:
        for n in TABLE_SIZES:
            out["set_function.%s.n%d.ms" % (f, n)] = sp.median_ms("set_function." + f, n=n)
    mob24 = out["set_function.mobius.n24.ms"] / 1e3
    # Each of the n passes reads the whole table and writes half; plus one copy in.
    moved = (1.5 * 24 + 2) * (1 << 24) * 8
    out["set_function.mobius.n24.gbps_computed"] = _ratio(moved, mob24) / 1e9
    out["host.copy.gbps"] = copy_gbps

    analyze_ops = sp.all("op.analyze")
    sf_time = sum(
        s.seconds
        for s in tracer.spans
        if s.name.startswith("set_function.") and s.parent is not None
        and tracer.spans[s.parent].name == "op.analyze"
    )
    out["set_function.share"] = _ratio(sf_time, sum(s.attrs["op_s"] for s in analyze_ops))
    for n in (16, 22):
        out["subsets.popcounts.n%d.ms" % n] = sp.median_ms("subsets.popcounts", n=n)

    for e in EXTENSIONS:
        for n in (6, 10, 16):
            count, secs = tracer.evals.get((e, n), (0, 0.0))
            out["integrals.%s.n%d.us_per_point" % (e, n)] = _ratio(secs, count) * 1e6
    for e in EXTENSIONS:
        out["integrals.make_extension.%s.n16.ms" % e] = sp.median_ms("integrals.make_extension", ext=e, n=16)
    verify_ops = sp.all("op.cli.verify")
    out["integrals.evals"] = _mean([s.attrs["evals"] for s in verify_ops])
    out["integrals.us_per_eval"] = _ratio(
        sum(s.attrs["ext_s"] for s in verify_ops), sum(s.attrs["evals"] for s in verify_ops)
    ) * 1e6
    out["integrals.certify.ms"] = sp.median_ms("integrals.certify")
    out["integrals.pseudo_product_extension.n8.us_per_point"] = (
        sp.median_ms("integrals.pseudo_product_extension", n=8) * 1e3
    )

    out["interaction.shapley.n16.ms"] = sp.median_ms("interaction.shapley", n=16)
    out["interaction.interaction_report.n16.ms"] = sp.median_ms("interaction.interaction_report", n=16)
    out["interaction.interaction_index.n16.us"] = sp.median_ms("interaction.interaction_index", n=16) * 1e3
    passes = len(sp.inside("interaction.interaction_index", "op.analyze"))
    valid = sum(1 for s in analyze_ops if s.attrs["work"] > 0)
    out["interaction.table_passes"] = _ratio(passes, valid)

    checks = sp.inside("axioms.check_axiom", "op.cli.verify")
    for a in AXIOMS:
        per_ext = defaultdict(list)
        for s in checks:
            if s.attrs["axiom"] == a:
                per_ext[s.attrs["ext"]].append(s.seconds)
        out["axioms.%s.ms" % a] = sum(_mean(xs) for xs in per_ext.values()) * 1e3
    out["axioms.self_ms"] = _mean([s.self_s for s in checks]) * 1e3
    trials = sum(s.attrs["trials"] for s in checks)
    out["axioms.evals_per_trial"] = _ratio(sum(s.evals for s in checks), trials)
    out["axioms.skip_ratio"] = _ratio(sum(s.attrs["skipped"] for s in checks), trials)
    out["axioms.compare_extensions.ms"] = sp.median_ms("axioms.compare_extensions")
    out["axioms.check_pseudo_product.ms"] = sp.median_ms("axioms.check_pseudo_product")

    out["model.AggregationModel.ms"] = sp.median_ms("model.AggregationModel")
    ranks = sp.all("model.rank_acts")
    ranked = sum(s.attrs["acts"] for s in ranks)
    out["model.rank_acts.self_us_per_act"] = _ratio(sum(s.self_s for s in ranks), ranked) * 1e6
    out["model.model_from_dict.ms"] = sp.median_ms("model.model_from_dict")
    parsed = sp.all("model.acts_from_obj")
    out["model.acts_from_obj.us_per_act"] = _ratio(
        sum(s.seconds for s in parsed), sum(s.attrs["acts"] for s in parsed)
    ) * 1e6
    out["model.indifferent_ratio"] = _ratio(sum(s.attrs["indifferent"] for s in ranks), ranked)

    calls = []
    for sub in SUBCOMMANDS:
        spans = sp.all("cli." + sub)
        calls += spans
        out["cli.%s.ms" % sub] = _median([s.seconds for s in spans]) * 1e3
    for sub in SUBCOMMANDS:
        out["cli.self_ms.%s" % sub] = _mean([s.self_s for s in sp.all("cli." + sub)]) * 1e3
    out["cli.import_s"] = cli_import_s
    out["cli_start_ms"] = cli_start_s * 1e3
    out["cli.output_bytes"] = _mean([s.attrs["bytes"] for s in calls])
    out["trace.overhead_ratio"] = overhead
    return out
