"""Tests of the benchmark itself: generator, oracles, workloads, contract.

Run with ``python3 -m pytest bench -q`` from the root of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import common

C = common.load_package()

import gen  # noqa: E402
import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("family", gen.FAMILIES)
def test_generator_is_deterministic_per_seed(family):
    a = gen.capacity(family, 11, 3, n=6)
    assert np.array_equal(a, gen.capacity(family, 11, 3, n=6))
    assert not np.array_equal(a, gen.capacity(family, 12, 3, n=6))
    assert gen.acts(gen.rng(11, 1), 5, 30) == gen.acts(gen.rng(11, 1), 5, 30)
    assert gen.scales(gen.rng(11, 2), 5) == gen.scales(gen.rng(11, 2), 5)
    assert gen.points(gen.rng(11, 3), 4, 6) == gen.points(gen.rng(11, 3), 4, 6)


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    first = workloads.Rank(C, 5, NullTracer(), str(tmp_path), small=True)
    second = workloads.Rank(C, 5, NullTracer(), str(tmp_path), small=True)
    for a, b in zip(first.inputs, second.inputs):
        assert np.array_equal(a["values"], b["values"]) and a["scales"] == b["scales"]


@pytest.mark.parametrize("family", gen.VALID_FAMILIES)
@pytest.mark.parametrize("positive", [True, False])
def test_valid_families_are_capacities(family, positive):
    for n in (4, 6, 9):
        v = gen.capacity(family, 3, n, n=n, positive=positive)
        C.as_capacity(v, require_positive_singletons=positive)


def test_non_monotone_family_is_rejected():
    for seed in range(5):
        with pytest.raises(C.NotMonotone):
            C.as_capacity(gen.capacity("non_monotone", seed, n=6))


def test_belief_masses_are_the_mobius_transform():
    v = gen.capacity("belief", 4, 9, n=6, positive=False)
    masses = gen.belief_masses(gen.rng(4, 9), 6, False)
    assert np.all(masses >= 0.0)
    assert oracles.close(C.mobius(C.as_capacity(v)).coefficients, masses)


def test_acts_contain_levels_numbers_and_duplicates():
    acts = gen.acts(gen.rng(2, 1), 4, 200)
    entries = [tuple(a["entries"] if isinstance(a, dict) else a) for a in acts]
    flat = [e for act in entries for e in act]
    assert any(isinstance(e, str) for e in flat) and any(isinstance(e, float) for e in flat)
    assert len(set(entries)) < len(entries)
    assert {"bad", "great"} <= set(flat)


# -- oracles against the library, n <= 6 ----------------------------------------


def _capacities():
    for family in gen.VALID_FAMILIES:
        for n in (2, 4, 6):
            yield family, n, gen.capacity(family, 8, n, n=n)


@pytest.mark.parametrize("family,n,v", list(_capacities()))
def test_transform_oracles_agree(family, n, v):
    mu = C.as_capacity(v)
    m = C.mobius(mu).coefficients
    assert oracles.close(oracles.mobius(v, n), m)
    cm = C.co_mobius(mu).coefficients
    om = C.ordinal_mobius(mu).coefficients
    for a in range(1 << n):
        assert oracles.close(oracles.mobius_at(v, a), m[a])
        assert oracles.close(oracles.comobius_at(v, n, a), cm[a])
        assert oracles.ordinal_at(v, a) == om[a]
    assert np.array_equal(oracles.conjugate(v), C.conjugate(mu).values)
    for a in range(1, 1 << n):
        assert oracles.close(oracles.interaction_at(m, n, a), C.interaction_index(mu, a))
    assert oracles.close(oracles.shapley(m, n), C.shapley(mu))


@pytest.mark.parametrize("family,n,v", list(_capacities()))
def test_integral_oracles_agree(family, n, v):
    losses = gen.capacity(gen.VALID_FAMILIES[0], 9, n, n=n)
    mu = C.as_capacity(v)
    tab = oracles.Reference(v, n, losses)
    r = gen.rng(n, 7)
    pts = list(r.uniform(-2.0, 2.0, (20, n))) + [np.zeros(n), np.ones(n), -np.ones(n)]
    for name in workloads.EXTENSIONS:
        ext = C.make_extension(name, mu, C.as_capacity(losses) if name == "cpt" else None)
        for t in pts:
            assert oracles.close(ext(t), tab.extension(name, t)), (name, t)


def test_pseudo_product_oracles_agree():
    v = gen.capacity("distorted", 1, n=5)
    m = C.mobius(C.as_capacity(v))
    for name, fn in workloads.PSEUDO_PRODUCTS.items():
        pp = C.certify(fn, name)
        report = C.check_pseudo_product(fn)
        conditions, acts_as_min = workloads.PSEUDO_PRODUCT_TRUTH[name]
        assert report.conditions == conditions and report.acts_as_min == acts_as_min
        for t in gen.rng(1, 2).uniform(0.0, 1.0, (10, 5)):
            want = workloads.PSEUDO_PRODUCT_ORACLE[name](m.coefficients, t)
            assert oracles.close(C.pseudo_product_extension(m, pp, t), want)


def test_ranking_oracle_agrees():
    n = 4
    scales = gen.scales(gen.rng(3, 1), n)
    acts = gen.acts(gen.rng(3, 2), n, 60, dup_share=0.4)
    model = C.model_from_dict(
        {"capacity": gen.table_dict(gen.capacity("belief", 3, n=n), n), "extension": "sipos", "scales": scales}
    )
    rows = [ra.to_dict() for ra in C.rank_acts(model, C.acts_from_obj(acts))]
    tab = oracles.Reference(gen.capacity("belief", 3, n=n), n)
    assert workloads.check_ranking(rows, acts, scales, lambda u: tab.extension("sipos", u), range(60)) == []
    assert any(row["indifferent_to_previous"] for row in rows)


# -- workloads --------------------------------------------------------------------


def _round(name, tracer, tmp_path):
    wl = workloads.WORKLOADS[name](C, 3, tracer, str(tmp_path), small=True)
    wl.prepare()
    wl.setup()
    return run.drive(wl, tracer, 1)[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failures(name, tmp_path):
    records = _round(name, NullTracer(), tmp_path)
    assert records and all(rec.seconds > 0 for rec in records)
    assert [rec.problems for rec in records if rec.problems] == []
    assert sum(rec.work for rec in records) > 0


def test_oracle_checks_catch_a_wrong_library(tmp_path, monkeypatch):
    monkeypatch.setattr(C, "shapley", lambda mu: np.full(mu.n, 1.0 / mu.n + 1e-3))
    records = _round("analyze", NullTracer(), tmp_path)
    assert any(rec.problems for rec in records)


def test_traced_round_reports_every_layer_metric(tmp_path):
    tracer = Tracer()
    tracer.install(C)
    try:
        for name in workloads.WORKLOADS:
            records = _round(name, tracer, tmp_path)
            assert [rec.problems for rec in records if rec.problems] == []
    finally:
        tracer.uninstall()
    assert C.cli.check_axiom is C.axioms.check_axiom
    values = metrics.per_layer(tracer, 0.1, 0.2, 10.0, 0.01)
    assert [spec[0] for spec in metrics.PER_LAYER] == list(values)
    assert values["interaction.table_passes"] > 0 and values["integrals.evals"] > 0
    assert values["axioms.self_ms"] > 0 and values["cli.self_ms.verify"] > 0


# -- contract ---------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, _ in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = metrics.tail(list(range(100)))
    assert abs(value - 89.5) < 1e-6 and (pct, beyond) == (90.0, 10)
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    assert abs(metrics.quantile(list(range(101)), 0.5) - 50.0) < 1e-9


def test_without_the_package_the_runner_fails(tmp_path):
    shutil.copytree(common.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
