"""Which path each layer takes, and the calls it makes.

The other test modules pin contracts, whatever path made them. This module
alone pins mechanisms: the facts a table keeps in its ``vars()``, which
``SetFunction.__getstate__`` names, and for each layer one table of rows: an
input kind, the path it must take and the calls it makes, as ``recording``
sees them. Deleting a shortcut deletes its rows here.
"""

import contextlib
import copy
import gc
import math
import pickle

import numpy as np
import pytest

import capacities.model
import oracles
from capacities import (AXIOM_NAMES, Act, AggregationModel, AxiomCheckConfig, Capacity, Extension,
                        SetFunction, as_capacity, check_axiom, conjugate, interaction_report,
                        make_extension, mobius, ordinal_mobius, ordinal_zeta, rank_acts, shapley,
                        validate)
from capacities import axioms, subsets
from capacities.set_function import _live
from helpers import (ORDINAL_TABLES, UFUNC_BUFFERS, HashedCapacity, distorted, peak_above_input,
                     random_capacity, verify_args)


@contextlib.contextmanager
def recording(*targets):
    """Record each call to the functions at ``targets``, (owner, name) pairs, in
    order, as (name, args); a method's args start with its instance."""
    calls = []

    def recorded(name, fn):
        return lambda *args, **kwargs: calls.append((name, args)) or fn(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in targets:
            mp.setattr(owner, name, recorded(name, getattr(owner, name)))
        yield calls


def taken(calls):
    """The names of ``calls``, a lattice pass by the name of its op, which it clears."""
    names = [args[0].__name__ if name == "lattice" else name for name, args in calls]
    calls.clear()
    return names


# -- facts: what a copy or a pickle leaves out ------------------------------------

FACTS = [
    # the fact, a table keeping it, from a strict capacity, and what a weak one refers to
    ("_mobius", lambda mu: (mu, mobius(mu))),
    ("_shapley", lambda mu: (mu, None)),
    ("_zeta", lambda mu: (ordinal_mobius(mu), mu)),
    ("_largest_drop", lambda mu: (mu, None)),
]


@pytest.mark.parametrize("fact, keep", FACTS, ids=[f[0] for f in FACTS])
def test_copies_and_pickles_carry_no_fact(fact, keep):
    mu = as_capacity(distorted(6, np.random.default_rng(6)), n=6)
    shapley(mu)
    table, referred = keep(mu)
    del mu
    value = vars(table)[fact]
    for again in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert fact not in vars(again)
        assert type(again) is type(table) and again.values.tobytes() == table.values.tobytes()
    assert vars(table)[fact] is value
    if referred is not None:  # a weak reference, live only while the caller holds its table
        assert _live(table, fact) is referred
        del referred
        gc.collect()
        assert _live(table, fact) is None


# -- set_function: the ordinal transforms -------------------------------------------


def ordinal_paths(mu):
    """The paths of ``ordinal_mobius(mu)`` and of ``ordinal_zeta`` of its result:
    "copy" or "kept" where the transform runs no lattice pass, else "pass". The
    result refers to ``mu`` exactly where ordinal_zeta returns mu's table."""
    with recording((subsets, "lattice")) as calls:
        om = ordinal_mobius(mu)
        first = taken(calls)
        ordinal_zeta(om)
        second = taken(calls)
    assert first in ([], ["_below"]) and second in ([], ["_maximum"]), (first, second)
    assert _live(om, "_zeta") is (None if second else mu)
    return "pass" if first else "copy", "pass" if second else "kept"


FORMS = {  # a table in the form ordinal_mobius gets it, and whether that keeps a drop
    "capacity": (lambda t, n: as_capacity(t, n=n), True),
    "validate": (lambda t, n: validate(t).capacity, True),
    "Capacity(sf)": (lambda t, n: Capacity(SetFunction(n, t)), True),
    "bare table": (lambda t, n: SetFunction(n, t), False),
    "copy": (lambda t, n: copy.copy(as_capacity(t, n=n)), False),
    "pickle": (lambda t, n: pickle.loads(pickle.dumps(as_capacity(t, n=n))), False),
    "conjugate": (lambda t, n: conjugate(as_capacity(t, n=n)), False),
}
ORDINAL = [
    # the table, -0.0 at its empty set or not, its form, and the paths of both transforms
    ("strict", False, "capacity", ("copy", "kept")),
    ("strict", False, "validate", ("copy", "kept")),
    ("strict", False, "Capacity(sf)", ("copy", "kept")),
    ("strict", True, "capacity", ("copy", "pass")),
    ("exactly monotone", False, "capacity", ("pass", "kept")),
    ("exactly monotone", True, "capacity", ("pass", "pass")),
    ("an equal step", False, "capacity", ("pass", "kept")),
    ("an equal step", True, "capacity", ("pass", "pass")),
    ("monotone within tol", False, "capacity", ("pass", "pass")),
    ("exactly monotone", False, "bare table", ("pass", "pass")),
    ("strict", False, "copy", ("pass", "pass")),
    ("strict", False, "pickle", ("pass", "pass")),
    ("strict", False, "conjugate", ("pass", "pass")),
]


@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("table, signed, form, paths", ORDINAL, ids=[
    "%s%s-%s" % (r[0], ", -0.0 at the empty set" * r[1], r[2]) for r in ORDINAL])
def test_ordinal_paths(table, signed, form, paths, n):
    values = ORDINAL_TABLES[table](n, np.random.default_rng(300 + n))
    if signed:
        values[0] = -0.0
    build, keeps = FORMS[form]
    mu = build(values, n)
    assert vars(mu).get("_largest_drop") == (oracles.loop_drops(values).max() if keeps else None)
    assert ordinal_paths(mu) == paths


# -- interaction: a held Mobius table and kept Shapley values ------------------------

M = ["_mobius_pass", "_subtract"]  # a Mobius table of the call's own
FRESH = (M + ["_up", "_up"], M + ["_up"], M + ["_up"])
HELD = (["_up", "_up"], ["_up"], ["_up"])


INTERACTION = [
    # kind, n, the capacity called on and what the caller holds, from one at n,
    # and the calls of a report, of each of two shapley calls and of a report after
    ("fresh capacity", 1, lambda mu: (mu, None), (M + ["_up"], M + ["_up"], M)),
    ("fresh capacity", 8, lambda mu: (mu, None), FRESH),
    ("held mobius(mu)", 8, lambda mu: (mu, mobius(mu)), HELD),
    ("held mobius(mu), a second one dropped", 8, lambda mu: (mu, (mobius(mu), mobius(mu))[0]),
     HELD),
    ("dropped mobius(mu)", 8, lambda mu: (mu, mobius(mu).n), FRESH),
    ("held mobius of a type that cannot be hashed", 5,
     lambda mu: (hashed := HashedCapacity(mu.n, mu.values), mobius(hashed)), HELD),
    ("copy of a capacity that keeps both facts", 8,
     lambda mu: (copy.copy(mu), (mobius(mu), shapley(mu))), FRESH),
]


@pytest.mark.parametrize("kind, n, prepare, paths", INTERACTION,
                         ids=["%s-%d" % r[:2] for r in INTERACTION])
def test_interaction_paths(kind, n, prepare, paths):
    mu, held = prepare(random_capacity(np.random.default_rng(30 + n), n))
    report, once, after = paths
    steps = [(interaction_report, report), (shapley, once), (shapley, once),
             (interaction_report, after)]
    with recording((capacities.set_function, "_mobius_pass"), (subsets, "lattice")) as calls:
        for call, want in steps:
            out = call(mu)
            assert all(args[0] is mu.values for name, args in calls if name == "_mobius_pass")
            assert taken(calls) == want, call
    kept = vars(mu)["_shapley"]  # a read-only copy of what shapley returned
    assert kept.tobytes() == out.shapley.tobytes() and not kept.flags.writeable


@pytest.mark.parametrize("n, budget", [(16, 11), (20, 10.0625)])
def test_a_report_reads_a_held_mobius_table(n, budget):
    # Bytes per subset beside UFUNC_BUFFERS: while the caller holds mobius(mu), a report
    # needs TestMemory's budget less one Mobius table, which it builds once m is dropped.
    mu = random_capacity(np.random.default_rng(18), n)
    m = mobius(mu)
    held = peak_above_input(lambda: interaction_report(mu))
    assert held <= budget * (1 << n) + UFUNC_BUFFERS
    del m
    fresh = peak_above_input(lambda: interaction_report(mu))
    assert fresh - held >= 8 * (1 << n) - 1024


# -- axioms: the block schedule -----------------------------------------------------

AXIOMS = [
    # extension, n, and the row-kernel calls of a verify run of every axiom at 250 samples
    ("choquet", 4, 15), ("choquet", 8, 21), ("mle", 4, 13), ("mle", 8, 14),
    ("sipos", 4, 17), ("sipos", 8, 23), ("sugeno_product", 4, 17), ("sugeno_product", 8, 23),
]


@pytest.mark.parametrize("name, n, total", AXIOMS)
def test_axiom_kernel_calls(name, n, total, tmp_path):
    # Each axiom makes one row-kernel call for its first 32 trials, then one per 1,024,
    # up to a counterexample; a verify run makes those of its axioms in turn.
    mu = random_capacity(np.random.default_rng(n), n)
    ext = make_extension(name, mu)
    unit = dict(score_bounds=(0.0, 1.0), alpha_bounds=(1e-3, 1.0)) if ext.domain == "unit" else {}
    cfg = AxiomCheckConfig(samples=250, seed=42, **unit)
    blocks = []
    with recording((Extension, "_values")) as calls:
        for axiom in AXIOM_NAMES:
            report = check_axiom(axiom, ext, mu, cfg)
            trials = report.samples_tested + report.skipped
            rows = [t.shape[0] for _, (_, t) in calls]
            calls.clear()
            assert len(rows) == 1 + math.ceil(max(0, trials - 32) / 1024), (axiom, trials, rows)
            blocks += rows
        args = verify_args(tmp_path, mu, mu, name, cfg, AXIOM_NAMES)
        args.func(args)
    assert [t.shape[0] for _, (_, t) in calls] == blocks
    assert len(blocks) == total, len(blocks)


@pytest.mark.parametrize("p, count, lengths, draws", [
    (0, 5, [5], [5]),
    (3, 2000, [32, 1024, 947], [29, 1024, 947]),
    (40, 1000, [32, 1008], [1000]),
    (1100, 0, [32, 1024, 44], []),
])
def test_axiom_blocks_of_32_trials_then_1024(p, count, lengths, draws):
    # The probes, then the draws, in order: each column runs 0, 1, ... across blocks.
    probes = (np.arange(p), -np.arange(p))
    asked = []

    def draw(k):
        start = p + sum(asked)
        asked.append(k)
        return np.arange(start, start + k), -np.arange(start, start + k)

    blocks = list(axioms._blocks(probes, draw, count))
    assert [len(b[0]) for b in blocks] == lengths and asked == draws
    for col, sign in zip(zip(*blocks), (1, -1)):
        assert np.concatenate(col).tolist() == (sign * np.arange(p + count)).tolist()


# -- model: one batch per ranking -----------------------------------------------------

MODEL = [
    # kind, the acts a two-criteria model ranks, and the calls of the per-act reader
    ("level names", [("neutral", "good"), ("good", "neutral"), ("good", "good")], 0),
    ("level names and numbers", [("good", 0.5), (0.25, "neutral")], 0),
    ("integers past 2**53", [(1, -2), (2**53 + 1, -(2**62) - 1), (0, 2**63 - 1)], 0),
    ("an integer past 64 bits", [(2**64, 0), (1, 1)], 2),
]


@pytest.mark.parametrize("kind, entries, loops", MODEL, ids=[r[0] for r in MODEL])
def test_model_ranks_in_one_batch(kind, entries, loops):
    model = AggregationModel(capacity=as_capacity([0.0, 0.5, 0.5, 1.0]), extension="sipos")
    with recording((capacities.model, "_utilities"), (Extension, "many")) as calls:
        rank_acts(model, [Act(e) for e in entries])
    assert [args[1].shape for name, args in calls if name == "many"] == [(len(entries), 2)]
    assert taken(calls) == ["_utilities"] * loops + ["many"]
