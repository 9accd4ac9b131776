import dataclasses
import re
import struct
import warnings

import numpy as np
import pytest

import capacities.model
import oracles
from capacities import (
    Act,
    AggregationModel,
    CapacitiesError,
    DimensionMismatch,
    Extension,
    InvalidFormat,
    NonPositiveSingleton,
    NotNormalized,
    OutOfDomain,
    RankedAct,
    UnknownLevel,
    UtilityScale,
    acts_from_obj,
    as_capacity,
    capacity_from_binary_acts,
    default_scale,
    evaluate_act,
    make_extension,
    model_from_dict,
    rank_acts,
)
from helpers import random_capacity

HALF = as_capacity([0.0, 0.5, 0.5, 1.0])

# the four acts over {bad, neutral, good} used by the two-criteria scenario
X = Act(("neutral", "neutral"), label="x")
Y = Act(("good", "neutral"), label="y")
Z = Act(("good", "good"), label="z")
T = Act(("neutral", "good"), label="t")


def sipos_model(mu=HALF):
    return AggregationModel(capacity=mu, extension="sipos")


class TestUtilityScale:
    def test_reference_levels_are_pinned(self):
        s = UtilityScale(1, {"neutral": 0.0, "good": 1.0, "bad": -1.5})
        assert s.utility("neutral") == 0.0
        assert s.utility("good") == 1.0
        assert s.utility("bad") == -1.5

    def test_missing_or_shifted_references_rejected(self):
        with pytest.raises(InvalidFormat):
            UtilityScale(1, {"good": 1.0})
        with pytest.raises(InvalidFormat):
            UtilityScale(1, {"neutral": 0.1, "good": 1.0})
        with pytest.raises(InvalidFormat):
            UtilityScale(1, {"neutral": 0.0, "good": 0.9})

    def test_unknown_level(self):
        s = default_scale(2)
        with pytest.raises(UnknownLevel, match="excellent"):
            s.utility("excellent")

    def test_level_values_must_be_numbers(self):
        for value in ("high", True, np.bool_(True)):
            with pytest.raises(InvalidFormat, match="level 'odd' must be a number"):
                UtilityScale(1, {"neutral": 0.0, "good": 1.0, "odd": value})

    def test_numpy_scalars_are_numbers(self):
        # np.int64 criteria and levels and np.float32 levels were refused
        s = UtilityScale(np.int64(2), {"neutral": np.int64(0), "good": np.float32(1.0),
                                       "bad": np.float32(-0.5)})
        assert type(s.criterion) is int and s.criterion == 2
        assert s.levels == {"neutral": 0.0, "good": 1.0, "bad": -0.5}
        assert all(type(u) is float for u in s.levels.values())

    @pytest.mark.parametrize("criterion", [True, np.bool_(True), 1.0, 0])
    def test_criterion_must_be_a_positive_integer(self, criterion):
        # True was taken as criterion 1
        with pytest.raises(InvalidFormat, match="criterion must be a 1-based index"):
            UtilityScale(criterion, {"neutral": 0.0, "good": 1.0})


class TestModelConstruction:
    def test_rejects_unknown_extension(self):
        with pytest.raises(InvalidFormat, match="unknown extension"):
            AggregationModel(capacity=HALF, extension="median")

    @pytest.mark.parametrize("values, text", [
        ([0.0, 0.0, 0.6, 1.0], r"^singleton weight mu\(\{1\}\) = 0 is not strictly positive$"),
        ([0.0, 0.3, -0.0, 1.0], r"^singleton weight mu\(\{2\}\) = -0 is not strictly positive$"),
    ], ids=["first", "negative-zero-second"])
    def test_rejects_zero_singleton(self, values, text):
        # built without the singleton rule, the capacity meets it in the model,
        # with the text its constructors give
        mu = as_capacity(values)
        with pytest.raises(NonPositiveSingleton, match=text):
            AggregationModel(capacity=mu, extension="sipos")
        with pytest.raises(NonPositiveSingleton, match=text):
            as_capacity(values, require_positive_singletons=True)

    def test_cpt_requires_loss_capacity(self):
        with pytest.raises(CapacitiesError, match="second capacity"):
            AggregationModel(capacity=HALF, extension="cpt")
        with pytest.raises(CapacitiesError, match="only the cpt extension"):
            AggregationModel(capacity=HALF, extension="sipos", capacity_losses=HALF)

    def test_scales_fill_in_defaults(self):
        model = AggregationModel(
            capacity=HALF,
            extension="sipos",
            scales=(UtilityScale(2, {"neutral": 0.0, "good": 1.0, "bad": -1.0}),),
        )
        assert model.scales[0].criterion == 1
        assert model.scales[1].utility("bad") == -1.0
        model = AggregationModel(capacity=HALF, extension="sipos",
                                 scales=(UtilityScale(np.int64(2), model.scales[1].levels),))
        assert [type(s.criterion) for s in model.scales] == [int, int]
        assert [s.criterion for s in model.scales] == [1, 2]

    def test_duplicate_scales_rejected(self):
        with pytest.raises(InvalidFormat):
            AggregationModel(
                capacity=HALF,
                extension="sipos",
                scales=(default_scale(1), default_scale(1)),
            )


class TestBinaryActs:
    def test_valid_table(self):
        mu = capacity_from_binary_acts(
            2, {"": 0.0, "1": 0.3, "2": 0.6, "1,2": 1.0}
        )
        assert mu[0b01] == 0.3
        assert mu[0b10] == 0.6
        # np.int64 n and values and np.float32 values were refused
        mu = capacity_from_binary_acts(
            np.int64(2), {"": np.int64(0), "1": np.float32(0.25), "2": 0.6, "1,2": np.int64(1)}
        )
        assert type(mu.n) is int and mu.values.tolist() == [0.0, 0.25, 0.6, 1.0]

    @pytest.mark.parametrize("value", ["x", True, np.bool_(True), None])
    def test_value_that_is_not_a_number_rejected(self, value):
        with pytest.raises(InvalidFormat, match=r"attractiveness of \{1\} must be a number"):
            capacity_from_binary_acts(2, {"": 0.0, "1": value, "2": 0.6, "1,2": 1.0})

    def test_zero_singleton_rejected(self):
        with pytest.raises(NonPositiveSingleton) as err:
            capacity_from_binary_acts(2, {"": 0.0, "1": 0.0, "2": 0.6, "1,2": 1.0})
        assert err.value.criterion == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            capacity_from_binary_acts(2, {"": 0.1, "1": 0.3, "2": 0.6, "1,2": 1.0})

    def test_non_finite_value_rejected(self):
        with pytest.raises(InvalidFormat, match="values must contain only finite numbers"):
            capacity_from_binary_acts(2, {"": 0.0, "1": 0.3, "2": float("nan"), "1,2": 1.0})

    def test_mixed_key_styles(self):
        mu = capacity_from_binary_acts(
            2, {0: 0.0, (1,): 0.3, "2": 0.6, 0b11: 1.0}
        )
        assert mu[0b01] == 0.3

    def test_missing_subset_named(self):
        with pytest.raises(InvalidFormat, match=r"\{2\}"):
            capacity_from_binary_acts(2, {"": 0.0, "1": 0.3, "1,2": 1.0})

    @pytest.mark.parametrize(
        "key, match",
        [(True, "a subset must be"), (3.0, "a subset must be"), (None, "a subset must be"),
         (2, "subset mask 2 out of range for n = 1"), ((1, 1), "criterion index 1 is repeated")],
        ids=["bool", "float", "none", "mask-out-of-range", "repeated-index"],
    )
    def test_key_that_is_not_a_subset_rejected(self, key, match):
        with pytest.raises(InvalidFormat, match=match):
            capacity_from_binary_acts(1, {0: 0.0, key: 1.0})

    def test_duplicate_subset_rejected(self):
        with pytest.raises(InvalidFormat, match="duplicate"):
            capacity_from_binary_acts(2, {"1": 0.3, (1,): 0.4, "": 0.0, "2": 0.6, "1,2": 1.0})


class TestEvaluate:
    def test_reference_acts(self):
        rng = np.random.default_rng(0)
        for name in ("choquet", "sipos", "mle", "smle", "sugeno_product"):
            mu = random_capacity(rng, 3)
            model = AggregationModel(capacity=mu, extension=name)
            assert evaluate_act(model, ("neutral",) * 3) == pytest.approx(0.0, abs=1e-12)
            assert evaluate_act(model, ("good",) * 3) == pytest.approx(1.0, abs=1e-12)

    def test_good_on_subset_recovers_capacity(self):
        rng = np.random.default_rng(1)
        mu = random_capacity(rng, 3)
        model = AggregationModel(capacity=mu, extension="sipos")
        for mask in range(1, 8):
            act = tuple("good" if mask >> i & 1 else "neutral" for i in range(3))
            assert evaluate_act(model, act) == pytest.approx(mu[mask], abs=1e-12)

    def test_numbers_bypass_scales(self):
        model = sipos_model()
        assert evaluate_act(model, (0.5, 0.2)) == pytest.approx(0.35, abs=1e-12)

    def test_cpt_model(self):
        model = AggregationModel(capacity=HALF, extension="cpt", capacity_losses=HALF)
        assert evaluate_act(model, ("good", "neutral")) == pytest.approx(0.5, abs=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            evaluate_act(sipos_model(), ("good",))

    def test_unknown_level_propagates(self):
        with pytest.raises(UnknownLevel):
            evaluate_act(sipos_model(), ("good", "stellar"))


class TestRanking:
    def test_two_criteria_scenario(self):
        ranked = rank_acts(sipos_model(), [X, Y, Z, T])
        assert [r.act.label for r in ranked] == ["z", "y", "t", "x"]
        scores = [r.score for r in ranked]
        assert scores == pytest.approx([1.0, 0.5, 0.5, 0.0], abs=1e-12)
        assert [r.indifferent_to_previous for r in ranked] == [False, False, True, False]
        assert [r.position for r in ranked] == [1, 2, 3, 4]
        # equal gaps either side of the tied pair
        assert scores[1] - scores[3] == pytest.approx(scores[0] - scores[1], abs=1e-12)

    def test_extremal_weights_collapse_top_group(self):
        mu = capacity_from_binary_acts(2, {"": 0.0, "1": 1.0, "2": 1.0, "1,2": 1.0})
        ranked = rank_acts(sipos_model(mu), [X, Y, Z, T])
        assert [r.act.label for r in ranked] == ["y", "z", "t", "x"]
        assert [r.score for r in ranked] == pytest.approx([1.0, 1.0, 1.0, 0.0], abs=1e-12)
        assert [r.indifferent_to_previous for r in ranked] == [False, True, True, False]

    def test_ranking_invariant_under_common_rescaling(self):
        rng = np.random.default_rng(2)
        mu = random_capacity(rng, 2)
        acts = [(0.7, -0.3), (0.2, 0.9), (-1.0, 1.4), (0.0, 0.0)]
        for name in ("sipos", "choquet"):
            model = AggregationModel(capacity=mu, extension=name)
            base = [r.index for r in rank_acts(model, acts)]
            for alpha in (0.1, 3.0, 17.5):
                scaled = [tuple(alpha * v for v in a) for a in acts]
                assert [r.index for r in rank_acts(model, scaled)] == base

    def test_single_act(self):
        ranked = rank_acts(sipos_model(), [Z])
        assert len(ranked) == 1
        assert ranked[0].position == 1
        assert not ranked[0].indifferent_to_previous

    def test_empty_list_rejected(self):
        with pytest.raises(CapacitiesError):
            rank_acts(sipos_model(), [])

    def test_to_dict(self):
        d = rank_acts(sipos_model(), [Y])[0].to_dict()
        assert d == {
            "position": 1,
            "index": 0,
            "label": "y",
            "entries": ["good", "neutral"],
            "score": pytest.approx(0.5),
            "indifferent_to_previous": False,
        }

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol used to drop the indifference flag of exact duplicates
        with pytest.raises(InvalidFormat, match="tol"):
            rank_acts(sipos_model(), [Y, Y], tol=tol)

    def test_zero_tol_still_chains_exact_duplicates(self):
        ranked = rank_acts(sipos_model(), [Y, Z, Y], tol=0.0)
        assert [(r.index, r.indifferent_to_previous) for r in ranked] == [
            (1, False), (0, False), (2, True)
        ]

    def test_scores_match_evaluate_act(self):
        rng = np.random.default_rng(5)
        mu = random_capacity(rng, 5)
        entries = ["good", "neutral", 0.25, -1.5]
        acts = [tuple(entries[j] for j in rng.integers(0, 4, 5)) for _ in range(30)]
        for name in ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt"):
            model = AggregationModel(mu, name, capacity_losses=mu if name == "cpt" else None)
            for r in rank_acts(model, acts):
                assert r.score == pytest.approx(evaluate_act(model, acts[r.index]), abs=1e-12)

    @pytest.mark.parametrize("name", ["choquet", "mle"])
    def test_overflowing_act_is_out_of_domain_without_warning(self, name):
        # m({1, 2}) = 0.1: the product t1 * t2 overflows in every form
        model = AggregationModel(capacity=as_capacity([0.0, 0.3, 0.6, 1.0]), extension=name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfDomain):
                rank_acts(model, [(0.5, 0.5), (1e308, -1e308)])

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e300])
    def test_chains_match_the_grouping_loop(self, tol):
        # Under mu = [0, 1] on one criterion, choquet scores the act [s] as exactly s.
        model = AggregationModel(capacity=as_capacity([0.0, 1.0]), extension="choquet")
        pool = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 1.0 + 1e-9, 1.0 - 5e-10, -3.5]
        rng = np.random.default_rng(13)
        for _ in range(300):
            scores = [pool[k] for k in rng.integers(0, len(pool), rng.integers(1, 13))]
            got = [
                (r.position, r.index, type(r.score), struct.pack("d", r.score),
                 r.indifferent_to_previous)
                for r in rank_acts(model, [(s,) for s in scores], tol=tol)
            ]
            want = [
                (p, k, float, struct.pack("d", s), flag)
                for p, k, s, flag in oracles.loop_indifference_chains(scores, tol)
            ]
            assert got == want, scores

    def test_key_sort_matches_the_lexsort_tail(self):
        # Under mu = [0, 1] on one criterion, choquet scores the act [s] as exactly s,
        # -0.0 too (sipos would give +0.0 there).
        model = AggregationModel(capacity=as_capacity([0.0, 1.0]), extension="choquet")
        ties = [0.0, -0.0, 5e-324, -5e-324, 1.0, -3.5]
        steps = [0.0, 5e-10, 1e-9, 0.02, 0.05, 0.3]
        rng = np.random.default_rng(45)
        sizes = [1, 2, 300] + rng.integers(1, 301, 400).tolist()
        for k in sizes:
            # exact ties, walks whose steps chain past tol end to end, and gaps between
            # +-1.7e308 that overflow
            walk = np.cumsum(rng.choice(steps, k)) + rng.choice(ties)
            pool = np.concatenate([rng.choice(ties, k), walk, rng.choice([1.7e308, -1.7e308], k)])
            scores = rng.choice(pool, k, p=np.repeat(rng.dirichlet(np.ones(3)) / k, k))
            acts = [Act((s,), label=str(j)) for j, s in enumerate(scores.tolist())]
            for tol in (0.0, 1e-9, 0.05, 1e308):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = rank_acts(model, acts, tol=tol)
                    want = [
                        RankedAct(position=p, index=j, act=acts[j], score=s,
                                  indifferent_to_previous=flag)
                        for p, j, s, flag in oracles.lexsort_ranking(scores, tol)
                    ]
                assert got == want, (scores, tol)
                assert list(map(repr, got)) == list(map(repr, want))
                assert list(map(vars, got)) == list(map(vars, want))
                assert [struct.pack("d", r.score) for r in got] == [
                    struct.pack("d", r.score) for r in want]
                assert {tuple(map(type, vars(r).values())) for r in got} == {
                    (int, int, Act, float, bool)}

    def test_an_infinite_gap_breaks_the_chain_without_warning(self):
        # 1e308 - (-1e308) overflows to inf in the adjacent differences.
        model = AggregationModel(capacity=as_capacity([0.0, 1.0]), extension="choquet")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranked = rank_acts(model, [(-1e308,), (1e308,)], tol=1e300)
        assert [(r.index, r.indifferent_to_previous) for r in ranked] == [(1, False), (0, False)]

    def test_errors_name_the_bad_act_kind(self):
        # the first bad act raises, whatever follows it
        with pytest.raises(DimensionMismatch, match="^act has 1 entries but the model has 2 criteria$"):
            rank_acts(sipos_model(), [X, ("good",), ("good", "stellar"), ("good", 0.5, 1.0)])
        with pytest.raises(UnknownLevel, match="^criterion 2 has no level named 'stellar'$"):
            rank_acts(sipos_model(), [X, ("good", "stellar"), ("good",)])
        with pytest.raises(OutOfDomain):
            rank_acts(sipos_model(), [X, (float("inf"), 0.0)])

    def test_extension_without_batch_ranks_in_one_fn_call(self, monkeypatch):
        calls = []

        def plain(name, mu, losses=None):
            ext = make_extension(name, mu, losses)

            def fn(t):
                calls.append(t.shape)
                return ext.fn(t)

            return Extension(ext.name, ext.n, ext.domain, fn)

        monkeypatch.setattr(capacities.model, "make_extension", plain)
        ranked = rank_acts(sipos_model(), [X, Y, Z, T])
        assert calls == [(4, 2)]
        assert [r.act.label for r in ranked] == ["z", "y", "t", "x"]
        assert [r.indifferent_to_previous for r in ranked] == [False, False, True, False]


    def test_ranked_acts_are_the_constructor_built_ones(self):
        acts = [X, Y, Z, T, Y]
        ranked = rank_acts(sipos_model(), acts)
        for r in ranked:
            built = RankedAct(position=r.position, index=r.index, act=acts[r.index],
                              score=r.score, indifferent_to_previous=r.indifferent_to_previous)
            assert r == built
            assert repr(r) == repr(built)
            assert r.to_dict() == built.to_dict()
            assert [type(getattr(r, f.name)) for f in dataclasses.fields(RankedAct)] == [
                int, int, Act, float, bool
            ]
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.score = 2.0
        assert ranked[-1].to_dict() == {
            "position": 5,
            "index": 0,
            "label": "x",
            "entries": ["neutral", "neutral"],
            "score": 0.0,
            "indifferent_to_previous": False,
        }


# level names of the bench-style scales below, besides "neutral" and "good"
LEVELS = ("neutral", "good", "bad", "poor", "fair", "great")


def bench_style_model(rng, n, name="choquet"):
    """A model with four extra levels per criterion, as in the rank workload."""
    scales = tuple(
        UtilityScale(i, {
            "neutral": 0, "good": 1, "bad": -round(rng.uniform(0.5, 1.5), 3),
            "poor": -round(rng.uniform(0.05, 0.4), 3), "fair": round(rng.uniform(0.3, 0.7), 3),
            "great": round(rng.uniform(1.2, 2.0), 3),
        })
        for i in range(1, n + 1)
    )
    return AggregationModel(random_capacity(rng, n), name, scales=scales)


def bench_style_entries(rng, n, count):
    """Acts as lists of entries: about 60 % level names, the rest numbers, with
    about 15 % exact repeats of an earlier act."""
    out = []
    for _ in range(count):
        if out and rng.random() < 0.15:
            out.append(list(out[rng.integers(len(out))]))
        else:
            out.append([
                LEVELS[rng.integers(len(LEVELS))] if rng.random() < 0.6
                else round(float(rng.uniform(-1.5, 2.5)), 3)
                for _ in range(n)
            ])
    return out


# entries that must be read exactly as float() reads them, or rejected as the loop rejects them
ODD_ENTRIES = (
    "1.5", "stellar", "Good", "", " good", np.str_("fair"),
    2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -(2**63) - 1, 2**53 + 1, 7, 0, -3,
    10**400, -(10**400), 2**1024,
    np.float32(0.1), np.float32(-2.5), np.int64(-7), np.int64(2**62 + 1), np.uint64(2**64 - 1),
    np.uint64(2**53 + 1), np.float64(0.3), np.float16(0.1), np.longdouble(1.1),
    -0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324, 1e308,
)


def mutate(rng, entries, n):
    """One of: an odd entry in place of one, an act one entry short or long, a
    repeated act, or a whole act of one odd entry."""
    kind = rng.integers(5)
    k = rng.integers(len(entries))
    if kind < 2:
        if entries[k]:
            entries[k][rng.integers(len(entries[k]))] = ODD_ENTRIES[rng.integers(len(ODD_ENTRIES))]
    elif kind == 2:
        entries[k] = entries[k][:-1] if rng.random() < 0.5 else entries[k] + ["good"]
    elif kind == 3:
        entries.insert(rng.integers(len(entries) + 1), list(entries[k]))
    else:
        entries[k] = [ODD_ENTRIES[rng.integers(len(ODD_ENTRIES))]] * n


def read_with(reader, model, entries):
    """The utility matrix's dtype, shape and bytes, or the first error's type and text."""
    try:
        acts = [Act(tuple(e)) for e in entries]
        utilities = reader(model, acts)
    except CapacitiesError as exc:
        return type(exc), str(exc)
    return utilities.dtype, utilities.shape, utilities.tobytes(), utilities.flags.c_contiguous


class TestUtilityMatrix:
    """``rank_acts``'s column reader against the act-by-act loop it replaced."""

    def test_columns_match_the_act_loop(self):
        rng = np.random.default_rng(17)
        outcomes = set()
        for case in range(400):
            n = (1, 2, 3, 6)[case % 4]
            model = bench_style_model(rng, n)
            entries = bench_style_entries(rng, n, int(rng.integers(1, 13)))
            for _ in range(rng.integers(4)):
                mutate(rng, entries, n)
            got = read_with(capacities.model._utility_matrix, model, entries)
            want = read_with(oracles.loop_utilities, model, entries)
            assert got == want, entries
            outcomes.add(got[0])
        # every outcome was drawn, a whole matrix included
        assert outcomes == {np.dtype(np.float64), DimensionMismatch, UnknownLevel, InvalidFormat}

    def test_level_names_are_read_without_the_act_loop(self, monkeypatch):
        rng = np.random.default_rng(3)
        model = bench_style_model(rng, 6)
        entries = bench_style_entries(rng, 6, 200)
        monkeypatch.setattr(capacities.model, "_utilities", None)
        got = capacities.model._utility_matrix(model, [Act(tuple(e)) for e in entries])
        want = oracles.loop_utilities(model, [Act(tuple(e)) for e in entries])
        assert got.tobytes() == want.tobytes()

    def test_integer_entries_are_read_without_the_act_loop(self, monkeypatch):
        # columns of ints are int64 arrays; past 2**53 they round as float() rounds
        model = bench_style_model(np.random.default_rng(4), 3)
        entries = [(1, 0, -2), (2**53 + 1, -(2**62) - 1, 5), (0, 3, 2**63 - 1)]
        acts = [Act(e) for e in entries]
        want = oracles.loop_utilities(model, acts)
        monkeypatch.setattr(capacities.model, "_utilities", None)
        assert capacities.model._utility_matrix(model, acts).tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", ["1.5", "inf", "nan", "0"])
    def test_numeric_unknown_level_names_raise_unknown_level(self, entry):
        # a float64 dtype would have parsed them as numbers
        with pytest.raises(UnknownLevel) as raised:
            rank_acts(sipos_model(), [X, ("good", entry), ("good", "stellar")])
        assert str(raised.value) == str(UnknownLevel(2, entry))


MODEL_OBJ = {"capacity": {"n": 2, "values_by_mask": [0, 0.5, 0.5, 1]}, "extension": "sipos"}


class TestModelParsing:
    def test_round_trip(self):
        obj = {
            "capacity": {"n": 2, "values_by_mask": [0.0, 0.5, 0.5, 1.0]},
            "extension": "sipos",
            "scales": {"1": {"neutral": 0, "good": 1, "bad": -1}},
        }
        model = model_from_dict(obj)
        assert evaluate_act(model, ("bad", "good")) == pytest.approx(-0.5 + 0.5)
        assert model.scales[1].levels == {"neutral": 0.0, "good": 1.0}

    def test_missing_fields(self):
        with pytest.raises(InvalidFormat, match="capacity"):
            model_from_dict({"extension": "sipos"})
        with pytest.raises(InvalidFormat, match="extension"):
            model_from_dict({"capacity": {"n": 1, "values_by_mask": [0.0, 1.0]}})

    def test_cpt_second_capacity(self):
        obj = {
            "capacity": {"n": 2, "values_by_mask": [0.0, 0.5, 0.5, 1.0]},
            "capacity2": {"n": 2, "values_by_mask": [0.0, 0.5, 0.5, 1.0]},
            "extension": "cpt",
        }
        model = model_from_dict(obj)
        assert evaluate_act(model, (1.0, -1.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("build, error, match", [
        (lambda: UtilityScale(1, {"neutral": 0, "good": 1, 3: 0.5}), InvalidFormat,
         r"^level names must be strings, got 3$"),
        (lambda: AggregationModel(HALF, "sipos", scales=({"neutral": 0, "good": 1},)),
         InvalidFormat, r"^scales must be UtilityScale objects, got \{"),
        (lambda: AggregationModel(HALF, "sipos", scales=(default_scale(3),)), DimensionMismatch,
         r"^scale for criterion 3 but the capacity has n = 2$"),
        (lambda: model_from_dict([]), InvalidFormat, r"^model must be a JSON object, got 'list'$"),
        (lambda: model_from_dict({"capacity": {"n": 1, "values_by_mask": [0, 1]},
                                  "extension": "sipos", "scales": {"first": {}}}),
         InvalidFormat, r"^scale key 'first' is not a criterion number$"),
        # int() read each of these keys as criterion 2, and a level of inf or NaN
        # failed only when an act used it, naming neither level nor criterion
        *[(lambda key=key: model_from_dict({**MODEL_OBJ, "scales": {key: {}}}),
           InvalidFormat, "^%s$" % re.escape("scale key %r is not a criterion number" % key))
          for key in ("0_2", " 2", "2 ", "+2", "02", "\uff12", "2.0", "")],
        *[(lambda level=level: model_from_dict(
            {**MODEL_OBJ, "scales": {"2": {"neutral": 0, "good": 1, "best": level}}}),
           InvalidFormat, r"^level 'best' of criterion 2 must be finite, got %s$" % shown)
          for level, shown in ((float("inf"), "inf"), (float("-inf"), "-inf"),
                               (float("nan"), "nan"))],
        (lambda: acts_from_obj([{"entries": "ab"}]), InvalidFormat,
         r'^act 0: "entries" must be an array$'),
        # these raised a bare TypeError or AttributeError
        (lambda: Act(None), InvalidFormat,
         r"^act entries must be a sequence of level names and numbers, got 'NoneType'$"),
        # tuple() read each of these: "ab" as ("a", "b"), a dict as its keys, a set
        # in no fixed order
        *[(lambda entries=entries: Act(entries), InvalidFormat,
           r"^act entries must be a sequence of level names and numbers, got '%s'$"
           % type(entries).__name__)
          for entries in ("ab", b"ab", {"good": 1}, {"good", "neutral"}, frozenset({"good"}))],
        (lambda: Act(("good",), label=1), InvalidFormat,
         r"^expected a string for label, got 'int'$"),
        (lambda: rank_acts(sipos_model(), [["good", "neutral"], "gn"]), InvalidFormat,
         r"^act entries must be a sequence of level names and numbers, got 'str'$"),
        (lambda: evaluate_act(sipos_model(), 0.5), InvalidFormat,
         r"^act entries must be a sequence of level names and numbers, got 'float'$"),
        (lambda: rank_acts(sipos_model(), [X, None]), InvalidFormat,
         r"^act entries must be a sequence of level names and numbers, got 'NoneType'$"),
        (lambda: UtilityScale(1, 5), InvalidFormat,
         r"^levels must be a dict of level names to numbers, got 'int'$"),
        (lambda: UtilityScale(1, ["abc"]), InvalidFormat,
         r"^levels must be a dict of level names to numbers, got 'list'$"),
        (lambda: capacity_from_binary_acts(2, [1]), InvalidFormat,
         r"^attractiveness must be a dict of subsets to numbers, got 'list'$"),
    ], ids=["level-name", "scale-object", "scale-criterion", "model-list", "scale-key",
            "key-underscore", "key-leading-space", "key-trailing-space", "key-plus",
            "key-leading-zero", "key-full-width", "key-float", "key-empty",
            "level-inf", "level-minus-inf", "level-nan",
            "entries-string", "act-none", "act-str", "act-bytes", "act-dict", "act-set",
            "act-frozenset", "act-label-int", "ranked-act-str", "act-float", "ranked-act-none",
            "levels-int", "levels-list", "attractiveness-list"])
    def test_values_of_the_wrong_kind_are_named(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_acts_from_obj(self):
        acts = acts_from_obj(
            [["good", "neutral"], {"entries": [0.2, 0.4], "label": "direct"}]
        )
        assert acts[0].entries == ("good", "neutral")
        assert acts[1].label == "direct"
        # np.int64 and np.float32 entries were refused; a numpy bool still is
        (act,) = acts_from_obj([[np.int64(1), np.float32(0.5)]])
        assert evaluate_act(sipos_model(), act) == 0.75
        for entry in (True, np.bool_(True)):
            with pytest.raises(InvalidFormat, match="an act entry that is not a level name"):
                acts_from_obj([[entry, 0.5]])
        with pytest.raises(InvalidFormat):
            acts_from_obj({"entries": []})
        with pytest.raises(InvalidFormat):
            acts_from_obj([{"label": "no entries"}])


# Entries of an acts file: level names and doubles out to the edges of the range,
# which the type scan passes; ints and numpy scalars, which take the number
# check; and entries that are neither a level name nor a number, 2**1100 among
# them, since no double holds it.
PLAIN_ENTRIES = ["good", "neutral", "bad", "1.5", 0.0, -0.0, 5e-324, -5e-324, 1.79e308,
                 -1.79e308, 0.25, -3.5]
OTHER_ENTRIES = [0, 1, -7, 2**64, -2**64, np.int64(3), np.float32(0.5), np.float64(-0.0),
                 np.str_("good")]
BAD_ENTRIES = [True, False, None, [0.5], [], {"good": 1}, np.bool_(True), 2**1100, -2**1100]
# Items that are not an act: a number, a string, an object without "entries",
# entries that are not an array and a label that is not a string.
BAD_ITEMS = [5, 0.5, "ab", None, {"label": "x"}, {}, {"entries": "ab"},
             {"entries": ("good",)}, {"entries": None, "label": 3},
             {"entries": ["good"], "label": 3}, {"entries": ["good"], "label": None}]


def acts_file(rng):
    """A list of 0-40 acts in list and object forms, drawn at one of a few rates
    of bad entries and bad items."""
    bad_entry = rng.choice([0.0, 0.002, 0.01, 0.05])
    bad_item = rng.choice([0.0, 0.01, 0.05])
    other = rng.choice([0.0, 0.1, 0.5])
    form = rng.choice(["list", "object", "mixed"])
    items = []
    for _ in range(rng.integers(0, 41)):
        if rng.random() < bad_item:
            items.append(BAD_ITEMS[rng.integers(len(BAD_ITEMS))])
            continue
        entries = []
        for _ in range(rng.integers(0, 7)):
            u = rng.random()
            pool = (BAD_ENTRIES if u < bad_entry
                    else OTHER_ENTRIES if u < bad_entry + other else PLAIN_ENTRIES)
            entries.append(pool[rng.integers(len(pool))])
        as_list = form == "list" or form == "mixed" and rng.random() < 0.5
        if as_list:
            items.append(entries)
        elif rng.random() < 0.3:
            items.append({"entries": entries})
        else:
            items.append({"entries": entries, "label": "act %d" % len(items)})
    return items


def read(reader, obj):
    """The acts ``reader`` returns for ``obj``, or the class and text of what it raises."""
    try:
        return reader(obj), None
    except Exception as error:  # noqa: BLE001 - any exception must match the reference
        return None, (type(error), str(error))


class TestActsFromObj:
    def test_matches_the_act_by_act_reader(self):
        rng = np.random.default_rng(43)
        errors = 0
        for _ in range(400):
            obj = acts_file(rng)
            got, got_error = read(acts_from_obj, obj)
            want, want_error = read(oracles.loop_acts_from_obj, obj)
            assert got_error == want_error, obj
            if want_error is not None:
                errors += 1
                continue
            assert [type(a) for a in got] == [Act] * len(want)
            assert got == want
            assert [list(vars(a).items()) for a in got] == [list(vars(a).items()) for a in want]
            assert repr(got) == repr(want)
            assert all(type(a.entries) is tuple for a in got)
        # both outcomes are drawn often
        assert 100 <= errors <= 300, errors

    @pytest.mark.parametrize("obj, text", [
        ([["good", True], 5],
         "an act entry that is not a level name must be a number, got True"),
        ([["good"], {"entries": [0.5, None]}, {"label": "x"}],
         "an act entry that is not a level name must be a number, got None"),
        ([{"entries": [2**64, 2**1100]}, "ab"],
         "an act entry that is not a level name is an integer too large for a double"),
    ], ids=["list-then-number", "object-then-no-entries", "big-int-then-string"])
    def test_a_bad_entry_is_named_before_a_later_bad_act(self, obj, text):
        with pytest.raises(InvalidFormat, match="^%s$" % re.escape(text)):
            acts_from_obj(obj)

    @pytest.mark.parametrize("obj, text", [
        ([5, ["good", True]], "act 0 must be an array or an object"),
        ([["good", 0.5], {"entries": ["good"], "label": 3}, [None]],
         'act 1: "label" must be a string'),
    ], ids=["number-then-bool", "label-then-none"])
    def test_a_bad_act_is_named_before_a_later_bad_entry(self, obj, text):
        with pytest.raises(InvalidFormat, match="^%s$" % re.escape(text)):
            acts_from_obj(obj)

    def test_own_sets_every_field(self):
        # a field added to Act must be set by the parser's constructor too
        act = Act._own(("good", 0.5), "x")
        assert list(vars(act)) == [f.name for f in dataclasses.fields(Act)]
        assert act == Act(["good", 0.5], label="x") and repr(act) == repr(Act(("good", 0.5), "x"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            act.label = "y"
