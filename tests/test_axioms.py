import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from capacities import (
    AXIOM_NAMES,
    EXTENSION_NAMES,
    AxiomCheckConfig,
    CapacitiesError,
    DomainMismatch,
    Extension,
    PseudoProductReport,
    UnknownAxiom,
    as_capacity,
    certify,
    check_axiom,
    check_equivalence,
    check_pseudo_product,
    compare_extensions,
    make_extension,
    mle,
    mobius,
)
from capacities import axioms, cli
from capacities.subsets import parse_subset_key
from helpers import peak_above_input, random_additive_capacity, random_capacity

OVERLAP = as_capacity([0.0, 0.9, 0.9, 1.0])
CFG = AxiomCheckConfig(samples=300, seed=42)
UNIT_CFG = AxiomCheckConfig(
    samples=300, seed=42, score_bounds=(0.0, 1.0), alpha_bounds=(1e-3, 1.0)
)


def run_row(name, mu, cfg=None):
    ext = make_extension(name, mu)
    if cfg is None:
        cfg = UNIT_CFG if ext.domain == "unit" else CFG
    return {ax: check_axiom(ax, ext, mu, cfg) for ax in AXIOM_NAMES}


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(CapacitiesError):
            AxiomCheckConfig(samples=0)
        # a float ran into slicing or SeedSequence; True ran as 1 sample
        for field, value in (("samples", 2.5), ("samples", True), ("seed", 1.5),
                             ("seed", True), ("seed", None)):
            with pytest.raises(CapacitiesError, match="%s must be an integer" % field):
                AxiomCheckConfig(**{field: value})
        for seed in (-1, np.int64(-1)):  # numpy's seeding raised a bare ValueError
            with pytest.raises(CapacitiesError, match="seed must be >= 0"):
                AxiomCheckConfig(seed=seed)
        with pytest.raises(CapacitiesError):
            AxiomCheckConfig(tol=0.0)
        # a numpy-float span that overflows printed a RuntimeWarning first
        for bounds in ((2.0, 1.0), (np.float64(-1e308), np.float64(1e308))):
            with pytest.raises(CapacitiesError, match="score_bounds"):
                AxiomCheckConfig(score_bounds=bounds)
        with pytest.raises(CapacitiesError):
            AxiomCheckConfig(alpha_bounds=(0.0, 1.0))
        # an integer bound too large for a double passed, and check_axiom then
        # raised a bare OverflowError
        for field, value in (("score_bounds", (0, 10**400)), ("score_bounds", (-(10**400), 0)),
                             ("alpha_bounds", (1, 10**400))):
            with pytest.raises(CapacitiesError, match=field):
                AxiomCheckConfig(**{field: value})
        for tol in (np.nan, np.inf):
            with pytest.raises(CapacitiesError):
                AxiomCheckConfig(tol=tol)
        for bounds in ((1.0, np.inf), (np.inf, np.inf)):
            with pytest.raises(CapacitiesError):
                AxiomCheckConfig(alpha_bounds=bounds)
        # a string tol or bound raised a bare TypeError, three bounds a bare
        # ValueError; True ran as tol 1
        for field, value in (("tol", "x"), ("tol", True), ("score_bounds", ("a", "b")),
                             ("alpha_bounds", (1, "b")), ("score_bounds", (1, 2, 3)),
                             ("score_bounds", (False, True)), ("alpha_bounds", 1.0)):
            with pytest.raises(CapacitiesError, match=field):
                AxiomCheckConfig(**{field: value})

    def test_defaults(self):
        cfg = AxiomCheckConfig()
        assert cfg.samples == 1000
        assert cfg.seed == 42
        assert cfg.tol == 1e-9


class TestPropertyTable:
    def test_sipos_row(self):
        row = run_row("sipos", OVERLAP)
        for ax in ("HE", "A", "M", "M1", "I", "A1", "A2", "S1"):
            assert row[ax].passed, ax
        assert not row["C1"].passed

    def test_choquet_row(self):
        row = run_row("choquet", OVERLAP)
        for ax in ("HE", "A2", "M", "M1", "I", "C1"):
            assert row[ax].passed, ax
        for ax in ("A", "A1", "S1"):
            assert not row[ax].passed, ax

    def test_multilinear_row_on_unit_cube(self):
        row = run_row("mle", OVERLAP)
        for ax in ("A", "M", "M1", "A1"):
            assert row[ax].passed, ax
        for ax in ("HE", "I", "A2"):
            assert not row[ax].passed, ax

    def test_multilinear_monotone_fails_on_reals(self):
        ext = make_extension("mle", OVERLAP)
        cfg = dataclasses.replace(CFG, allow_out_of_domain=True)
        rep = check_axiom("M", ext, OVERLAP, cfg)
        assert not rep.passed
        ce = rep.counterexample
        assert ce is not None
        lo = np.array(ce.inputs["t"])
        hi = np.array(ce.inputs["t_above"])
        m = mobius(OVERLAP)
        assert mle(m, lo) > mle(m, hi)

    def test_additive_capacity_passes_everything_linear(self):
        mu = random_additive_capacity(np.random.default_rng(0), 3)
        row = run_row("choquet", mu)
        for ax in AXIOM_NAMES:
            assert row[ax].passed, ax


class TestCounterexamples:
    def test_choquet_asymmetry_witness_reevaluates(self):
        ext = make_extension("choquet", OVERLAP)
        rep = check_axiom("A", ext, OVERLAP, CFG)
        ce = rep.counterexample
        assert ce is not None
        got = ext(ce.inputs["t"])
        assert got == pytest.approx(ce.got, abs=1e-12)
        assert ce.discrepancy == pytest.approx(abs(ce.got - ce.expected), abs=1e-12)
        # negative singleton weighted by the conjugate, not mu itself
        i = ce.inputs["criterion"]
        a = ce.inputs["value"]
        assert a < 0
        assert ce.got == pytest.approx(a * (1.0 - 0.9), abs=1e-9)
        assert ce.expected == pytest.approx(a * 0.9, abs=1e-9)
        assert i in (1, 2)

    def test_choquet_ratio_witness_straddles_zero(self):
        ext = make_extension("choquet", OVERLAP)
        rep = check_axiom("A1", ext, OVERLAP, CFG)
        ce = rep.counterexample
        assert ce is not None
        points = ce.inputs["points"]
        assert min(points) < 0 < max(points)

    def test_mle_homogeneity_witness(self):
        ext = make_extension("mle", OVERLAP)
        rep = check_axiom("HE", ext, OVERLAP, UNIT_CFG)
        ce = rep.counterexample
        assert ce is not None
        assert ce.expected == pytest.approx(ce.inputs["alpha"] * OVERLAP[0b11], abs=1e-9)

    def test_m1_witness_names_the_criterion_and_both_values(self):
        ext = Extension("neg", 2, "reals", lambda x: -x.sum(axis=1))
        ce = check_axiom("M1", ext, OVERLAP, CFG).counterexample
        assert ce.inputs == {"criterion": 1, "value": -1.0, "value_above": 1.0}
        assert (ce.got, ce.expected, ce.discrepancy) == (ext([-1.0, 0.0]), ext([1.0, 0.0]), 2.0)

    def test_to_dict_shape(self):
        ext = make_extension("choquet", OVERLAP)
        d = check_axiom("S1", ext, OVERLAP, CFG).to_dict()
        assert d["axiom"] == "S1"
        assert d["extension"] == "choquet"
        assert d["passed"] is False
        assert d["counterexample"]["discrepancy"] > 0
        passing = check_axiom("M", ext, OVERLAP, CFG).to_dict()
        assert passing["passed"] is True
        assert passing["counterexample"] is None


class TestHarness:
    def test_unknown_axiom(self):
        ext = make_extension("choquet", OVERLAP)
        with pytest.raises(UnknownAxiom):
            check_axiom("Z9", ext, OVERLAP, CFG)

    @pytest.mark.parametrize("name", [["HE"], None, 1, {"HE": 1}], ids=str)
    def test_a_name_that_is_not_a_string_is_an_unknown_axiom(self, name):
        # a list or a dict raised a bare TypeError: unhashable type
        ext = make_extension("choquet", OVERLAP)
        with pytest.raises(UnknownAxiom, match=r"^unknown axiom .*, expected one of HE, A, "):
            check_axiom(name, ext, OVERLAP, CFG)

    def test_dimension_guard(self):
        ext = make_extension("choquet", OVERLAP)
        mu3 = random_capacity(np.random.default_rng(1), 3)
        with pytest.raises(CapacitiesError):
            check_axiom("M", ext, mu3, CFG)

    @pytest.mark.parametrize("axiom, cfg, match", [
        ("M", CFG, r"samples scores on \[0, 1\]"),
        # on [0, 1] scores, the scaling factors above 1 of the default alpha bounds
        *((axiom, AxiomCheckConfig(score_bounds=(0.0, 1.0)), "scaling factors above 1")
          for axiom in ("HE", "I", "A2")),
    ], ids=["M", "HE", "I", "A2"])
    def test_unit_domain_guard(self, axiom, cfg, match):
        ext = make_extension("mle", OVERLAP)
        with pytest.raises(DomainMismatch, match=match):
            check_axiom(axiom, ext, OVERLAP, cfg)

    def test_deterministic_given_seed(self):
        ext = make_extension("choquet", OVERLAP)
        a = check_axiom("A1", ext, OVERLAP, CFG)
        b = check_axiom("A1", ext, OVERLAP, CFG)
        assert a.to_dict() == b.to_dict()

    def test_ratio_checks_report_skips(self):
        # sampled quadruples with a tiny denominator are skipped, not failed
        mu = random_additive_capacity(np.random.default_rng(2), 2)
        ext = make_extension("choquet", mu)
        rep = check_axiom("A2", ext, mu, AxiomCheckConfig(samples=500, seed=7))
        assert rep.passed
        assert rep.skipped > 0
        assert rep.samples_tested > 0

    @pytest.mark.parametrize("axiom", ["A1", "A2"])
    def test_a_ratio_whose_extension_side_is_flat_is_skipped(self, axiom):
        # The extension's denominator, 1e-12 * alpha * (a score or size gap), stays
        # within tol at alpha <= 1: no trial is compared, however the capacity's reads.
        ext = Extension("flat", 2, "reals", lambda t: 1e-12 * t.sum(axis=1))
        cfg = AxiomCheckConfig(samples=50, alpha_bounds=(1e-3, 1.0))
        report = check_axiom(axiom, ext, OVERLAP, cfg)
        assert (report.passed, report.samples_tested) == (True, 0) and report.skipped > 50

    @pytest.mark.parametrize("past", [False, True], ids=["on-the-bound", "one-step-past"])
    def test_a_gap_may_reach_the_bound_but_not_pass_it(self, past):
        # HE at t = 0.5 * e_1: expected 0.5 * mu({1}) = 0.125, bound tol * max(1, 0.125),
        # so got = 0.125 + 2**-20 is exactly on it, and its successor a step past it.
        mu = as_capacity([0.0, 0.25, 0.5, 1.0])
        cfg = AxiomCheckConfig(tol=2.0**-20)
        target = np.array([0.5, 0.0])
        on_bound = 0.125 + cfg.tol
        got = np.nextafter(on_bound, np.inf) if past else on_bound
        assert on_bound - 0.125 == cfg.tol * max(1.0, 0.125)

        def fn(t):
            # alpha * mu(A) at t = alpha * e_A, as the HE check computes it
            alpha = t.max(axis=1)
            values = alpha * mu.values[(t != 0.0) @ (1 << np.arange(2))]
            values[(t == target).all(axis=1)] = got
            return values

        report = check_axiom("HE", Extension("on-the-bound", 2, "reals", fn), mu, cfg)
        assert report.passed is not past
        if past:
            cx = report.counterexample
            assert cx.inputs == dict(alpha=0.5, subset="1", t=[0.5, 0.0])
            assert (cx.expected, cx.got) == (0.125, got)
        else:
            assert report.counterexample is None


class TestSampledHomogeneity:
    # Above 2**10 masks HE probes only {1} and N, then draws random trials.
    MU11 = random_capacity(np.random.default_rng(11), 11)

    def test_choquet_passes_with_random_trials(self):
        ext = make_extension("choquet", self.MU11)
        rep = check_axiom("HE", ext, self.MU11, CFG)
        sweep = 1 + 5 + 21  # 0, the alpha probes 1e-3, 1e3, 1, 0.5, 2, 21 steps
        assert rep.passed
        assert rep.samples_tested == 2 * sweep + CFG.samples
        assert rep.skipped == 0

    def test_multilinear_fails_on_unit_cube(self):
        ext = make_extension("mle", self.MU11)
        rep = check_axiom("HE", ext, self.MU11, UNIT_CFG)
        assert not rep.passed
        ce = rep.counterexample
        mask = parse_subset_key(ce.inputs["subset"], 11)
        assert ce.expected == pytest.approx(ce.inputs["alpha"] * self.MU11[mask])
        assert ext(ce.inputs["t"]) == ce.got


class TestAffineInvarianceAtHugeScores:
    # The sides of C1 carry roundoff of the size of alpha * t + beta, which
    # can dwarf a Choquet value that cancels to near 0.
    MU = as_capacity([0.0, 0.3, 0.5, 1.0])

    def test_choquet_passes(self):
        ext = make_extension("choquet", self.MU)
        cfg = AxiomCheckConfig(score_bounds=(-1e307, 1e307))
        assert check_axiom("C1", ext, self.MU, cfg).passed

    def test_sipos_still_fails(self):
        ext = make_extension("sipos", self.MU)
        cfg = AxiomCheckConfig(score_bounds=(-1e300, 1e300))
        rep = check_axiom("C1", ext, self.MU, cfg)
        assert not rep.passed
        assert rep.counterexample.discrepancy > 1e-3 * abs(rep.counterexample.expected)


class TestAffineInvarianceOutOfDomain:
    def test_mle_of_an_additive_capacity_fails_by_rounding(self):
        # A documented limitation: the Mobius coefficients of order >= 2 of an
        # additive capacity come out as rounding noise (up to 5.6e-17), and mle
        # multiplies them by score products near (alpha * max|t|)**|B|, ~4e15 here.
        mu = random_additive_capacity(np.random.default_rng(204), 4)
        cfg = AxiomCheckConfig(samples=120, seed=3, allow_out_of_domain=True)
        rep = check_axiom("C1", make_extension("mle", mu), mu, cfg)
        assert not rep.passed
        ce = rep.counterexample
        assert ce.inputs["alpha"] == pytest.approx(973.8492179540754)
        assert ce.expected == pytest.approx(1979.197352, abs=1e-6)
        assert ce.got == pytest.approx(1979.197333, abs=1e-6)
        higher = [mask for mask in range(16) if mask.bit_count() >= 2]
        assert np.abs(mobius(mu).coefficients[higher]).max() < 1e-16


class TestEquivalence:
    def test_sipos_bundles_both_pass(self):
        ext = make_extension("sipos", OVERLAP)
        rep = check_equivalence(ext, OVERLAP, CFG)
        assert rep.ratio_passed and rep.homogeneity_passed
        assert rep.consistent
        assert rep.monotone.passed
        assert set(rep.ratio_bundle) == {"A1", "A2", "I"}
        assert set(rep.homogeneity_bundle) == {"HE", "A"}

    def test_choquet_bundles_both_fail(self):
        ext = make_extension("choquet", OVERLAP)
        rep = check_equivalence(ext, OVERLAP, CFG)
        assert not rep.ratio_passed
        assert not rep.homogeneity_passed
        assert rep.consistent
        assert not rep.ratio_bundle["A1"].passed
        assert not rep.homogeneity_bundle["A"].passed

    def test_to_dict_round_trips_flags(self):
        ext = make_extension("sipos", OVERLAP)
        d = check_equivalence(ext, OVERLAP, CFG).to_dict()
        assert d["consistent"] is True
        assert d["monotone"]["passed"] is True


class TestPseudoProductChecker:
    def test_min_satisfies_all_conditions(self):
        rep = check_pseudo_product(certify(min, "min"))
        assert all(rep.conditions.values())
        assert rep.witnesses == {}
        assert rep.acts_as_min
        assert rep.max_min_gap <= 1e-12

    def test_product_fails_idempotence(self):
        rep = check_pseudo_product(certify(lambda a, b: a * b, "product"))
        assert rep.conditions["commutative"]
        assert rep.conditions["associative"]
        assert rep.conditions["one_neutral"]
        assert not rep.conditions["idempotent"]
        w = rep.witnesses["idempotent"]
        assert w["alpha"] == pytest.approx(0.5)
        assert w["value"] == pytest.approx(0.25)
        assert not rep.acts_as_min

    def test_lukasiewicz_fails_idempotence(self):
        rep = check_pseudo_product(
            certify(lambda a, b: max(0.0, a + b - 1.0), "lukasiewicz")
        )
        assert not rep.conditions["idempotent"]
        w = rep.witnesses["idempotent"]
        assert w["alpha"] == pytest.approx(0.5)
        assert w["value"] == pytest.approx(0.0)
        assert not rep.acts_as_min

    def test_accepts_raw_callable(self):
        rep = check_pseudo_product(min)
        assert rep.acts_as_min

    def test_non_commutative_witness(self):
        rep = check_pseudo_product(certify(lambda a, b: a, "left-projection"))
        assert not rep.conditions["commutative"]
        assert rep.witnesses["commutative"]["max_gap"] == pytest.approx(1.0)


def _counterexample_dict(c):
    return {"inputs": c.inputs, "expected": c.expected, "got": c.got,
            "discrepancy": c.discrepancy}


def _axiom_dict(r):
    return {
        "axiom": r.axiom,
        "extension": r.extension,
        "passed": r.passed,
        "samples_tested": r.samples_tested,
        "skipped": r.skipped,
        "counterexample": None if r.counterexample is None
        else _counterexample_dict(r.counterexample),
    }


def _equivalence_dict(e):
    return {
        "ratio_bundle": {k: _axiom_dict(r) for k, r in e.ratio_bundle.items()},
        "homogeneity_bundle": {k: _axiom_dict(r) for k, r in e.homogeneity_bundle.items()},
        "monotone": _axiom_dict(e.monotone),
        "ratio_passed": e.ratio_passed,
        "homogeneity_passed": e.homogeneity_passed,
        "consistent": e.consistent,
    }


def _pseudo_product_dict(p):
    return {"name": p.name, "conditions": dict(p.conditions), "witnesses": dict(p.witnesses),
            "acts_as_min": p.acts_as_min, "max_min_gap": p.max_min_gap}


@pytest.mark.parametrize("report, spelled_out", [
    (lambda: check_axiom("S1", make_extension("choquet", OVERLAP), OVERLAP, CFG), _axiom_dict),
    (lambda: check_axiom("M", make_extension("choquet", OVERLAP), OVERLAP, CFG), _axiom_dict),
    (lambda: check_equivalence(make_extension("choquet", OVERLAP), OVERLAP, CFG),
     _equivalence_dict),
    (lambda: check_pseudo_product(certify(lambda a, b: a * b, "product")),
     _pseudo_product_dict),
], ids=["failing", "passing", "equivalence", "pseudo-product"])
def test_to_dict_is_the_fields_written_out(report, spelled_out):
    rep = report()
    d, want = rep.to_dict(), spelled_out(rep)
    assert json.dumps(d) == json.dumps(want)  # same values in the same key order
    if isinstance(rep, PseudoProductReport):
        assert d["conditions"] is not rep.conditions and d["witnesses"] is not rep.witnesses


class TestCompareExtensions:
    def test_table_and_verdicts(self):
        points = [(1.0, 1.0), (3.0, 3.0), (0.0, 0.0)]
        cmpres = compare_extensions(OVERLAP, points, CFG)
        assert "cpt" not in cmpres.operators
        assert len(cmpres.operators) == 5
        assert cmpres.table.shape == (3, 5)
        for val in cmpres.table[0]:
            assert val == pytest.approx(1.0, abs=1e-9)
        for val in cmpres.table[2]:
            assert val == pytest.approx(0.0, abs=1e-9)
        col = cmpres.operators.index("mle")
        assert cmpres.table[1][col] == pytest.approx(-1.8, abs=1e-12)
        assert cmpres.verdicts["choquet"]["M"]
        assert not cmpres.verdicts["mle"]["M"]
        assert cmpres.verdicts["sipos"]["A1"]
        assert not cmpres.verdicts["choquet"]["A1"]

    def test_numpy_array_points_read_as_lists(self):
        points = [[0.5, 0.2], [1.0, -1.0]]
        got = compare_extensions(OVERLAP, np.array(points), CFG)
        want = compare_extensions(OVERLAP, points, CFG)
        assert got.points == want.points == ((0.5, 0.2), (1.0, -1.0))
        assert got.table.tobytes() == want.table.tobytes() and got.verdicts == want.verdicts

    def test_to_dict_is_json_friendly(self):
        import json

        cmpres = compare_extensions(OVERLAP, [(0.5, 0.2)], CFG)
        json.dumps(cmpres.to_dict())


def _rounded(obj):
    """Every float rounded to 12 significant digits, as the CLI prints them."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _rounded(x) for k, x in obj.items()}
    if isinstance(obj, list):
        return [_rounded(x) for x in obj]
    return obj


# sha256 of the reports below, serialized by ``_rounded`` and sorted-key JSON.
# Any change to a verdict, a count or a counterexample's 12 digits moves it.
REPORT_DIGEST = "f87b78287b185c1f5b74e51c2891909e07d915594a47add175cf89993d87821b"


def test_report_digest_is_pinned():
    import hashlib
    import json

    configs = (
        AxiomCheckConfig(samples=24, score_bounds=(0.0, 1.0), alpha_bounds=(1e-3, 1.0)),
        AxiomCheckConfig(samples=24, allow_out_of_domain=True),
        AxiomCheckConfig(samples=24, score_bounds=(-1e300, 1e300), allow_out_of_domain=True),
    )
    rng = np.random.default_rng(20080)
    reports = []
    for n in (1, 2, 3, 5, 7):
        mu = random_capacity(rng, n)
        losses = random_capacity(rng, n)
        for i, name in enumerate(("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt")):
            ext = make_extension(name, mu, losses if name == "cpt" else None)
            for k, cfg in enumerate(configs):
                if k == (n + i) % 3:
                    continue  # two of the three configs per extension and n
                cfg = dataclasses.replace(cfg, seed=10 * n + k)
                reports += [check_axiom(ax, ext, mu, cfg).to_dict() for ax in AXIOM_NAMES]
    assert len(reports) == 540
    blob = json.dumps(_rounded(reports), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_DIGEST


# -- block draws against the scalar samplers ------------------------------------


SIGNED = ("choquet", AxiomCheckConfig())
UNIT = ("mle", AxiomCheckConfig(score_bounds=(0.0, 1.0), alpha_bounds=(1e-3, 1.0)))


def _draw(axiom, name, cfg, n, rng):
    """The block draw of ``axiom``'s random trials from ``rng``, beside the scalar
    sampler of the same trials."""
    mu = random_capacity(np.random.default_rng(n), n)
    ext = make_extension(name, mu)
    draw = axioms._SPECS[axiom](ext, mu, cfg, axioms._Stream(rng))[1]
    unit = ext.domain == "unit" and not cfg.allow_out_of_domain
    return draw, oracles.scalar_sampler(axiom, n, cfg.score_bounds, cfg.alpha_bounds, unit)


def _assert_same_draws(draw, sampler, rng, sizes):
    """Blocks of ``sizes`` trials from ``draw`` against as many scalar trials from
    ``rng``, column by column and bit for bit."""
    for k in sizes:
        want = [np.array(col) for col in zip(*(sampler(rng) for _ in range(k)))]
        got = draw(k)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), (k, g, w)


def _word_at(position, word):
    """A PCG64 generator whose raw word number ``position`` (from 0) is ``word``.
    PCG64 outputs the xor of the two 64-bit halves of its state, rotated right
    by the top 6 bits; ``advance`` then steps back ``position`` + 1 words."""
    hi = 0x9E3779B97F4A7C15
    rot = hi >> 58
    lo = hi ^ ((word << rot | word >> (64 - rot)) & (2**64 - 1))
    bits = np.random.PCG64(7)
    state = bits.state
    state["state"]["state"] = hi << 64 | lo
    bits.state = state
    bits.advance((1 << 128) - position - 1)
    return bits


class TestBlockDraws:
    """``draw(k)`` of every spec gives the trials its scalar sampler draws."""

    @pytest.mark.parametrize("axiom", AXIOM_NAMES)
    @pytest.mark.parametrize("bounds", [SIGNED, UNIT], ids=["signed", "unit"])
    def test_equal_to_the_scalar_sampler(self, axiom, bounds):
        name, cfg = bounds
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 11):
            for seed in range(5):
                draw, sampler = _draw(axiom, name, cfg, n, np.random.default_rng(seed))
                # Odd blocks carry a 32-bit half from one block to the next.
                _assert_same_draws(draw, sampler, np.random.default_rng(seed), (1, 32, 37))

    # (axiom, n, bounds, position of the crafted word, the word), where a 32-bit
    # draw reads the word's zero halves, or at m = 3 a low half x with 3 * x mod
    # 2**32 on the threshold (2**32 - 3) % 3 = 1, or at 2, below m
    @pytest.mark.parametrize(
        "axiom, n, bounds, position, word",
        [
            ("A", 3, SIGNED, 0, 0xDEADBEEF << 32),  # the first draw; its retry takes the high half
            ("A", 3, SIGNED, 0, 0xDEADBEEF),  # the high half, in trial 1
            ("A", 3, SIGNED, 60, 0),  # both halves of a word, in trial 40
            ("M1", 5, SIGNED, 2, 0xDEADBEEF << 32),  # after the two doubles of a trial
            ("A1", 7, UNIT, 444, 0xDEADBEEF << 32),  # in trial 80, the fourth block
            ("HE", 11, SIGNED, 1, 0xDEADBEEF << 32),  # integers(1, 2**11)
            ("A", 3, SIGNED, 0, 0xDEADBEEF << 32 | 2863311531),  # kept on the threshold
            ("A", 3, SIGNED, 0, 0xDEADBEEF << 32 | 1431655766),  # kept below m
        ],
    )
    def test_lemire_rejection(self, axiom, n, bounds, position, word):
        # m = n (or 2**11 - 1) is not a power of two, so (2**32 - m) % m > 0 and a
        # zero half is always below it: the draw is rejected and drawn again. A
        # draw from the threshold up is kept, however small.
        assert _word_at(position, word).random_raw(position + 1)[-1] == word
        name, cfg = bounds
        draw, sampler = _draw(axiom, name, cfg, n, np.random.Generator(_word_at(position, word)))
        rng = np.random.Generator(_word_at(position, word))
        _assert_same_draws(draw, sampler, rng, (1, 32, 37, 64))

    @pytest.mark.parametrize("axiom, words", [("A", 1), ("HE", 1), ("M1", 2), ("A1", 5)])
    def test_a_single_outcome_draws_nothing(self, axiom, words):
        # At n = 1, integers(1) and integers(1, 2) return 0 and 1 from no bits.
        rng = np.random.default_rng(5)
        draw, sampler = _draw(axiom, *SIGNED, 1, rng)
        _assert_same_draws(draw, sampler, np.random.default_rng(5), (3, 32))
        after = np.random.default_rng(5).bit_generator.random_raw(35 * words + 1)[-1]
        assert rng.bit_generator.random_raw() == after

    @pytest.mark.parametrize("half", [False, True], ids=["no-half", "half-pending"])
    @pytest.mark.parametrize("width", [1, 6])
    def test_an_all_doubles_take_is_the_general_decode(self, half, width):
        # The one-step decode of M, I, C1 and unsigned S1 against the rejection
        # loop, after a 32-bit draw that may leave a high half for later.
        fast, general = (axioms._Stream(np.random.default_rng(11)) for _ in range(2))
        for stream in (fast, general):
            stream.take(1, (3,) * (2 - half))  # one 32-bit draw leaves a high half
        for k in (1, 32, 37):
            got = fast.take(k, (0,) * width)
            want = general._draws(np.zeros(k * width, dtype=np.uint64)).reshape(k, width)
            assert got.tobytes() == want.tobytes()
        # the next mixed take reads the same words and the same pending half
        mixed = (7, 0, 3, 0, 1, 5)
        assert fast.take(40, mixed).tobytes() == general.take(40, mixed).tobytes()


# -- the block schedule -------------------------------------------------------------


@pytest.mark.parametrize("name", ["choquet", "mle"])
@pytest.mark.parametrize("n", [4, 8])
def test_kernel_calls_per_axiom(name, n):
    # One row-kernel call for the first 32 trials, then one per 1,024 trials,
    # up to the counterexample if there is one.
    mu = random_capacity(np.random.default_rng(n), n)
    ext = make_extension(name, mu)
    calls = []

    def counting(t):
        calls.append(t.shape[0])
        return ext.fn(t)

    counted = dataclasses.replace(ext, fn=counting)
    cfg = dataclasses.replace(UNIT_CFG if ext.domain == "unit" else CFG, samples=250)
    for axiom in AXIOM_NAMES:
        calls.clear()
        report = check_axiom(axiom, counted, mu, cfg)
        trials = report.samples_tested + report.skipped
        blocks = 1 + math.ceil(max(0, trials - 32) / 1024)
        assert len(calls) == blocks, (axiom, trials, calls)


@pytest.mark.parametrize("p, count, lengths, draws", [
    (0, 5, [5], [5]),
    (3, 2000, [32, 1024, 947], [29, 1024, 947]),
    (40, 1000, [32, 1008], [1000]),
    (1100, 0, [32, 1024, 44], []),
])
def test_blocks_of_32_trials_then_1024(p, count, lengths, draws):
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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_reports_do_not_depend_on_the_block_schedule(n, monkeypatch):
    # At tol 1e-15 roundoff fails A1, A2 or S1 at a random trial, past the first
    # block for some, so the counterexample and the skips depend on every draw.
    rng = np.random.default_rng(n)
    mu, losses = random_capacity(rng, n), random_capacity(rng, n)
    checks = []
    for name in EXTENSION_NAMES:
        ext = make_extension(name, mu, losses if name == "cpt" else None)
        base = UNIT[1] if ext.domain == "unit" else SIGNED[1]
        cfg = dataclasses.replace(base, samples=40, tol=1e-15)
        checks += [(axiom, ext, cfg) for axiom in AXIOM_NAMES]
    blocked = [check_axiom(axiom, ext, mu, cfg) for axiom, ext, cfg in checks]
    monkeypatch.setattr(axioms, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(axioms, "_MAX_BLOCK", 1)
    assert [check_axiom(axiom, ext, mu, cfg) for axiom, ext, cfg in checks] == blocked


# -- one axiom at a time -------------------------------------------------------------


def _verify_args(tmp_path, mu, losses, name, cfg, names):
    """The parsed ``verify`` command line of one suite under ``cfg``."""
    files = []
    for tag, cap in (("mu", mu), ("losses", losses)):
        path = tmp_path / ("%s.json" % tag)
        path.write_text(json.dumps({"n": cap.n, "values_by_mask": cap.values.tolist()}))
        files.append(str(path))
    integral = "sugeno-prod" if name == "sugeno_product" else name
    argv = ["verify", "--capacity", files[0], "--integral", integral, "--axioms", ",".join(names),
            "--samples", str(cfg.samples), "--seed", str(cfg.seed), "--tol", repr(cfg.tol),
            "--score-bounds=%r:%r" % cfg.score_bounds, "--alpha-bounds=%r:%r" % cfg.alpha_bounds]
    argv += ["--capacity2", files[1]] if name == "cpt" else []
    argv += ["--allow-out-of-domain"] if cfg.allow_out_of_domain else []
    return cli.build_parser().parse_args(argv)


# Reordered, with repeats: each name gets its own stream and its own report.
SUITE = AXIOM_NAMES[::-1] + ("M", "HE", "M")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_a_suite_scan_gives_each_axiom_its_own_report(n, tmp_path):
    # A verify run's reports, unrounded, against one check_axiom per name. 1,100
    # random trials run three blocks; at tol 1e-15 roundoff fails some axioms
    # past the first block, and the others run on.
    rng = np.random.default_rng(40 + n)
    mu, losses = random_capacity(rng, n), random_capacity(rng, n)
    configs = [dataclasses.replace(base, samples=1100 if n < 8 else 200, seed=n, tol=tol)
               for base in (UNIT[1], dataclasses.replace(SIGNED[1], allow_out_of_domain=True))
               for tol in (1e-9, 1e-15)]
    for name in EXTENSION_NAMES:
        ext = make_extension(name, mu, losses if name == "cpt" else None)
        for cfg in configs:
            args = _verify_args(tmp_path, mu, losses, name, cfg, SUITE)
            scanned = args.func(args)["axioms"]
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(scanned) == repr([check_axiom(a, ext, mu, cfg).to_dict() for a in SUITE])


# Row-kernel calls of a verify run of every axiom at 250 samples: one per block
# and axiom, the sum of ``test_kernel_calls_per_axiom``'s counts.
SUITE_CALLS = {("choquet", 4): 15, ("choquet", 8): 21, ("mle", 4): 13, ("mle", 8): 14}


@pytest.mark.parametrize("name, n", sorted(SUITE_CALLS) + [
    (name, n) for name in ("sipos", "sugeno_product") for n in (4, 8)])
def test_kernel_calls_per_suite(name, n, tmp_path, monkeypatch):
    mu = random_capacity(np.random.default_rng(n), n)
    ext = make_extension(name, mu)
    calls = []

    def counting(t):
        calls.append(t.shape[0])
        return ext.fn(t)

    counted = dataclasses.replace(ext, fn=counting)
    monkeypatch.setattr(cli, "make_extension", lambda *_: counted)
    cfg = dataclasses.replace(UNIT_CFG if ext.domain == "unit" else CFG, samples=250)
    args = _verify_args(tmp_path, mu, mu, name, cfg, AXIOM_NAMES)
    reports = args.func(args)["axioms"]
    scanned = list(calls)
    alone, blocks = [], []  # each axiom's report and block lengths on its own
    for axiom in AXIOM_NAMES:
        calls.clear()
        alone.append(check_axiom(axiom, counted, mu, cfg).to_dict())
        blocks += calls
    # the axioms in turn, each block in one call of its own rows
    assert reports == alone and scanned == blocks
    if (name, n) in SUITE_CALLS:
        assert len(scanned) == SUITE_CALLS[name, n]


def test_a_suite_scan_raises_the_first_error_in_name_order(tmp_path, capsys):
    # mle samples on [0, 1]: the signed default bounds are refused, by M for its
    # scores and by I for its scaling factors, whichever comes first.
    mu = random_capacity(np.random.default_rng(3), 3)
    path = tmp_path / "mu.json"
    path.write_text(json.dumps({"n": 3, "values_by_mask": mu.values.tolist()}))
    for names, error in [("M,I,bogus", "extension 'mle' samples scores on"),
                         ("I,M,bogus", "extension 'mle': scaling factors above 1"),
                         ("bogus,M,I", "unknown axiom 'bogus'")]:
        code = cli.main(["verify", "--capacity", str(path), "--integral", "mle",
                         "--axioms", names])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: " + error), err
    ext = make_extension("mle", mu)  # A1 comes first: its scores, then its scaling factors
    with pytest.raises(DomainMismatch, match="'mle' samples scores on"):
        check_equivalence(ext, mu, CFG)
    with pytest.raises(DomainMismatch, match="scaling factors above 1"):
        check_equivalence(ext, mu, dataclasses.replace(CFG, score_bounds=(0.0, 1.0)))


def test_a_suite_peaks_at_its_largest_axiom(tmp_path, capsys):
    # Every axiom of a verify run holds its own blocks alone: the suite's heap is
    # that of its largest axiom (A1, at 4 rows per trial), not the sum of several.
    mu = random_capacity(np.random.default_rng(14), 14)
    path = tmp_path / "mu14.json"
    path.write_text(json.dumps({"n": 14, "values_by_mask": mu.values.tolist()}))

    def verify(names):
        assert cli.main(["verify", "--capacity", str(path), "--integral", "sipos",
                         "--axioms", names, "--samples", "1000"]) == 0
        capsys.readouterr()

    suite = peak_above_input(lambda: verify("all"))
    largest = max(peak_above_input(lambda: verify(a)) for a in AXIOM_NAMES)
    assert suite <= 1.1 * largest, (suite / 2**20, largest / 2**20)
