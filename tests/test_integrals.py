import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capacities import (
    DimensionMismatch,
    MobiusRepr,
    OutOfDomain,
    PseudoProduct,
    UncertifiedOperator,
    as_capacity,
    certify,
    choquet,
    choquet_mobius,
    conjugate,
    cpt,
    cpt_compatible,
    make_extension,
    mle,
    mobius,
    ordinal_mobius,
    pseudo_product_extension,
    sipos,
    sipos_closed_form,
    sipos_mobius,
    smle,
    sugeno_product,
    symmetric_max,
    symmetric_max_fold,
)
from helpers import random_additive_capacity, random_capacity

TOL = 1e-9

OVERLAP = as_capacity([0.0, 0.9, 0.9, 1.0])


def comonotone_pair(rng, n):
    order = rng.permutation(n)
    t = np.empty(n)
    u = np.empty(n)
    t[order] = np.sort(rng.uniform(-5, 5, n))
    u[order] = np.sort(rng.uniform(-5, 5, n))
    return t, u


class TestChoquet:
    def test_two_criteria_example(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        assert choquet(mu, [0.5, 0.2]) == pytest.approx(0.29, abs=1e-12)

    def test_constant_vector_is_idempotent(self):
        mu = random_capacity(np.random.default_rng(0), 4)
        for alpha in (-2.0, 0.0, 0.7, 3.5):
            assert choquet(mu, [alpha] * 4) == pytest.approx(alpha, abs=TOL)

    def test_negative_singleton_uses_conjugate_weight(self):
        got = choquet(OVERLAP, [-2.0, 0.0])
        assert got == pytest.approx(-2.0 * (1.0 - 0.9), abs=1e-12)

    def test_mobius_form_on_unanimity_game(self):
        coeff = np.zeros(4)
        coeff[0b11] = 1.0
        m = MobiusRepr(2, coeff)
        assert choquet_mobius(m, [0.7, 0.4]) == pytest.approx(0.4, abs=1e-12)

    def test_matches_mobius_form(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            mu = random_capacity(rng, n)
            m = mobius(mu)
            for _ in range(25):
                t = rng.uniform(-10, 10, n)
                assert choquet(mu, t) == pytest.approx(choquet_mobius(m, t), abs=TOL)

    def test_matches_naive_min_form(self):
        rng = np.random.default_rng(2)
        mu = random_capacity(rng, 5)
        m = list(mobius(mu).coefficients)
        for _ in range(20):
            t = rng.uniform(-3, 3, 5)
            want = oracles.naive_min_form(m, 5, list(t))
            assert choquet(mu, t) == pytest.approx(want, abs=TOL)

    def test_asymmetric_split_identity(self):
        # general scores integrate gains under mu and losses under the conjugate
        rng = np.random.default_rng(3)
        for n in range(1, 7):
            mu = random_capacity(rng, n)
            bar = conjugate(mu)
            for _ in range(20):
                t = rng.uniform(-5, 5, n)
                tp = np.maximum(t, 0.0)
                tn = np.maximum(-t, 0.0)
                want = choquet(mu, tp) - choquet(bar, tn)
                assert choquet(mu, t) == pytest.approx(want, abs=TOL)

    def test_ties_do_not_matter(self):
        # the mobius form is blind to the sort order, so agreement on tied
        # inputs shows tie-breaking does not affect the result
        rng = np.random.default_rng(4)
        mu = random_capacity(rng, 4)
        m = mobius(mu)
        for t in ([1.0, 1.0, 0.0, 0.0], [2.0, -1.0, -1.0, 2.0], [0.5] * 4):
            assert choquet(mu, t) == pytest.approx(choquet_mobius(m, t), abs=TOL)

    def test_comonotonic_additivity(self):
        rng = np.random.default_rng(5)
        mu = random_capacity(rng, 5)
        for _ in range(20):
            t, u = comonotone_pair(rng, 5)
            want = choquet(mu, t) + choquet(mu, u)
            assert choquet(mu, t + u) == pytest.approx(want, abs=TOL)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        mu = random_capacity(rng, 4)
        for _ in range(20):
            t = rng.uniform(-5, 5, 4)
            alpha = rng.uniform(0, 3)
            beta = rng.uniform(-5, 5)
            want = alpha * choquet(mu, t) + beta
            assert choquet(mu, alpha * t + beta) == pytest.approx(want, abs=TOL)

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(7)
        mu = random_capacity(rng, 6)
        for _ in range(30):
            t = rng.uniform(-4, 4, 6)
            v = choquet(mu, t)
            assert t.min() - TOL <= v <= t.max() + TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            choquet(OVERLAP, [1.0, 2.0, 3.0])


class TestSipos:
    def test_zero_vector(self):
        assert sipos(OVERLAP, [0.0, 0.0]) == 0.0

    def test_odd_function(self):
        rng = np.random.default_rng(8)
        for n in range(1, 7):
            mu = random_capacity(rng, n)
            for _ in range(15):
                t = rng.uniform(-5, 5, n)
                assert sipos(mu, -t) == pytest.approx(-sipos(mu, t), abs=TOL)

    def test_three_forms_agree(self):
        rng = np.random.default_rng(9)
        for n in range(1, 8):
            mu = random_capacity(rng, n)
            m = mobius(mu)
            for _ in range(15):
                t = rng.uniform(-10, 10, n)
                a = sipos(mu, t)
                assert sipos_closed_form(mu, t) == pytest.approx(a, abs=TOL)
                assert sipos_mobius(m, t) == pytest.approx(a, abs=TOL)

    def test_closed_form_sign_blocks(self):
        # all-negative, all-positive, and straddling cases against hand sums
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        assert sipos_closed_form(mu, [2.0, 5.0]) == pytest.approx(
            2.0 * 1.0 + 3.0 * 0.6, abs=1e-12
        )
        assert sipos_closed_form(mu, [-2.0, -5.0]) == pytest.approx(
            -(2.0 * 1.0 + 3.0 * 0.6), abs=1e-12
        )
        assert sipos_closed_form(mu, [-1.0, 2.0]) == pytest.approx(
            -1.0 * 0.3 + 2.0 * 0.6, abs=1e-12
        )

    def test_gains_part_is_plain_choquet(self):
        rng = np.random.default_rng(10)
        mu = random_capacity(rng, 4)
        t = rng.uniform(0, 5, 4)
        assert sipos(mu, t) == pytest.approx(choquet(mu, t), abs=TOL)

    def test_single_criterion_weight_is_sign_blind(self):
        # unlike choquet, the same singleton weight applies on both sides of 0
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        for a in (-2.0, -0.5, 0.5, 2.0):
            assert sipos(mu, [a, 0.0]) == pytest.approx(a * 0.3, abs=1e-12)
            assert sipos(mu, [0.0, a]) == pytest.approx(a * 0.6, abs=1e-12)


class TestMultilinear:
    def test_overlapping_pair_counterexample(self):
        m = mobius(OVERLAP)
        assert mle(m, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        assert mle(m, [3.0, 3.0]) == pytest.approx(-1.8, abs=1e-12)
        assert mle(m, [1.0, 1.0]) > mle(m, [3.0, 3.0])

    def test_owen_form_on_unit_cube(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            mu = random_capacity(rng, n)
            m = mobius(mu)
            for _ in range(15):
                t = rng.uniform(0, 1, n)
                want = oracles.naive_owen_mle(list(mu.values), n, list(t))
                assert mle(m, t) == pytest.approx(want, abs=TOL)

    def test_additive_reduces_to_weighted_sum(self):
        rng = np.random.default_rng(12)
        mu = random_additive_capacity(rng, 5)
        m = mobius(mu)
        w = np.array([mu[1 << i] for i in range(5)])
        for _ in range(10):
            t = rng.uniform(-5, 5, 5)
            assert mle(m, t) == pytest.approx(float(w @ t), abs=TOL)

    def test_smle_coincides_with_mle_on_gains(self):
        rng = np.random.default_rng(13)
        mu = random_capacity(rng, 5)
        m = mobius(mu)
        for _ in range(10):
            t = rng.uniform(0, 1, 5)
            assert smle(m, t) == pytest.approx(mle(m, t), abs=TOL)

    def test_smle_is_odd(self):
        rng = np.random.default_rng(14)
        mu = random_capacity(rng, 5)
        m = mobius(mu)
        for _ in range(10):
            t = rng.uniform(-2, 2, 5)
            assert smle(m, -t) == pytest.approx(-smle(m, t), abs=TOL)

    def test_single_criterion_uses_singleton_coefficient(self):
        m = mobius(as_capacity([0.0, 0.3, 0.6, 1.0]))
        for a in (-2.0, -0.5, 0.5, 2.0):
            assert smle(m, [a, 0.0]) == pytest.approx(a * 0.3, abs=1e-12)
            assert smle(m, [0.0, a]) == pytest.approx(a * 0.6, abs=1e-12)


class TestSymmetricMax:
    def test_absolute_dominance(self):
        assert symmetric_max(3.0, -2.0) == 3.0
        assert symmetric_max(-4.0, 2.0) == -4.0
        assert symmetric_max(2.0, 4.0) == 4.0
        assert symmetric_max(-2.0, -4.0) == -4.0

    def test_annihilation(self):
        assert symmetric_max(3.0, -3.0) == 0.0
        assert symmetric_max(-3.0, 3.0) == 0.0
        assert symmetric_max(0.0, 0.0) == 0.0

    def test_zero_is_neutral(self):
        for a in (-2.5, -1.0, 0.0, 1.0, 2.5):
            assert symmetric_max(a, 0.0) == a
            assert symmetric_max(0.0, a) == a

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_commutative(self, a, b):
        assert symmetric_max(a, b) == symmetric_max(b, a)

    def test_fold_two_pass(self):
        assert symmetric_max_fold([1.0, -3.0, 2.0]) == -3.0
        assert symmetric_max_fold([1.0, -3.0, 3.0]) == 0.0
        assert symmetric_max_fold([-1.0, -2.0]) == -2.0
        assert symmetric_max_fold([]) == 0.0

    def test_fold_is_not_plain_left_fold(self):
        # grouping by sign first changes the outcome: left-to-right gives
        # ((3 v -3) v 1) = 1, the two-pass rule gives (3 v 1) v -3 = 0
        values = [3.0, -3.0, 1.0]
        left = symmetric_max(symmetric_max(values[0], values[1]), values[2])
        assert left == 1.0
        assert symmetric_max_fold(values) == 0.0


class TestSugenoProduct:
    def test_two_criteria_example(self):
        mv = ordinal_mobius(as_capacity([0.0, 0.3, 0.6, 1.0]))
        assert sugeno_product(mv, [0.5, 0.2]) == pytest.approx(0.2, abs=1e-12)

    def test_binary_vectors_recover_capacity(self):
        rng = np.random.default_rng(15)
        for n in range(1, 7):
            mu = random_capacity(rng, n)
            mv = ordinal_mobius(mu)
            for mask in range(1, 1 << n):
                t = [1.0 if mask >> i & 1 else 0.0 for i in range(n)]
                assert sugeno_product(mv, t) == pytest.approx(mu[mask], abs=TOL)

    def test_scaled_indicators(self):
        rng = np.random.default_rng(16)
        mu = random_capacity(rng, 4)
        mv = ordinal_mobius(mu)
        for alpha in (0.0, 0.3, 1.0, 4.2):
            for mask in range(1, 16):
                t = np.array([alpha if mask >> i & 1 else 0.0 for i in range(4)])
                assert sugeno_product(mv, t) == pytest.approx(alpha * mu[mask], abs=TOL)

    def test_signed_single_criterion(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        mv = ordinal_mobius(mu)
        assert sugeno_product(mv, [-2.0, 0.0]) == pytest.approx(-2.0 * 0.3, abs=1e-12)
        assert sugeno_product(mv, [0.0, -0.5]) == pytest.approx(-0.5 * 0.6, abs=1e-12)
        assert sugeno_product(mv, [1.5, 0.0]) == pytest.approx(1.5 * 0.3, abs=1e-12)

    def test_mixed_signs_use_symmetric_max(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        mv = ordinal_mobius(mu)
        # gains part: 0.3 * 1.0 = 0.3; losses part: 0.6 * 2.0 = 1.2
        assert sugeno_product(mv, [1.0, -2.0]) == pytest.approx(-1.2, abs=1e-12)
        # exact annihilation collapses to 0
        assert sugeno_product(mv, [1.0, -0.5]) == 0.0


class TestCpt:
    def test_conjugate_losses_give_plain_choquet(self):
        rng = np.random.default_rng(17)
        for n in range(1, 6):
            mu = random_capacity(rng, n)
            m1 = mobius(mu)
            m2 = mobius(conjugate(mu))
            for _ in range(10):
                t = rng.uniform(-5, 5, n)
                assert cpt(m1, m2, t) == pytest.approx(choquet(mu, t), abs=TOL)

    def test_equal_capacities_give_sipos(self):
        rng = np.random.default_rng(18)
        mu = random_capacity(rng, 5)
        m = mobius(mu)
        for _ in range(10):
            t = rng.uniform(-5, 5, 5)
            assert cpt(m, m, t) == pytest.approx(sipos(mu, t), abs=TOL)

    def test_compatibility_report(self):
        mu = OVERLAP
        ok = cpt_compatible(mu, mu)
        assert ok and ok.compatible and ok.mismatches == ()
        bad = cpt_compatible(mu, conjugate(mu))
        assert not bad
        assert [b[0] for b in bad.mismatches] == [1, 2]
        assert bad.mismatches[0][1] == pytest.approx(0.9)
        assert bad.mismatches[0][2] == pytest.approx(0.1)

    def test_dimension_mismatch(self):
        m1 = mobius(OVERLAP)
        m2 = mobius(random_capacity(np.random.default_rng(19), 3))
        with pytest.raises(DimensionMismatch):
            cpt(m1, m2, [1.0, 2.0])


class TestPseudoProduct:
    def test_min_reproduces_choquet_on_unit_cube(self):
        op = certify(min, "min")
        assert op.is_certified
        rng = np.random.default_rng(20)
        for n in range(1, 6):
            mu = random_capacity(rng, n)
            m = mobius(mu)
            for _ in range(10):
                t = rng.uniform(0, 1, n)
                want = choquet_mobius(m, t)
                assert pseudo_product_extension(m, op, t) == pytest.approx(want, abs=TOL)

    def test_product_reproduces_multilinear(self):
        op = certify(lambda a, b: a * b, "product")
        assert op.is_certified
        rng = np.random.default_rng(21)
        mu = random_capacity(rng, 5)
        m = mobius(mu)
        for _ in range(10):
            t = rng.uniform(0, 1, 5)
            assert pseudo_product_extension(m, op, t) == pytest.approx(mle(m, t), abs=TOL)

    def test_lukasiewicz_is_certifiable(self):
        op = certify(lambda a, b: max(0.0, a + b - 1.0), "lukasiewicz")
        assert op.is_certified
        m = mobius(OVERLAP)
        v = pseudo_product_extension(m, op, [0.6, 0.6])
        # 0.9*0.6 + 0.9*0.6 - 0.8*(0.6+0.6-1)
        assert v == pytest.approx(0.9 * 0.6 + 0.9 * 0.6 - 0.8 * 0.2, abs=1e-12)

    def test_non_commutative_operator_fails_certification(self):
        op = certify(lambda a, b: a, "left-projection")
        assert not op.certificate.commutative
        assert not op.is_certified
        with pytest.raises(UncertifiedOperator):
            pseudo_product_extension(mobius(OVERLAP), op, [0.5, 0.5])

    def test_raw_callable_is_rejected(self):
        with pytest.raises(UncertifiedOperator):
            pseudo_product_extension(mobius(OVERLAP), min, [0.5, 0.5])

    def test_out_of_domain_scores(self):
        op = certify(min, "min")
        with pytest.raises(OutOfDomain):
            pseudo_product_extension(mobius(OVERLAP), op, [0.5, 1.5])
        with pytest.raises(OutOfDomain):
            pseudo_product_extension(mobius(OVERLAP), op, [-0.1, 0.5])

    def test_certificate_reports_gaps(self):
        op = certify(lambda a, b: a, "left-projection")
        assert op.certificate.max_commutativity_gap == pytest.approx(1.0)


class TestExtensions:
    def test_unknown_name(self):
        with pytest.raises(Exception, match="unknown extension"):
            make_extension("median", OVERLAP)

    def test_cpt_needs_two_capacities(self):
        with pytest.raises(Exception, match="second capacity"):
            make_extension("cpt", OVERLAP)
        with pytest.raises(Exception, match="second capacity"):
            make_extension("choquet", OVERLAP, OVERLAP)

    def test_domain_tags(self):
        assert make_extension("choquet", OVERLAP).domain == "reals"
        assert make_extension("mle", OVERLAP).domain == "unit"
        assert make_extension("smle", OVERLAP).domain == "unit"
        assert make_extension("sugeno_product", OVERLAP).domain == "reals"

    @pytest.mark.parametrize("name", ["choquet", "sipos", "mle", "smle", "sugeno_product", "cpt"])
    @pytest.mark.parametrize("t", [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308], [1.7e308] * 3])
    def test_overflow_is_out_of_domain_without_warning(self, name, t):
        # RuntimeWarnings are errors in this suite, so a leaked one fails here
        mu = as_capacity([0.0, 0.6, 0.6, 1.0, 0.6, 1.0, 1.0, 1.0], n=3)  # sum of |m| > 1
        ext = make_extension(name, mu, mu if name == "cpt" else None)
        try:
            value = ext(t)
        except OutOfDomain:
            return
        assert np.isfinite(value)

    def test_extensions_agree_on_vertices(self):
        rng = np.random.default_rng(22)
        mu = random_capacity(rng, 3)
        names = ("choquet", "sipos", "mle", "smle", "sugeno_product")
        exts = [make_extension(name, mu) for name in names]
        for mask in range(8):
            t = [1.0 if mask >> i & 1 else 0.0 for i in range(3)]
            for ext in exts:
                assert ext(t) == pytest.approx(mu[mask] if mask else 0.0, abs=TOL)
