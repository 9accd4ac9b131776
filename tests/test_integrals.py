import functools
import hashlib
import math
import operator
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capacities import (
    EXTENSION_NAMES,
    DimensionMismatch,
    Extension,
    InvalidFormat,
    MobiusRepr,
    OutOfDomain,
    PseudoProduct,
    SetFunction,
    UncertifiedOperator,
    as_capacity,
    certify,
    check_pseudo_product,
    choquet,
    choquet_mobius,
    conjugate,
    cpt,
    cpt_compatible,
    make_extension,
    mle,
    mobius,
    ordinal_mobius,
    ordinal_zeta,
    pseudo_product_extension,
    sipos,
    sipos_closed_form,
    sipos_mobius,
    smle,
    sugeno_product,
    symmetric_max,
    symmetric_max_fold,
)
from capacities import axioms, integrals, subsets
from helpers import (edge_tables, peak_above_input, random_additive_capacity, random_capacity,
                     signed_zeros)

TOL = 1e-9

OVERLAP = as_capacity([0.0, 0.9, 0.9, 1.0])


OVERFLOW_MU = as_capacity([0.0, 0.6, 0.6, 1.0, 0.6, 1.0, 1.0, 1.0], n=3)  # sum of |m| > 1
OVERFLOW_POINTS = [[1e308, 1e308, 1e308], [1e308, -1e308, 1e308], [1.7e308] * 3]


def one_vector_calls(name, mu, losses):
    """The extension's one-vector call, then the public functions of its form."""
    m = mobius(mu)
    public = {
        "choquet": [functools.partial(choquet, mu), functools.partial(choquet_mobius, m)],
        "sipos": [functools.partial(sipos, mu), functools.partial(sipos_mobius, m)],
        "mle": [functools.partial(mle, m)],
        "smle": [functools.partial(smle, m)],
        "sugeno_product": [functools.partial(sugeno_product, ordinal_mobius(mu))],
        "cpt": [functools.partial(cpt, m, mobius(losses))],
    }[name]
    return [make_extension(name, mu, losses if name == "cpt" else None), *public]


def one_vector_digest(name):
    """sha256 over the bytes of every one-vector value at the overflow points and at
    five score vectors for each n in (1, 2, 5, 8, 16); "OutOfDomain" where it raises."""
    cases = [(OVERFLOW_MU, OVERFLOW_MU, np.array(OVERFLOW_POINTS))]
    for n in (1, 2, 5, 8, 16):
        rng = np.random.default_rng(n)
        mu, losses = random_capacity(rng, n), random_capacity(rng, n)
        t = rng.uniform(-1.0, 1.0, (5, n))
        t[1] = np.abs(t[1])
        t[2] = np.round(t[2], 1)  # ties
        t[3] = np.round(t[3], 0)  # ties, and zeros of either sign
        t[4] *= 1e3
        cases.append((mu, losses, t))
    digest = hashlib.sha256()
    for mu, losses, t in cases:
        for call in one_vector_calls(name, mu, losses):
            for row in t:
                try:
                    digest.update(np.float64(call(row)).tobytes())
                except OutOfDomain:
                    digest.update(b"OutOfDomain")
    return digest.hexdigest()


# one_vector_digest per extension, as computed when each one-vector call was still
# its own scalar loop, with a value that is not finite read as OutOfDomain; any
# change to a bit of those values moves it.
ONE_VECTOR_DIGESTS = {
    "choquet": "abdc3a0f530edd6d031c6c89964cab6bbf11fb665a581666b303cd242cc582e4",
    "sipos": "7e21534fa156c766cc595f0cf8b0afe53ba8e83e7e47af46358ca6fce93ec819",
    "mle": "727707efc21ce72745a19c94c74c31aadeacab7eb09075b8768b13e4f40f4778",
    "smle": "8e325a00dcb6c0604aa13b8b129d951008053a2a0fc34f7d89875d43e57f53fe",
    "sugeno_product": "bc4b0991c57eb6f318d123feaba11cd0d64b6e28dc8db6fe40ce513ecf0a178c",
    "cpt": "e20fca2da94a0021bd4a683ec066ada9d7dee7f87071116c99e51f40bece6198",
}


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
        losses = random_capacity(np.random.default_rng(19), 3)
        with pytest.raises(DimensionMismatch):
            cpt(mobius(OVERLAP), mobius(losses), [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            make_extension("cpt", OVERLAP, losses)


def grid_min(a, b):
    """min on the 21-point grid and the mean off it: associative on the grid only."""
    on_grid = all(abs(20.0 * x - round(20.0 * x)) < 1e-9 for x in (a, b))
    return min(a, b) if on_grid else (a + b) / 2.0


# The products of two grid values above 0.5 that are not grid values: an operator
# that is the product on the grid meets them only on its cube.
_GRID = np.linspace(0.0, 1.0, 21)
OFF_GRID_PRODUCTS = {float(p) for p in np.multiply.outer(_GRID, _GRID).ravel()
                     if p > 0.5 and p not in _GRID}


# Operators whose values are infinite or NaN somewhere on the grid or its cube,
# and a certified min whose every call raises the floating-point invalid flag.
NON_FINITE_OPS = {
    "inf-valued": lambda a, b: math.inf if a + b > 1.5 else a * b,
    "nan-valued": lambda a, b: (a * math.inf) * b if a < 0.5 else min(a, b),
    "flagging-min": lambda a, b: min(a, b) if math.inf - math.inf != 0.0 else 0.0,
}


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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_min_and_product_are_the_choquet_and_multilinear_forms_byte_for_byte(self, n):
        # The paper's special cases run one row kernel: the fold of min is that of
        # np.minimum and the fold of * that of np.multiply. Python's min and
        # np.minimum keep different zeros of a tie of 0.0 and -0.0, but a dot of
        # two or more terms sums from +0.0 and a one-term dot is the score itself.
        rng = np.random.default_rng(70 + n)
        by_min, by_product = certify(min), certify(operator.mul)
        tables = [mobius(random_capacity(rng, n)),
                  MobiusRepr(n, np.append(0.0, np.round(rng.uniform(-1.0, 1.0, (1 << n) - 1), 1)))]
        t = rng.uniform(0.0, 1.0, (12, n))
        t[::2] = np.round(t[::2], 1)  # ties
        edge = rng.random(t.shape) < 0.4
        t[edge] = rng.choice([0.0, -0.0, 5e-324, 1.0], edge.sum())
        for m in tables:
            for row in t:
                for op, form in ((by_min, choquet_mobius), (by_product, mle)):
                    got = pseudo_product_extension(m, op, row)
                    assert np.float64(got).tobytes() == np.float64(form(m, row)).tobytes(), (
                        form.__name__, row.tolist())

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

    def test_operator_associative_only_on_the_grid_is_refused(self):
        op = certify(grid_min, "grid-min")
        assert op.certificate.grid_points == 21
        assert op.certificate.commutative
        assert not op.certificate.associative
        with pytest.raises(UncertifiedOperator):
            pseudo_product_extension(mobius(OVERLAP), op, [0.5, 0.5])

    @pytest.mark.parametrize("op", [
        min,
        lambda a, b: a * b,
        lambda a, b: max(0.0, a + b - 1.0),
        lambda a, b: int(a == 1.0 and b == 1.0),  # returns ints
    ], ids=["min", "product", "lukasiewicz", "int-valued"])
    def test_grid_matches_the_cell_loop(self, op, monkeypatch):
        calls, want_calls = [], []
        grid = integrals._grid_table(lambda a, b: calls.append((type(a), a, b)) or op(a, b))
        want = oracles.loop_grid_table(lambda a, b: want_calls.append((type(a), a, b)) or op(a, b))
        assert calls == want_calls
        assert grid[1].dtype == np.float64 and grid[1].tobytes() == want[1].tobytes()
        new = (certify(op).certificate, check_pseudo_product(op).to_dict())
        monkeypatch.setattr(integrals, "_grid_table", oracles.loop_grid_table)
        monkeypatch.setattr(axioms, "_grid_table", oracles.loop_grid_table)
        assert new == (certify(op).certificate, check_pseudo_product(op).to_dict())

    @pytest.mark.parametrize("op", [
        min,
        lambda a, b: a * b,
        lambda a, b: max(0.0, a + b - 1.0),
        lambda a, b: (a + b) / 2.0,
        lambda a, b: int(a * 3) + int(b * 3),
        lambda a, b: np.float32(a * b),
        *NON_FINITE_OPS.values(),
        grid_min,
    ], ids=["min", "product", "lukasiewicz", "mean", "int-valued", "float32-valued",
            *NON_FINITE_OPS, "grid-min"])
    def test_certificate_matches_the_triple_loop(self, op):
        xs, table = oracles.loop_grid_table(op)
        with np.errstate(all="ignore"):
            want = oracles.loop_certificate(op, xs, table, 1e-9)
        got = certify(op).certificate
        assert (got.commutative, got.associative) == (want.commutative, want.associative)
        for gap in ("max_commutativity_gap", "max_associativity_gap"):
            # value for value, NaN in the same places
            np.testing.assert_array_equal(getattr(got, gap), float(getattr(want, gap)))

    @pytest.mark.parametrize("op, gap", [
        (lambda a, b: int(a * 3) + int(b * 3), 6.0),
        (lambda a, b: np.float32(a * b), float(np.float32(2.0**-24))),
    ], ids=["int-valued", "float32-valued"])
    def test_certificate_gaps_are_python_floats(self, op, gap):
        # the int-valued gap was the int 6, the float32-valued one an np.float32
        cert = certify(op).certificate
        witness = check_pseudo_product(op).to_dict()["witnesses"]["associative"]["max_gap"]
        for value in (cert.max_commutativity_gap, cert.max_associativity_gap, witness):
            assert type(value) is float
        assert cert.max_associativity_gap == witness == gap

    def test_certify_min_runs_the_operator_once_per_distinct_pair(self):
        # 441 grid cells, 21 x 21 pairs on each side of the cube and 320 off the
        # grid; it was 19,283 with 9,261 calls per side of the cube.
        calls = []
        assert certify(lambda a, b: calls.append((a, b)) or min(a, b)).is_certified
        assert len(calls) == 1643

    def test_signed_zeros_and_nan_payloads_stay_apart_on_the_cube(self):
        # The grid table holds 0.0 and -0.0 and NaNs with four payloads, which the
        # operator reads back on the cube: each of the 26 values, told apart by its
        # bits, runs on each side, and the gaps are those of the triple loop.
        def bits(x):
            return struct.unpack("<Q", struct.pack("<d", x))[0]

        def op(a, b):
            if math.isnan(a) or math.isnan(b):
                return float(bits(a if math.isnan(a) else b) & 7)
            if math.copysign(1.0, a) < 0.0 or math.copysign(1.0, b) < 0.0:
                return 3.0 if a == 0.0 else 5.0
            if a == 1.0 and b < 0.2:  # a quiet NaN with payload 1..4
                return struct.unpack("<d", struct.pack("<Q", bits(math.nan) | int(b * 20) + 1))[0]
            return -0.0 if a == 0.0 and b > 0.5 else min(a, b)

        def logged(calls):
            return lambda a, b: calls.append((bits(a), bits(b))) or op(a, b)

        calls, loop = [], []
        got = certify(logged(calls)).certificate
        xs, table = oracles.loop_grid_table(op)
        assert len(set(map(bits, table.ravel()))) == 21 + 1 + 4
        want = oracles.loop_certificate(logged(loop), xs, table, 1e-9)
        # the grid, 21 calls per distinct table value on each side of the cube, off the grid
        assert len(calls) == 441 + 2 * 21 * 26 + 320 and set(calls) == set(loop)
        for gap in ("max_commutativity_gap", "max_associativity_gap"):
            np.testing.assert_array_equal(getattr(got, gap), float(getattr(want, gap)))

    @pytest.mark.parametrize("op, pair", [
        (lambda a, b: None if a in OFF_GRID_PRODUCTS else a * b, "0.5225, 0"),
        (lambda a, b: None if b in OFF_GRID_PRODUCTS else a * b, "0, 0.5225"),
        (lambda a, b: "x" if a in OFF_GRID_PRODUCTS and b > 0.3 else a * b, "0.5225, 0.3"),
    ], ids=["left", "right", "string"])
    def test_a_cube_value_that_is_not_a_number_names_its_first_pair(self, op, pair):
        # The first bad pair in cube order, [i, j, k] row by row: 0.55 * 0.95 on
        # the left side, while its smallest bad table value is 0.6 * 0.85 = 0.51.
        for call in (certify, check_pseudo_product):
            with pytest.raises(InvalidFormat, match=r"^op\(%s\) = .* is not a real number$"
                               % pair.replace(".", r"\.")):
                call(op)

    @pytest.mark.parametrize("op", NON_FINITE_OPS.values(), ids=NON_FINITE_OPS)
    def test_non_finite_operator_values_leak_no_numpy_warning(self, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pp = certify(op)
            report = check_pseudo_product(op)
            if pp.is_certified:
                value = pseudo_product_extension(mobius(OVERLAP), pp, [0.5, 0.25])
        if pp.is_certified:
            assert report.acts_as_min and value == pytest.approx(choquet(OVERLAP, [0.5, 0.25]), abs=TOL)
        else:  # a NaN commutativity gap still leaves the operator uncertified
            assert math.isnan(pp.certificate.max_commutativity_gap)
            assert not report.conditions["commutative"]

    @pytest.mark.parametrize("op, tol", [
        (min, 1e-9),
        (lambda a, b: a * b, 1e-9),
        (lambda a, b: max(0.0, a + b - 1.0), 1e-9),
        (lambda a, b: int(a == 1.0 and b == 1.0), 1e-9),  # returns ints
        (lambda a, b: np.float32(a * b), 1e-6),
    ], ids=["min", "product", "lukasiewicz", "int-valued", "float32-valued"])
    def test_fold_matches_the_mask_loop(self, op, tol):
        pp = certify(op, tol=tol)
        assert pp.is_certified
        rng = np.random.default_rng(24)
        for n in range(1, 11):
            m = mobius(random_capacity(rng, n))
            t = rng.uniform(0.0, 1.0, n)
            calls, want_calls = [], []
            recording = PseudoProduct(lambda a, b: calls.append((type(a), a, b)) or op(a, b),
                                      certificate=pp.certificate)
            got = pseudo_product_extension(m, recording, t)
            folded = oracles.loop_pseudo_product_fold(
                lambda a, b: want_calls.append((type(a), a, b)) or op(a, b), t)
            want = float(np.dot(m.coefficients[1:], folded[1:]))
            assert calls == want_calls
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("op, match", [
        (lambda a, b: None, r"op\(0, 0\) = None"),
        (lambda a, b: "x", r"op\(0, 0\) = 'x'"),
        (lambda a, b: a < b, r"op\(0, 0\) = False"),  # a bool is no number, as for _number
        (lambda a, b: None if b == 1.0 else min(a, b), r"op\(0, 1\) = None"),
        (lambda a, b: 10**400, r"op\(0, 0\) = 1000*0"),
        (lambda a, b: 10**400 if b == 1.0 else 0, r"op\(0, 1\) = 1000*0"),
    ], ids=["none", "string", "bool", "none-at-the-edge", "huge-int", "huge-int-at-the-edge"])
    def test_operator_values_that_are_not_numbers_are_invalid_format(self, op, match):
        # None raised a bare TypeError, a string a bare ValueError, an integer past
        # a double a bare OverflowError
        for call in (certify, check_pseudo_product):
            with pytest.raises(InvalidFormat, match=match + " is not a real number"):
                call(op)

    def test_a_call_reads_both_arguments_and_the_value(self):
        pp = certify(min)
        value = pp(1, np.float32(0.5))
        assert value == 0.5 and type(value) is float
        assert type(PseudoProduct(lambda a, b: 1)(0.5, 0.5)) is float
        assert pp(0.5, math.nan) == 0.5  # without numpy's warning of a NaN comparison
        for a, b in ((0.5, None), ("0.5", 0.2), (True, 0.5), (0.5, [0.5])):
            with pytest.raises(InvalidFormat, match="^a pseudo-product argument must be a number"):
                pp(a, b)
        with pytest.raises(InvalidFormat, match=r"^op\(0.5, 0.25\) = None is not a real number"):
            PseudoProduct(lambda a, b: None)(0.5, 0.25)
        with pytest.raises(InvalidFormat, match=r"^op\(0.5, 0.25\) = 1000*0 is not a real number"):
            PseudoProduct(lambda a, b: 10**400)(0.5, 0.25)
        with pytest.raises(OutOfDomain, match=r"^op\(0.5, 0.25\) overflows at .* \(got nan\)"):
            PseudoProduct(lambda a, b: math.nan)(0.5, 0.25)

    GRID = np.linspace(0.0, 1.0, 21).tolist()

    @pytest.mark.parametrize("where, bad, error, match", [
        ("off the grid", None, InvalidFormat, r"= None is not a real number"),
        ("off the grid", "x", InvalidFormat, r"= 'x' is not a real number"),
        ("in the fold", None, InvalidFormat, r"op\(0.123, 0.5\) = None is not a real number"),
        ("in the fold", "x", InvalidFormat, r"op\(0.123, 0.5\) = 'x' is not a real number"),
        ("in the fold", math.nan, OutOfDomain, r"not finite at these scores \(got nan\)"),
        ("off the grid", 10**400, InvalidFormat, r"= 1000*0 is not a real number"),
        ("in the fold", 10**400, InvalidFormat,
         r"op\(0.123, 0.5\) = 1000*0 is not a real number"),
    ], ids=["grid-only-none", "grid-only-string", "fold-none", "fold-string", "fold-nan",
            "grid-only-huge-int", "fold-huge-int"])
    def test_every_value_an_operator_returns_is_checked(self, where, bad, error, match):
        # Off the grid, None raised a bare TypeError and a string a bare ValueError;
        # in the fold, None and NaN gave a NaN and a string a bare ValueError.
        if where == "off the grid":
            def op(a, b):
                return min(a, b) if a in self.GRID and b in self.GRID else bad
            for call in (certify, check_pseudo_product):
                with pytest.raises(error, match=match):
                    call(op)
        else:
            pp = certify(lambda a, b: bad if a == 0.123 else min(a, b))
            with pytest.raises(error, match=match):
                pseudo_product_extension(mobius(as_capacity([0, 0.3, 0.6, 1])), pp, [0.123, 0.5])


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
    @pytest.mark.parametrize("t", OVERFLOW_POINTS)
    def test_overflow_is_out_of_domain_without_warning(self, name, t):
        # RuntimeWarnings are errors in this suite, so a leaked one fails here
        mu = OVERFLOW_MU
        ext, *public = one_vector_calls(name, mu, mu)
        if name == "sipos":
            public.append(functools.partial(sipos_closed_form, mu))
        for evaluate in (ext, lambda t: ext.many([[0.1, 0.2, 0.3], t])[1], *public):
            try:
                value = evaluate(t)
            except OutOfDomain:
                continue
            assert np.isfinite(value)

    @pytest.mark.parametrize("name", EXTENSION_NAMES)
    def test_one_vector_values_are_pinned(self, name):
        assert one_vector_digest(name) == ONE_VECTOR_DIGESTS[name]

    def test_extensions_agree_on_vertices(self):
        rng = np.random.default_rng(22)
        mu = random_capacity(rng, 3)
        names = ("choquet", "sipos", "mle", "smle", "sugeno_product")
        exts = [make_extension(name, mu) for name in names]
        for mask in range(8):
            t = [1.0 if mask >> i & 1 else 0.0 for i in range(3)]
            for ext in exts:
                assert ext(t) == pytest.approx(mu[mask] if mask else 0.0, abs=TOL)


def wobbly_capacity(rng, n):
    """A capacity that is monotone and normalized only within the default tol."""
    v = random_capacity(rng, n, lo=0.0).values.copy()
    v[1:] += rng.uniform(-2.5e-10, 2.5e-10, v.shape[0] - 1)
    return as_capacity(v, n=n)


def coarse_capacity(rng, n):
    """Values on a 0.1 grid: many plateaus, so few strict steps."""
    v = np.round(random_capacity(rng, n, lo=0.0).values, 1)
    v[-1] = 1.0
    return as_capacity(v, n=n)


CAPACITY_KINDS = {"random": random_capacity, "wobbly": wobbly_capacity, "coarse": coarse_capacity}


def naive_extension(name, mu, losses, t):
    """The tests' enumerators for every extension but sugeno_product at one score vector."""
    n = mu.n
    tp, tn = np.maximum(t, 0.0), np.maximum(-t, 0.0)
    if name == "mle":
        return oracles.naive_owen_mle(list(mu.values), n, list(t))
    if name == "smle":
        vals = list(mu.values)
        owen = oracles.naive_owen_mle
        return owen(vals, n, list(tp)) - owen(vals, n, list(tn))
    m1 = oracles.naive_mobius(list(mu.values), n)
    if name == "choquet":
        return oracles.naive_min_form(m1, n, list(t))
    m2 = m1 if name == "sipos" else oracles.naive_mobius(list(losses.values), n)
    return oracles.naive_min_form(m1, n, list(tp)) - oracles.naive_min_form(m2, n, list(tn))


class TestBatchKernels:
    """``Extension.many`` against the scalar kernels and the naive enumerators."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 8),
        k=st.sampled_from([1, 2, 5, 9]),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(sorted(CAPACITY_KINDS)),
        lo=st.sampled_from([-1.0, 0.0]),
        decimals=st.sampled_from([None, 1]),
    )
    def test_batch_matches_scalar_and_oracles(self, n, k, seed, kind, lo, decimals):
        rng = np.random.default_rng(seed)
        mu = CAPACITY_KINDS[kind](rng, n)
        losses = CAPACITY_KINDS[kind](rng, n)
        t = rng.uniform(lo, 1.0, (k, n))
        if decimals is not None:
            t = np.round(t, decimals)  # ties, zeros and sign changes at 0
        for name in ("choquet", "sipos", "sugeno_product"):
            ext = make_extension(name, mu)
            assert np.array_equal(ext.many(t), [ext(row) for row in t]), name
        mv = ordinal_mobius(mu)
        want = np.array([sugeno_product(mv, row) for row in t])
        assert make_extension("sugeno_product", mu).many(t).tobytes() == want.tobytes()
        for name in ("choquet", "sipos", "mle", "smle", "cpt"):
            got = make_extension(name, mu, losses if name == "cpt" else None).many(t)
            for row, value in zip(t, got):
                want = naive_extension(name, mu, losses, row)
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), name

    @pytest.mark.parametrize("chunk", [integrals._CHUNK, 1 << 9])
    @pytest.mark.parametrize("k", [1, 3, 7, 200, 513])
    @pytest.mark.parametrize("name", ["mle", "smle", "cpt"])
    def test_duplicate_rows_score_alike_anywhere_in_the_batch(self, name, k, chunk, monkeypatch):
        # 1 << 9 puts two rows in each matrix product at n = 16
        monkeypatch.setattr(integrals, "_CHUNK", chunk)
        rng = np.random.default_rng(k)
        mu = random_capacity(rng, 16)
        ext = make_extension(name, mu, random_capacity(rng, 16) if name == "cpt" else None)
        t = rng.uniform(-1.5, 2.5, (k, 16))
        where = sorted({0, k // 2, k - 1})
        t[where] = rng.uniform(-1.5, 2.5, 16)
        got = ext.many(t)
        assert len({got[j] for j in where}) == 1
        assert got[0] == pytest.approx(ext(t[0]), rel=1e-9, abs=1e-9)

    def test_sugeno_product_is_the_max_over_upper_sets(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        # t = (0.5, 0.2): max(0.2 * mu(N), 0.5 * mu({1}))
        assert make_extension("sugeno_product", mu).many([[0.5, 0.2]])[0] == 0.2
        assert make_extension("sugeno_product", mu).many([[0.9, 0.2]])[0] == pytest.approx(0.27)

    def test_empty_batch(self):
        for name in ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt"):
            ext = make_extension(name, OVERLAP, OVERLAP if name == "cpt" else None)
            assert ext.many(np.empty((0, 2))).shape == (0,)

    def test_shape_and_finiteness_are_checked(self):
        ext = make_extension("choquet", OVERLAP)
        with pytest.raises(DimensionMismatch):
            ext.many([0.5, 0.2])
        with pytest.raises(DimensionMismatch):
            ext.many([[0.5, 0.2, 0.1]])
        with pytest.raises(OutOfDomain):
            ext.many([[0.5, 0.2], [np.inf, 0.0]])
        with pytest.raises(OutOfDomain):
            ext.many([[np.nan, 0.0]])

    @pytest.mark.parametrize("call, match", [
        (lambda: choquet(OVERLAP, ["a", 1]), r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, [10**400, 1]), r"score vector must have length 2 and hold only"),
        (lambda: make_extension("choquet", OVERLAP).many([[1, "x"]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        (lambda: make_extension("choquet", OVERLAP).many([[1, 2], [3]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        # numpy parsed numeric strings and bytes as numbers
        (lambda: choquet(OVERLAP, ["0.5", "0.25"]), r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, np.array([b"0.5", b"0.25"])),
         r"score vector must have length 2 and hold only"),
        (lambda: make_extension("choquet", OVERLAP).many([["0.5", "0.25"]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        # bools ran as 0/1, complex numbers lost their imaginary part with a
        # ComplexWarning, and None ran as NaN into "scores must be finite"
        (lambda: choquet(OVERLAP, np.array([True, False])),
         r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, [True, False]), r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, np.array([1 + 0j, 0.5])),
         r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, [None, None]), r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, np.array([np.True_, 0.5], dtype=object)),
         r"score vector must have length 2 and hold only"),
        (lambda: make_extension("choquet", OVERLAP).many(np.array([[True, False]])),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        (lambda: make_extension("choquet", OVERLAP).many([[1 + 0j, 0.5]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        (lambda: make_extension("choquet", OVERLAP).many([[0.5, None]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        # bools mixed into a list of numbers ran as 0/1
        (lambda: choquet(OVERLAP, [True, 0.5]), r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, (0.5, np.True_)),
         r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, [1, False]), r"score vector must have length 2 and hold only"),
        (lambda: make_extension("choquet", OVERLAP).many([[True, 0.5]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        (lambda: make_extension("choquet", OVERLAP).many([[0.5, 0.5], (0.25, np.False_)]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        (lambda: make_extension("choquet", OVERLAP).many([[0.5, 0.5], np.array([True, False])]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
        # a 0-d bool array in a list of numbers ran as 0/1
        (lambda: choquet(OVERLAP, [np.array(True), 0.5]),
         r"score vector must have length 2 and hold only"),
        (lambda: choquet(OVERLAP, (0.5, np.array(False))),
         r"score vector must have length 2 and hold only"),
        (lambda: make_extension("choquet", OVERLAP).many([[np.array(True), 0.5]]),
         r"score matrix must have shape \(k, 2\) and hold only numbers"),
    ], ids=["string", "huge-integer", "string-in-matrix", "ragged-matrix", "numeric-string",
            "numeric-bytes", "numeric-string-matrix", "bool-array", "bool-list", "complex",
            "none", "numpy-bool-object", "bool-matrix", "complex-matrix", "none-in-matrix",
            "bool-in-float-list", "numpy-bool-in-tuple", "bool-in-int-list",
            "bool-in-matrix", "numpy-bool-in-matrix-row", "bool-array-row",
            "0d-bool-array-in-list", "0d-bool-array-in-tuple", "0d-bool-array-in-matrix"])
    def test_scores_that_are_not_numbers_are_invalid_format(self, call, match):
        # numpy's bare ValueError or OverflowError used to escape
        with pytest.raises(InvalidFormat, match=match):
            call()

    def test_number_lists_score_and_float_arrays_are_not_copied(self):
        ext = make_extension("choquet", OVERLAP)
        want = ext(np.array([1.0, 0.5]))
        assert choquet(OVERLAP, [1, 0.5]) == choquet(OVERLAP, (np.int64(1), 0.5)) == want
        assert choquet(OVERLAP, [np.array(1.0), np.float32(0.5)]) == want
        assert ext.many([[1, 0.5], np.array([1.0, 0.5])]).tolist() == [want, want]
        t = np.array([[1.0, 0.5], [0.25, -2.0]])
        assert integrals._scores(t, 2, ndim=2) is t
        assert np.shares_memory(integrals._scores(t[0], 2), t)

    def test_extension_without_batch_runs_fn_on_the_whole_matrix(self):
        calls = []

        def fn(t):
            calls.append(t.tolist())
            return t.sum(axis=1)

        ext = Extension("sum", 2, "reals", fn)
        assert ext.batch is None
        assert ext.many([[1.0, 2.0], [3.0, -4.0]]).tolist() == [3.0, -1.0]
        assert calls == [[[1.0, 2.0], [3.0, -4.0]]]
        big = Extension("big", 1, "reals", lambda t: np.where(t[:, 0] > 5.0, np.inf, t[:, 0]))
        with pytest.raises(OutOfDomain, match="row 1"):
            big.many([[1.0], [10.0]])


def scalar_or_none(ext, t):
    """The one-vector call, or None where it raises OutOfDomain."""
    try:
        return ext(t)
    except OutOfDomain:
        return None


def same_bits(value, want) -> bool:
    if want is None:
        return not np.isfinite(value)
    return np.float64(value).tobytes() == np.float64(want).tobytes()


class TestRowKernels:
    """``Extension._values``, the axiom harness's kernel, against the one-vector call."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(sorted(CAPACITY_KINDS)),
        lo=st.sampled_from([-1.0, 0.0]),
        decimals=st.sampled_from([None, 0, 1]),
        zeros=st.booleans(),
        scale=st.sampled_from([1.0, 1e3, 1e120, 1e307]),
    )
    def test_equal_to_the_scalar_call_bit_for_bit(
        self, n, k, seed, kind, lo, decimals, zeros, scale
    ):
        rng = np.random.default_rng(seed)
        mu = CAPACITY_KINDS[kind](rng, n)
        losses = CAPACITY_KINDS[kind](rng, n)
        t = rng.uniform(lo, 1.0, (k, n))
        if decimals is not None:
            t = np.round(t, decimals)  # ties, and zeros of either sign
        if zeros:
            t[rng.random((k, n)) < 0.3] = 0.0
            t[rng.random((k, n)) < 0.3] = -0.0
        t *= scale  # large scales overflow the coefficient forms
        for name in EXTENSION_NAMES:
            ext = make_extension(name, mu, losses if name == "cpt" else None)
            for row, value in zip(t, ext._values(t)):
                assert same_bits(value, scalar_or_none(ext, row)), (name, row.tolist())

    @pytest.mark.parametrize("n", range(1, 17))
    def test_coefficient_forms_equal_a_dot_per_row(self, n):
        # Zeros of either sign make zero terms; at n = 1, m({1}) = -0.5 times a
        # score of +0.0 is a one-term dot of -0.0.
        rng = np.random.default_rng(n)
        coef = [-0.5] if n == 1 else rng.uniform(-1.0, 1.0, (1 << n) - 1)
        m = MobiusRepr(n, np.append(0.0, coef)).coefficients
        t = rng.uniform(-1.0, 1.0, (max(4, 4096 >> n), n))
        t[rng.random(t.shape) < 0.3] = 0.0
        t[rng.random(t.shape) < 0.3] = -0.0
        t[0] = 0.0
        for ufunc, empty in ((np.multiply, 1.0), (np.minimum, np.inf)):
            tp, tn = integrals._split(t)
            with np.errstate(invalid="ignore"):  # inf - inf at the empty set, not in the dot
                gains, losses, table = (np.ascontiguousarray(subsets.fold(
                    ufunc, x.T, empty, np.empty((1 << n, len(x)))).T) for x in (tp, tn, t))
                tables = [table, gains - losses]
            for signed, table in zip((False, True), tables):
                got = integrals._mobius_rows(m, ufunc, empty, t, signed=signed)
                want = oracles.loop_mobius_rows(m, table)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        if n == 1:
            assert np.signbit(integrals._mobius_rows(m, np.multiply, 1.0, t[:1]))[0]

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("k", [10, 11])
    def test_blocks_that_reuse_the_scratch_equal_a_loop_fold_byte_for_byte(self, n, k, monkeypatch):
        # Blocks of three rows: k rows run three full blocks and a short one of one or
        # two, each folded into the tables the block before it left.
        monkeypatch.setattr(integrals, "_CHUNK", 3 << (n + 3))
        rng = np.random.default_rng(40 + n)
        m, m2 = (MobiusRepr(n, np.append(0.0, rng.uniform(-1.0, 1.0, (1 << n) - 1))).coefficients
                 for _ in range(2))
        t = np.round(rng.uniform(-1.0, 1.0, (k, n)), 1)  # ties
        t[rng.random(t.shape) < 0.25] = 0.0
        t[rng.random(t.shape) < 0.25] = -0.0
        tp, tn = np.maximum(t, 0.0), np.maximum(-t, 0.0)
        for ufunc, empty in ((np.minimum, np.inf), (np.multiply, 1.0)):
            gains, losses = (oracles.loop_subset_table(ufunc, x, empty) for x in (tp, tn))
            with np.errstate(invalid="ignore"):  # inf - inf at the empty set, not in the dot
                signed_table = gains - losses
            for signed, table in ((False, oracles.loop_subset_table(ufunc, t, empty)),
                                  (True, signed_table)):
                got = integrals._mobius_rows(m, ufunc, empty, t, signed=signed)
                assert got.tobytes() == oracles.loop_mobius_rows(m, table).tobytes(), (
                    ufunc.__name__, signed)
        want = oracles.loop_mobius_rows(m, oracles.loop_subset_table(np.minimum, tp, np.inf))
        want -= oracles.loop_mobius_rows(m2, oracles.loop_subset_table(np.minimum, tn, np.inf))
        for _ in range(2):  # nothing carries over from one call to the next
            assert integrals._cpt_rows(m, m2, t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["w-1", "w", "w+1", "2000"])
    @pytest.mark.parametrize("lo", [0.0, -1.0], ids=["unsigned scores", "signed scores"])
    def test_rows_of_zeros_equal_a_dot_per_row(self, n, extra, lo):
        # Rows of all +0.0, of all -0.0 and of both signs, and of no negative score,
        # whose t- alone is all +0.0 (with lo = 0 every block's t- is all +0.0, so the
        # signed kernels run no fold of t-); then a matrix of +0.0 alone, whose call
        # folds one row, and one that holds a -0.0, which is folded row by row.
        w = max(1, integrals._CHUNK >> (n + 3))
        k = 2000 if extra is None else w + extra
        rng = np.random.default_rng(100 * n + k)
        m, m2 = (MobiusRepr(n, np.append(0.0, rng.uniform(-1.0, 1.0, (1 << n) - 1))).coefficients
                 for _ in range(2))
        t = rng.uniform(lo, 1.0, (k, n))
        kind = rng.integers(0, 5, k)
        t[kind == 0] = 0.0
        t[kind == 1] = -0.0
        t[kind == 2] = np.where(rng.random((np.count_nonzero(kind == 2), n)) < 0.5, -0.0, 0.0)
        t[kind == 3] = np.abs(t[kind == 3])
        t[k // 2] = -0.0  # every kind, whatever the draw
        t[k // 2 + 1 :: 7] = 0.0
        signed_zero = np.zeros((k, n))
        signed_zero[k // 2, n // 2] = -0.0
        for t in (t, np.zeros((k, n)), signed_zero):
            tp, tn = integrals._split(t)
            for ufunc, empty in ((np.minimum, np.inf), (np.multiply, 1.0)):
                with np.errstate(invalid="ignore"):  # inf - inf at the empty set, not in the dot
                    table, gains, losses = (np.ascontiguousarray(subsets.fold(
                        ufunc, x.T, empty, np.empty((1 << n, k))).T) for x in (t, tp, tn))
                    signed_table = gains - losses
                for signed, want in ((False, table), (True, signed_table)):
                    got = integrals._mobius_rows(m, ufunc, empty, t, signed=signed)
                    assert got.tobytes() == oracles.loop_mobius_rows(m, want).tobytes(), (
                        ufunc.__name__, signed)
                if ufunc is np.minimum:
                    want = (oracles.loop_mobius_rows(m, gains)
                            - oracles.loop_mobius_rows(m2, losses))
                    assert integrals._cpt_rows(m, m2, t).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(v=edge_tables(), data=st.data())
    def test_rows_of_zeros_at_the_edges_of_a_double(self, v, data):
        # Coefficients at the edges of a double against score rows of signed zeros,
        # subnormals and overflowing scores, beside rows of all +0.0.
        entry = st.sampled_from([0.0, 0.0, -0.0, 5e-324, -5e-324, 0.5, -1.0, 1e300, -1e300])
        t = np.array(data.draw(st.lists(st.lists(entry, min_size=v.n, max_size=v.n),
                                        min_size=1, max_size=6)))
        t[data.draw(st.lists(st.integers(0, len(t) - 1), max_size=3))] = 0.0
        m, m2 = v.values, v.values[::-1].copy()
        tp, tn = integrals._split(t)
        for ufunc, empty in ((np.minimum, np.inf), (np.multiply, 1.0)):
            with np.errstate(all="ignore"):
                table, gains, losses = (oracles.loop_subset_table(ufunc, x, empty)
                                        for x in (t, tp, tn))
                wants = [oracles.loop_mobius_rows(m, x) for x in (table, gains - losses)]
                cpt_want = oracles.loop_mobius_rows(m, gains) - oracles.loop_mobius_rows(m2, losses)
            for signed, want in zip((False, True), wants):
                got = integrals._mobius_rows(m, ufunc, empty, t, signed=signed)
                assert got.tobytes() == want.tobytes(), (ufunc.__name__, signed)
            if ufunc is np.minimum:
                assert integrals._cpt_rows(m, m2, t).tobytes() == cpt_want.tobytes()

    @pytest.mark.parametrize("n, k", [(8, 2000), (16, 20)])
    def test_the_row_kernels_peak_at_their_scratch(self, n, k):
        # Each call holds two tables of at most 256 KiB (one row's table at n = 16),
        # the second also the rows buffer, not a table per block: beside them only
        # its values, a block's columns, t+ and t-, numpy's iterator buffer and small
        # objects. _cpt_rows also holds t+ and t- of the whole matrix and the values
        # of its first call.
        rng = np.random.default_rng(n)
        m1, m2 = (rng.uniform(-1.0, 1.0, 1 << n) for _ in range(2))
        t = rng.uniform(-1.0, 1.0, (k, n))
        w = max(1, min(k, (256 << 10) >> (n + 3)))
        call = 2 * 8 * (w << n) + 8 * k + 3 * 8 * w * n + 8 * np.getbufsize() + 8192
        signed = peak_above_input(
            lambda: integrals._mobius_rows(m1, np.multiply, 1.0, t, signed=True))
        cpt = peak_above_input(lambda: integrals._cpt_rows(m1, m2, t))
        assert signed <= call, (signed, call)
        assert cpt <= call + 2 * 8 * k * n + 8 * k, (cpt, call)

    def test_zero_times_infinity_is_not_finite(self):
        # m({1, 2}) = 0 meets the product 1e308 * -1e308 = -inf: 0 * inf is NaN
        ext = make_extension("mle", as_capacity([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(OutOfDomain):
            ext([1e308, -1e308])
        assert np.isnan(ext._values(np.array([[1e308, -1e308]]))[0])

    def test_rows_with_non_finite_scores_are_nan(self):
        for name in EXTENSION_NAMES:
            ext = make_extension(name, OVERLAP, OVERLAP if name == "cpt" else None)
            got = ext._values(np.array([[0.5, 0.2], [np.inf, 0.0], [np.nan, 0.1], [0.2, 0.5]]))
            assert np.isnan(got[1:3]).all(), name
            assert same_bits(got[0], ext([0.5, 0.2])) and same_bits(got[3], ext([0.2, 0.5])), name

    def test_values_runs_fn_once_with_non_finite_rows_zeroed(self):
        calls = []

        def fn(t):
            calls.append(t.tolist())
            return t[:, 0] - t[:, 1]

        ext = Extension("diff", 2, "reals", fn)
        got = ext._values(np.array([[0.5, 0.25], [np.inf, 0.0], [np.nan, 0.1], [0.1, 0.3]]))
        assert calls == [[[0.5, 0.25], [0.0, 0.0], [0.0, 0.0], [0.1, 0.3]]]
        assert np.isnan(got).tolist() == [False, True, True, False]
        assert got[0] == 0.25 and got[3] == 0.1 - 0.3

    def test_kernels_only_read_their_scores(self):
        # _values hands a finite matrix to fn as it is: no kernel may write to it.
        rng = np.random.default_rng(7)
        mu, losses = random_capacity(rng, 4), random_capacity(rng, 4)
        inner = np.round(rng.uniform(-1.0, 1.0, 14), 1)
        signed = SetFunction(4, np.concatenate([[0.0], inner, [-0.0]]))  # v(N) = -0.0
        t = np.round(rng.uniform(-1.0, 1.0, (9, 4)), 1)
        t[:2] = 0.0
        t.flags.writeable = False
        for gains in (mu, signed):
            for name in EXTENSION_NAMES:
                if name == "sugeno_product" and gains is signed:
                    continue  # its ordinal coefficients would be negative
                ext = make_extension(name, gains, losses if name == "cpt" else None)
                for kernel in {ext.fn, ext.batch} - {None}:
                    assert kernel(t).tobytes() == kernel(t.copy()).tobytes(), name
                assert ext._values(t).tobytes() == ext.fn(t.copy()).tobytes(), name


def sort_kernel_tables(rng, n):
    """Value tables for the sort kernels: capacities (one with drops within tol, one
    with +0.0 and -0.0 plateaus) and non-monotone tables with entries of either sign,
    two of them with v(N) = -0.0 and v(N) < 0."""
    plateaus = signed_zeros(np.round(random_capacity(rng, n, lo=0.0).values ** 2, 1), rng)
    tables = [random_capacity(rng, n).values, wobbly_capacity(rng, n).values,
              as_capacity(plateaus, n=n).values]
    for last in (-0.0, -0.5, 0.5):
        v = np.round(rng.uniform(-1.0, 1.0, 1 << n), 1)
        v[rng.random(1 << n) < 0.25] = 0.0
        v[rng.random(1 << n) < 0.25] = -0.0
        v[0], v[-1] = 0.0, last
        tables.append(SetFunction(n, v).values)
    return tables


@pytest.mark.parametrize("n", range(1, 11))
@pytest.mark.parametrize("k", [1, 2, 33, 1025])
def test_sort_kernels_equal_the_two_rank_row_major_forms_byte_for_byte(n, k):
    # One ranking of t, criterion-major, against the column loop over a ranking of t
    # and, for the signed kernels, one of t+ and one of t-: scores with ties and zeros
    # of either sign, the first rows all zeros.
    rng = np.random.default_rng(100 * n + k)
    t = np.round(rng.uniform(-1.0, 1.0, (k, n)), 1)
    t[rng.random(t.shape) < 0.25] = 0.0
    t[rng.random(t.shape) < 0.25] = -0.0
    t[0] = -0.0
    t[1:2] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    tables = sort_kernel_tables(rng, n)
    for gains, losses in zip(tables, tables[1:] + tables[:1]):
        got, want = integrals._choquet_rows(gains, t), oracles.loop_choquet_rows(gains, t)
        assert got.tobytes() == want.tobytes()
        for second in (gains, losses):  # sipos, then the cpt batch
            got = integrals._split_choquet_rows(gains, second, t)
            assert got.tobytes() == oracles.loop_split_choquet_rows(gains, second, t).tobytes()
        if gains.min() >= 0.0:  # the ordinal coefficients of a table must be nonnegative
            nu = ordinal_zeta(ordinal_mobius(SetFunction(n, gains))).values
            got, want = integrals._sugeno_rows(nu, t), oracles.loop_sugeno_rows(nu, t)
            assert got.tobytes() == want.tobytes()


def test_a_zero_signed_choquet_keeps_the_sign_of_two_rankings():
    # At t = (0.0, -0.0), t- read along the ranking of t backwards meets v({1}) = 0.5
    # at its second rank, where a ranking of t- of its own meets v({2}) = -0.0: the
    # one ranking alone gives -0.0 in place of +0.0.
    v = SetFunction(2, [0.0, 0.5, -0.0, -0.0])
    for value in (sipos(v, [0.0, -0.0]), make_extension("sipos", v)([0.0, -0.0]),
                  make_extension("cpt", v, v).many([[0.0, -0.0]])[0]):
        assert value == 0.0 and not np.signbit(value)
    # t+ and t- hold no -0.0, the premise of the rule that re-ranks only there
    assert not np.signbit(integrals._split(np.array([[-0.0, 0.0, -1.0, 1.0] * 9]))).any()
