import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capacities import (
    EmptyCoalition,
    InvalidFormat,
    as_capacity,
    classify,
    interaction_index,
    interaction_report,
    shapley,
)
from helpers import random_additive_capacity, random_capacity

TOL = 1e-9


class TestInteractionIndex:
    def test_full_overlap_pair(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        assert interaction_index(mu, {1, 2}) == pytest.approx(-0.8, abs=1e-12)

    def test_full_complement_pair(self):
        mu = as_capacity([0.0, 0.1, 0.1, 1.0])
        assert interaction_index(mu, {1, 2}) == pytest.approx(0.8, abs=1e-12)

    def test_extremal_values(self):
        assert interaction_index(as_capacity([0.0, 1.0, 1.0, 1.0]), 0b11) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert interaction_index(as_capacity([0.0, 0.0, 0.0, 1.0]), 0b11) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_criteria_closed_form(self):
        # for n=2 the pair index is exactly mu(N) - mu({1}) - mu({2})
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = random_capacity(rng, 2)
            want = mu[3] - mu[1] - mu[2]
            assert interaction_index(mu, {1, 2}) == pytest.approx(want, abs=TOL)

    def test_additive_capacity_has_no_interaction(self):
        rng = np.random.default_rng(1)
        for n in range(2, 7):
            mu = random_additive_capacity(rng, n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert interaction_index(mu, {i, j}) == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        for n in range(1, 8):
            mu = random_capacity(rng, n)
            vals = list(mu.values)
            for mask in range(1, 1 << n):
                want = oracles.naive_interaction(vals, n, mask)
                assert interaction_index(mu, mask) == pytest.approx(want, abs=TOL)

    def test_accepts_mask_or_iterable(self):
        mu = random_capacity(np.random.default_rng(3), 4)
        assert interaction_index(mu, 0b0101) == interaction_index(mu, (1, 3))

    def test_empty_coalition_rejected(self):
        mu = random_capacity(np.random.default_rng(4), 3)
        with pytest.raises(EmptyCoalition):
            interaction_index(mu, 0)
        with pytest.raises(EmptyCoalition):
            interaction_index(mu, ())


class TestShapley:
    def test_equal_split_for_symmetric_capacity(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        phi = shapley(mu)
        assert phi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            mu = random_capacity(rng, n)
            assert shapley(mu).sum() == pytest.approx(1.0, abs=TOL)

    def test_matches_singleton_interaction(self):
        rng = np.random.default_rng(6)
        mu = random_capacity(rng, 5)
        phi = shapley(mu)
        for i in range(1, 6):
            assert phi[i - 1] == pytest.approx(interaction_index(mu, {i}), abs=TOL)

    def test_additive_capacity_returns_weights(self):
        rng = np.random.default_rng(7)
        mu = random_additive_capacity(rng, 4)
        phi = shapley(mu)
        for i in range(4):
            assert phi[i] == pytest.approx(mu[1 << i], abs=1e-12)


class TestClassify:
    def test_labels(self):
        assert classify(0.5) == "positive"
        assert classify(-0.5) == "negative"
        assert classify(0.0) == "non-interactive"
        assert classify(1e-12) == "non-interactive"
        assert classify(-1e-12) == "non-interactive"
        assert classify(2e-9, tol=1e-9) == "positive"


class TestInteractionReport:
    def test_pair_matrix_layout(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        rep = interaction_report(mu)
        assert rep.n == 2
        assert rep.pair_matrix[0, 0] == pytest.approx(0.5)
        assert rep.pair_matrix[1, 1] == pytest.approx(0.5)
        assert rep.pair_matrix[0, 1] == pytest.approx(-0.8)
        assert rep.pair_matrix[1, 0] == pytest.approx(-0.8)
        assert rep.labels[0b11] == "negative"

    def test_values_keyed_by_mask_up_to_order(self):
        mu = random_capacity(np.random.default_rng(8), 4)
        rep = interaction_report(mu, max_order=3)
        sizes = {bin(k).count("1") for k in rep.values}
        assert sizes == {1, 2, 3}
        for mask, val in rep.values.items():
            assert val == pytest.approx(interaction_index(mu, mask), abs=TOL)

    def test_single_criterion_capacity(self):
        rep = interaction_report(as_capacity([0.0, 1.0]))
        assert rep.n == 1
        assert rep.shapley[0] == pytest.approx(1.0)
        assert rep.pair_matrix.shape == (1, 1)

    def test_to_dict_uses_subset_keys(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        d = interaction_report(mu).to_dict()
        assert d["values"]["1,2"] == pytest.approx(-0.8)
        assert d["labels"]["1,2"] == "negative"
        assert d["shapley"] == pytest.approx([0.5, 0.5])

    def test_rejects_negative_or_non_finite_tol(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        assert interaction_report(mu, tol=0.0).labels[0b11] == "negative"
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidFormat):
                interaction_report(mu, tol=tol)


class TestAllIndicesTransform:
    """The report reads every index off one transform; the per-coalition
    ``interaction_index`` and the naive enumerator are its references."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        lo=st.sampled_from([0.0, 0.1]),
    )
    def test_full_report_matches_naive_oracle(self, n, seed, lo):
        mu = random_capacity(np.random.default_rng(seed), n, lo=lo)
        rep = interaction_report(mu, max_order=n)
        assert sorted(rep.values) == list(range(1, 1 << n))
        vals = list(mu.values)
        for mask, got in rep.values.items():
            assert got == pytest.approx(oracles.naive_interaction(vals, n, mask), abs=TOL)

    def test_shapley_is_the_singleton_index_and_the_diagonal(self):
        rng = np.random.default_rng(9)
        for n in range(1, 9):
            mu = random_capacity(rng, n)
            phi = shapley(mu)
            rep = interaction_report(mu)
            assert np.array_equal(np.diag(rep.pair_matrix), rep.shapley)
            assert np.array_equal(rep.pair_matrix, rep.pair_matrix.T)
            for i in range(n):
                assert rep.values[1 << i] == rep.shapley[i]
                want = interaction_index(mu, 1 << i)
                assert phi[i] == pytest.approx(want, abs=1e-12)
                assert rep.shapley[i] == pytest.approx(want, abs=1e-12)

    def test_one_criterion(self):
        mu = as_capacity([0.0, 1.0])
        assert shapley(mu).tolist() == [1.0]
        rep = interaction_report(mu, max_order=1)
        assert rep.values == {1: 1.0}
        assert rep.pair_matrix.tolist() == [[1.0]]
        with pytest.raises(InvalidFormat):
            interaction_report(mu, max_order=2)

    def test_two_criteria_closed_forms(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mu = random_capacity(rng, 2)
            rep = interaction_report(mu)
            pair = mu[3] - mu[1] - mu[2]
            phi = [(mu[1] + mu[3] - mu[2]) / 2, (mu[2] + mu[3] - mu[1]) / 2]
            assert rep.values[0b11] == pytest.approx(pair, abs=1e-15)
            assert rep.pair_matrix[0, 1] == rep.pair_matrix[1, 0] == rep.values[0b11]
            assert rep.shapley == pytest.approx(phi, abs=1e-15)
            assert shapley(mu) == pytest.approx(phi, abs=1e-15)

    def test_sixteen_criteria_against_per_coalition_index(self):
        n = 16
        mu = random_capacity(np.random.default_rng(11), n)
        rep = interaction_report(mu)
        assert len(rep.values) == n + n * (n - 1) // 2
        for mask, got in rep.values.items():
            assert abs(got - interaction_index(mu, mask)) <= 1e-12
        phi = shapley(mu)
        for i in range(n):
            assert abs(phi[i] - interaction_index(mu, 1 << i)) <= 1e-12
