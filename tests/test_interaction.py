import copy
import functools
import math
import os
import pickle
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capacities
import oracles
from capacities import (
    Capacity,
    EmptyCoalition,
    InvalidFormat,
    OutOfDomain,
    SetFunction,
    as_capacity,
    classify,
    co_mobius,
    interaction_index,
    interaction_report,
    mobius,
    shapley,
)
from capacities.subsets import lattice, popcounts
from helpers import (HashedCapacity, peak_above_input, random_additive_capacity, random_capacity,
                     signed_table)

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
        assert interaction_index(mu, "1,2") == interaction_index(mu, 3) == interaction_index(
            mu, [1, 2]
        )
        # numpy integers, as a mask or as indices, read like Python ints
        assert interaction_index(mu, np.int64(3)) == interaction_index(mu, 3)
        assert interaction_index(mu, np.array([1, 2])) == interaction_index(mu, [1, 2])
        assert interaction_index(mu, np.uint8(5)) == interaction_index(mu, (1, 3))

    @pytest.mark.parametrize(
        "coalition, match",
        [(True, "a subset must be"), (3.0, "a subset must be"), (None, "a subset must be"),
         (16, "subset mask 16 out of range for n = 4"), ("1,5", "bad subset key"),
         (np.bool_(True), "a subset must be"), (np.float64(3.0), "a subset must be"),
         (np.int64(16), "subset mask 16 out of range for n = 4"),
         (np.array([True, False]), "criterion index np.True_ out of range"),
         (np.array([1, 5]), r"criterion index np.int64\(5\) out of range"),
         ([1, 1], "criterion index 1 is repeated"),
         (np.array([2, 2]), r"criterion index np.int64\(2\) is repeated")],
        ids=["bool", "float", "none", "mask-out-of-range", "key-out-of-range", "numpy-bool",
             "numpy-float", "numpy-mask-out-of-range", "numpy-bool-indices",
             "numpy-index-out-of-range", "repeated-index", "numpy-repeated-index"],
    )
    def test_what_is_not_a_subset_is_invalid_format(self, coalition, match):
        mu = random_capacity(np.random.default_rng(3), 4)
        with pytest.raises(InvalidFormat, match=match):
            interaction_index(mu, coalition)

    @pytest.mark.parametrize("values, coalition, key", [
        ([0.0, 1e308, -1e308, 1e308], 3, "1,2"), ([0.0, 1e308, -1e308, 1e308], 1, "1"),
        ([0.0, 1e308, 1e308, -1e308], 3, "1,2"),
        ([0.0, 0.0, -1.7e308, 1.7e308, 1.7e308, -1.7e308, 0.0, 0.0], [1], "1")])
    def test_an_overflowing_index_is_invalid_format(self, values, coalition, key):
        # the first three returned inf, inf and -inf; the differences of the last hold
        # both +inf and -inf, and their dot warned before it refused; shapley refuses
        # the same tables
        v = SetFunction(len(values).bit_length() - 1, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidFormat,
                               match=r"^the interaction index of \{%s\} is not finite" % key):
                interaction_index(v, coalition)
            with pytest.raises(InvalidFormat):
                shapley(v)

    @pytest.mark.parametrize("call", [
        shapley, interaction_report, functools.partial(interaction_report, max_order=1),
        functools.partial(interaction_index, coalition=2)],
        ids=["shapley", "report", "report-order-1", "index"])
    def test_a_finite_mobius_table_whose_index_overflows_is_invalid_format(self, call):
        # m = (0, -1.7e308, 1.7e308, 1.7e308) is finite, but I({2}) = m({2}) + m({1, 2}) / 2
        # is not: shapley returned [-8.5e307, inf] with an overflow warning, and the
        # report labelled inf "positive"
        v = SetFunction(2, [0.0, -1.7e308, 1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidFormat,
                               match=r"^the interaction index of \{2\} is not finite, got inf$"):
                call(v)

    @pytest.mark.parametrize("call", [
        shapley, interaction_report, functools.partial(interaction_report, max_order=1)],
        ids=["shapley", "report", "report-order-1"])
    def test_the_first_index_that_overflows_is_named(self, call):
        # a finite Mobius table whose Shapley values of {2} and {3} are -inf and inf
        v = SetFunction(3, [0.0, 1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308, 1.7e308])
        with pytest.raises(InvalidFormat,
                           match=r"^the interaction index of \{2\} is not finite, got -inf$"):
            call(v)

    def test_empty_coalition_rejected(self):
        mu = random_capacity(np.random.default_rng(4), 3)
        with pytest.raises(EmptyCoalition):
            interaction_index(mu, 0)
        with pytest.raises(EmptyCoalition):
            interaction_index(mu, ())
        with pytest.raises(EmptyCoalition):
            interaction_index(mu, "")


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
        assert classify(-0.0, tol=0.0) == "non-interactive"
        assert classify(np.int64(-1)) == "negative"

    @pytest.mark.parametrize("value, error", [
        ("0.5", InvalidFormat), (True, InvalidFormat), (None, InvalidFormat), (1j, InvalidFormat),
        (10**400, InvalidFormat), (math.nan, OutOfDomain), (-math.inf, OutOfDomain),
    ], ids=["string", "bool", "none", "complex", "huge-int", "nan", "-inf"])
    def test_a_value_that_is_not_a_finite_number_is_refused(self, value, error):
        with pytest.raises(error, match="^the value to classify (must be|is an integer too large)"):
            classify(value)


class TestReportLabels:
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05, 0.3])
    def test_labels_are_those_of_classify(self, tol):
        rng = np.random.default_rng(31)
        for n in (1, 2, 4, 6):
            mu = random_capacity(rng, n)
            rep = interaction_report(mu, max_order=n, tol=tol)
            want = {mask: classify(v, tol) for mask, v in rep.values.items()}
            assert list(rep.labels.items()) == list(want.items())

    def test_a_negative_zero_is_non_interactive(self):
        mu = as_capacity([0.0, 0.0, 0.0, -0.0], tol=1.0)  # I({1, 2}) = -0.0 - 0.0
        rep = interaction_report(mu, tol=0.0)
        assert math.copysign(1.0, rep.values[0b11]) == -1.0
        assert rep.labels[0b11] == "non-interactive"


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
        # 1.5 reached the report as is, True ran as 1 and "2" raised a bare TypeError
        pair = as_capacity([0.0, 0.9, 0.9, 1.0])
        for m, order in ((mu, 2), (mu, True), (mu, 1.0), (pair, 1.5), (pair, "2")):
            with pytest.raises(InvalidFormat, match="max_order must be in 1..%d" % m.n):
                interaction_report(m, max_order=order)
        assert type(interaction_report(pair, max_order=np.int64(2)).max_order) is int  # JSON-ready

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

    def test_sixteen_criteria_against_naive_oracle(self):
        n = 16
        rng = np.random.default_rng(12)
        mu = random_capacity(rng, n)
        rep = interaction_report(mu, max_order=3)
        vals = list(mu.values)
        for size in (1, 2, 3):
            masks = [mask for mask in rep.values if mask.bit_count() == size]
            for mask in rng.choice(masks, 5, replace=False).tolist():
                want = oracles.naive_interaction(vals, n, mask)
                assert abs(rep.values[mask] - want) <= 1e-12

    def test_pair_matrix_does_not_depend_on_max_order(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 8):
            mu = random_capacity(rng, n)
            want = interaction_report(mu, max_order=2).pair_matrix
            assert np.array_equal(interaction_report(mu, max_order=1).pair_matrix, want)

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


class TestPinnedToTheTableFormulas:
    """Shapley values and reports byte for byte against the formulas they were
    first computed by: one new scaled Mobius table per order, read at the masks
    of that order; the Shapley values are the order-1 table's singletons."""

    @staticmethod
    def tables(n):
        """A capacity, and set functions of small integers with zeros of either sign,
        the same times 1e300."""
        rng = np.random.default_rng(300 + n)
        signed = signed_table(n, rng)
        return [random_capacity(rng, n), SetFunction(n, signed), SetFunction(n, signed * 1e300)]

    @staticmethod
    def want_indices(mu, max_order):
        m = mobius(mu).values
        sizes = popcounts(mu.n)
        out = np.zeros_like(m)
        for k in range(1, min(max(max_order, 2), mu.n) + 1):
            t = m / np.maximum(sizes - (k - 1.0), 1.0)
            lattice(lambda lo, hi: np.add(lo, hi, out=lo), t)
            np.copyto(out, t, where=sizes == k)
        return out

    @pytest.mark.parametrize("n", [4, 12, 16, 18])
    def test_bytes_are_those_of_the_table_formulas(self, n):
        bits = 1 << np.arange(n)
        for mu in self.tables(n):
            assert shapley(mu).tobytes() == self.want_indices(mu, 1)[bits].tobytes()
            for order in {1, 2, 3, n} if n <= 12 else (2,):
                want = self.want_indices(mu, order)
                masks = [a for a in range(1, 1 << n) if a.bit_count() <= order]
                # The report on mu takes the Shapley values kept on it; its copy
                # keeps none and runs its own order-1 pass.
                for v in (mu, copy.copy(mu)):
                    rep = interaction_report(v, max_order=order)
                    assert list(rep.values) == masks
                    assert np.array(list(rep.values.values())).tobytes() == want[masks].tobytes()
                    assert rep.shapley.tobytes() == want[bits].tobytes()
                    assert rep.pair_matrix.tobytes() == want[bits[:, None] | bits].tobytes()

    @staticmethod
    def outcome(call, *args):
        """What ``call(*args)`` returns, or None where it raises :class:`InvalidFormat`."""
        try:
            return call(*args)
        except InvalidFormat:
            return None

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 16, 18, 20])
    def test_shapley_is_the_order_1_pass_of_the_report(self, n):
        # shapley summed each bit's half of the scaled table by hand, and at
        # n = 8 already differed from the report's pass in the last bits.
        bits = 1 << np.arange(n)
        compared = 0
        for mu in self.tables(n):
            for held in (False, True):
                # shapley ran on mu, not on its copy; where held, mobius of each is held
                own = copy.copy(mu)
                m = self.outcome(mobius, mu) if held else None
                m_own = self.outcome(mobius, own) if held else None
                phi = self.outcome(shapley, mu)
                for order in sorted({1, min(2, n)}):
                    reps = [self.outcome(interaction_report, v, order) for v in (mu, own)]
                    if phi is None:
                        assert reps == [None, None]
                    elif reps[0] is not None:
                        assert reps[1] is not None
                        for rep in reps:
                            assert rep.shapley.tobytes() == phi.tobytes()
                            assert np.diag(rep.pair_matrix).tobytes() == phi.tobytes()
                            assert np.array([rep.values[b] for b in bits.tolist()]).tobytes() == (
                                phi.tobytes())
                        compared += 1
                    else:
                        assert reps[1] is None
        assert compared >= 2 * len({1, min(2, n)})  # at least the capacity, fresh and held


class TestIndexThroughTheLattice:
    """``interaction_index`` byte for byte against its first form: a restricted
    butterfly walked bit by bit over :func:`oracles.halves`, then a gather
    of the supersets of A by a full mask. The differences along A's axes of
    the (2,) * n table are that butterfly's ``hi - lo``, in the same bit order,
    and both add the weighted terms in mask order by one ``np.add.reduce``."""

    @staticmethod
    def halves_index(mu, amask):
        vals = mu.values.copy()
        for _, lo, hi in oracles.halves(vals, amask):
            hi -= lo
        n, a = mu.n, amask.bit_count()
        sel = (np.arange(1 << n) & amask) == amask
        den = math.factorial(n - a + 1)
        weights = np.array(
            [math.factorial(n - b - a) * math.factorial(b) / den for b in range(n - a + 1)]
        )
        return np.add.reduce(weights[popcounts(n)[sel] - a] * vals[sel])

    @pytest.mark.parametrize("n", range(1, 19))
    def test_bytes_are_those_of_the_halves_loop(self, n):
        everyone = set(range(1, n + 1))
        coalitions = [c for c in ({1, 2}, {3, 4}, set(range(1, 6)), {n}) if c <= everyone]
        for mu in TestPinnedToTheTableFormulas.tables(n):
            for coalition in coalitions + [everyone]:
                amask = sum(1 << (i - 1) for i in coalition)
                want = self.halves_index(mu, amask)
                assert np.float64(interaction_index(mu, coalition)).tobytes() == want.tobytes()

    def test_memory_peaks_at_one_table(self):
        # The butterfly ran on a copy of the table and gathered the supersets
        # through a full-length index and mask: about 3.2 tables at its peak.
        n = 20
        mu = random_capacity(np.random.default_rng(20), n)
        for coalition in ({1}, {n}, {1, 2}, set(range(1, n + 1))):
            peak = peak_above_input(lambda: interaction_index(mu, coalition))
            assert peak <= 1.1 * 8 * (1 << n), (coalition, peak)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # A singleton at n = 16 adds 2**15 terms, past the length at which a
        # BLAS dot splits its sum over threads. A child process with one BLAS
        # thread, on the same table and the same package, gives the same bytes.
        n = 16
        mu = random_capacity(np.random.default_rng(16), n)
        script = (
            "import sys, numpy as np\n"
            "from capacities import SetFunction, interaction_index\n"
            "v = np.frombuffer(sys.stdin.buffer.read())\n"
            "print(interaction_index(SetFunction(%d, v), {1}).hex())\n" % n
        )
        package = os.path.dirname(os.path.dirname(capacities.__file__))
        path = os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        child = subprocess.run([sys.executable, "-c", script], input=mu.values.tobytes(),
                               env=env, capture_output=True, check=True)
        assert child.stdout.decode().strip() == interaction_index(mu, {1}).hex()


class TestCallsOnOneCapacity:
    """``shapley`` and ``interaction_report`` keep every byte, whether the caller
    holds ``mobius(mu)``, called ``shapley`` on ``mu`` before, or wrote into what
    it returned; a held Mobius table is left as it was."""

    @staticmethod
    def outputs(mu, orders):
        reports = [interaction_report(mu, max_order=order) for order in orders]
        return [shapley(mu).tobytes()] + [
            (r.shapley.tobytes(), r.pair_matrix.tobytes(), list(r.values),
             np.array(list(r.values.values())).tobytes(), r.labels)
            for r in reports
        ]

    @pytest.mark.parametrize("n", range(1, 19))
    def test_results_and_the_live_table_keep_their_bytes(self, n):
        orders = sorted({1, 2, 3, n} & set(range(1, n + 1)))
        for mu in TestPinnedToTheTableFormulas.tables(n):
            fresh = self.outputs(mu, orders)
            m = mobius(mu)
            held = m.values.tobytes()
            assert self.outputs(mu, orders) == fresh
            assert m.values.tobytes() == held
            assert not m.values.flags.writeable

    def test_copies_pickles_and_types_that_cannot_be_hashed(self):
        mu = as_capacity(random_capacity(np.random.default_rng(23), 6).values,
                         require_positive_singletons=True)
        hashed = HashedCapacity(mu.n, mu.values)
        with pytest.raises(TypeError):
            hash(hashed)
        fresh = self.outputs(mu, [1, 2])
        held = mobius(mu), mobius(hashed)
        copies = copy.copy(mu), copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))
        for again in copies:
            assert type(again) is Capacity and again.strictly_positive_singletons
            assert again.values.tobytes() == mu.values.tobytes()
        assert [self.outputs(v, [1, 2]) for v in (mu, hashed) + copies] == [fresh] * 5
        table = weakref.ref(mu)
        del mu, copies, again
        assert table() is None and held[0].n == 6  # the held result keeps no table alive

    def test_writing_into_the_returned_values_leaves_a_later_report_as_it_was(self):
        mu = random_capacity(np.random.default_rng(31), 6)
        want = interaction_report(copy.copy(mu)).to_dict()
        phi = shapley(mu)
        phi[:] = 7.0
        assert interaction_report(mu).to_dict() == want
        assert shapley(mu).tobytes() == np.array(want["shapley"]).tobytes()

    @pytest.mark.parametrize("call", [shapley, interaction_report])
    def test_what_is_not_a_value_table_keeps_its_error_text(self, call):
        mu = random_capacity(np.random.default_rng(20), 3)
        m = mobius(mu)
        for bad in (m, co_mobius(mu), mu.values, [0.0, 1.0], None):
            text = "^expected SetFunction or Capacity, got '%s'$" % type(bad).__name__
            with pytest.raises(InvalidFormat, match=text):
                call(bad)
        with pytest.raises(InvalidFormat, match="^coefficients must contain only finite numbers$"):
            call(SetFunction(2, [0.0, -1e308, -1e308, 1e308]))
