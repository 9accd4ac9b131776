import copy
import gc
import hashlib
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from capacities import (
    DEFAULT_TOL,
    AggregationModel,
    CapacitiesError,
    Capacity,
    CoMobiusRepr,
    DimensionMismatch,
    InvalidFormat,
    MobiusRepr,
    NonPositiveSingleton,
    NotMonotone,
    NotNormalized,
    OrdinalMobiusRepr,
    SetFunction,
    as_capacity,
    capacity_from_dict,
    certify,
    classify,
    co_mobius,
    conjugate,
    cpt_compatible,
    interaction_index,
    interaction_report,
    mobius,
    ordinal_mobius,
    ordinal_zeta,
    rank_acts,
    set_function_from_dict,
    shapley,
    to_dict,
    validate,
    vector_from_dict,
    zeta,
)
from capacities.interaction import _all_indices
from capacities.set_function import _drops
from capacities.subsets import BUFSIZE, SLICE, TILE, block_bits, lattice, popcounts, subset_key
from helpers import (ORDINAL_TABLES, UFUNC_BUFFERS, distorted, edge_tables, exactly_monotone,
                     max_closure, peak_above_input, random_additive_capacity, random_capacity,
                     random_set_function, signed_table, strictly_monotone)

TOL = 1e-12


class TestConstruction:
    def test_set_function_requires_zero_at_empty(self):
        with pytest.raises(NotNormalized):
            SetFunction(2, [0.1, 0.3, 0.6, 1.0])

    def test_set_function_length_must_match_n(self):
        with pytest.raises(Exception, match="length"):
            SetFunction(2, [0.0, 0.5, 1.0])

    def test_n_bounds(self):
        with pytest.raises(InvalidFormat):
            SetFunction(0, [0.0])
        with pytest.raises(InvalidFormat):
            SetFunction(25, np.zeros(1 << 25))
        for n in (True, np.bool_(True), 2.0):
            with pytest.raises(InvalidFormat, match="criteria count n must be an integer"):
                SetFunction(n, [0.0, 1.0])

    def test_numpy_integer_n_is_stored_as_int(self):
        # np.int64(2) was refused as "criteria count n must be an integer"
        v = [0.0, 0.3, 0.5, 1.0]
        for table in (SetFunction(np.int64(2), v), MobiusRepr(np.uint8(2), v),
                      as_capacity(v, n=np.int64(2))):
            assert type(table.n) is int and table.n == 2
            assert json.loads(json.dumps(to_dict(table))) == {"n": 2, "values_by_mask": v}

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidFormat):
            SetFunction(1, [0.0, np.nan])

    @pytest.mark.parametrize("build, error, match", [
        (lambda: SetFunction(2, [[0, 1], [0, 1]]), DimensionMismatch,
         r"^values must be a flat vector, got shape \(2, 2\)$"),
        (lambda: MobiusRepr(1, [0.5, 1]), NotNormalized,
         r"^m\(empty\) must be exactly 0, got 0.5$"),
        (lambda: OrdinalMobiusRepr(1, [0.5, 1]), NotNormalized,
         r"^coefficient at empty must be exactly 0, got 0.5$"),
    ], ids=["nested", "mobius-at-empty", "ordinal-at-empty"])
    def test_malformed_tables_name_their_fault(self, build, error, match):
        with pytest.raises(error, match=match):
            build()

    def test_values_are_read_only(self):
        sf = SetFunction(1, [0.0, 1.0])
        with pytest.raises(ValueError):
            sf.values[1] = 0.5

    def test_capacity_not_normalized_at_top(self):
        with pytest.raises(NotNormalized):
            Capacity(SetFunction(2, [0.0, 0.3, 0.6, 0.8]))

    def test_capacity_monotone_violation_details(self):
        with pytest.raises(NotMonotone) as err:
            Capacity(SetFunction(2, [0.0, 1.2, 0.6, 1.0]))
        assert err.value.subset_key == "1"
        assert err.value.criterion == 2

    def test_positive_singletons_flag(self):
        vals = [0.0, 0.0, 0.6, 1.0]
        Capacity(SetFunction(2, vals))  # fine without the flag
        with pytest.raises(NonPositiveSingleton) as err:
            Capacity(SetFunction(2, vals), strictly_positive_singletons=True)
        assert err.value.criterion == 1

    def test_getitem(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        assert mu[0b01] == 0.3
        assert mu[0b11] == 1.0
        assert mu[np.int64(2)] == 0.6
        assert mu.full_mask == 3

    def test_getitem_takes_only_a_mask_in_range(self):
        # mu[-1] read v(N); the others raised a bare IndexError or TypeError.
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        for key, shown in ((-1, "-1"), (4, "4"), (np.int64(4), "4"), ("a", "'a'"),
                           (1.0, "1.0"), (None, "None"), (True, "True")):
            with pytest.raises(InvalidFormat, match=r"^subset mask %s out of range for n = 2$"
                               % re.escape(shown)):
                mu[key]

    def test_a_table_is_not_iterable(self):
        # list(mu) walked the table through the sequence protocol.
        with pytest.raises(TypeError):
            list(as_capacity([0.0, 0.3, 0.6, 1.0]))


class TestHalves:
    """oracles.halves, the walker of every natural-layout reference."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_visits_every_pair_once(self, n):
        for bits in [None] + list(range(1 << n)):
            table = np.arange(1 << n)
            pairs = []
            for i, lo, hi in oracles.halves(table, bits):
                assert np.all(hi == lo | (1 << i))
                pairs += [(i, int(a), int(b)) for a, b in zip(lo.ravel(), hi.ravel())]
            wanted = range(n) if bits is None else [i for i in range(n) if bits >> i & 1]
            want = [(i, a, a | 1 << i) for i in wanted for a in range(1 << n) if not a >> i & 1]
            assert sorted(pairs) == want

    def test_views_write_through(self):
        table = np.zeros(8)
        for _, lo, hi in oracles.halves(table, 0b010):
            hi += 1.0
        assert list(table) == [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]


class TestLattice:
    # n = 13 and 14 are one block of 2 and of 4 tiles; n = 22 and 23 end on a
    # group of 2 and of 3 bits.
    @pytest.mark.parametrize("n", [1, 5, 12, 13, 14, 16, 18, 20, 22, 23])
    def test_lattice_visits_every_pair_once_in_bit_order(self, n):
        # The entries are the masks themselves, so each (lo, hi) of a call,
        # on a chunk, tiles or views, tells which pairs it covers.
        table = np.arange(1 << n, dtype=np.float64)
        table.flags.writeable = False
        last_bit = np.full(1 << n, -1, dtype=np.int8)
        visits = np.zeros(1 << n, dtype=np.int8)
        block = min(1 << n, SLICE)

        def op(lo, hi):
            shape = lo.shape
            lo, hi = lo.astype(np.int64).ravel(), hi.astype(np.int64).ravel()
            bit = int(hi[0] - lo[0]).bit_length() - 1
            if bit < 4 and n >= 12:  # a tiled bit: the columns of each tile of TILE masks
                assert shape == (block // TILE, 1 << bit, TILE >> (bit + 1))
            assert np.all(hi == lo | 1 << bit) and not np.any(lo >> bit & 1)
            assert np.all(last_bit[lo] < bit) and np.all(last_bit[hi] < bit)
            last_bit[lo] = last_bit[hi] = bit
            visits[lo] += 1
            visits[hi] += 1
            return bit

        results = lattice(op, table)
        assert np.all(visits == n) and np.all(last_bit == n - 1)
        assert [set(r) for r in results] == [{i} for i in range(n)]
        # A block is SLICE masks, or the table. One call per block on a bit of
        # the block, tiled or not; one call per chunk of SLICE entries on a bit
        # above it.
        assert [len(r) for r in results] == [(1 << n) // block] * n

    @pytest.mark.parametrize("n", [3, 18])
    def test_lattice_writes_back_only_to_writable_tables(self, n):
        values = np.random.default_rng(n).uniform(-1.0, 1.0, 1 << n)
        want = oracles.loop_mobius(values)
        reads = values.copy()
        reads.flags.writeable = False
        writes = values.copy()
        lattice(lambda lo, hi, wlo, whi: np.subtract(whi, wlo, out=whi), reads, writes)
        assert np.array_equal(reads, values)
        assert writes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 16, 18])
    def test_lattice_restores_the_ufunc_buffer_size(self, n):
        table = random_capacity(np.random.default_rng(n), n).values.copy()
        before = np.getbufsize()
        assert lattice(lambda lo, hi: np.getbufsize(), table)[0][0] == BUFSIZE != before
        assert np.getbufsize() == before
        mu = as_capacity(table)
        for call in (mobius, shapley, interaction_report):
            call(mu)
            assert np.getbufsize() == before, call.__name__

        def fails(lo, hi):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            lattice(fails, table)
        assert np.getbufsize() == before
        drop = table.copy()
        drop[1] = 1.5
        with pytest.raises(NotMonotone):
            as_capacity(drop)
        assert np.getbufsize() == before

    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_popcounts(self, n):
        got = popcounts(n)
        assert got.dtype == np.uint8
        assert got.tolist() == [bin(mask).count("1") for mask in range(1 << n)]


class TestValidate:
    def test_valid_capacity(self):
        res = validate([0.0, 0.3, 0.6, 1.0])
        assert res.ok
        assert res.capacity is not None
        assert res.error is None
        assert res.strictly_monotone
        assert not res.additive

    def test_additive_flag(self):
        res = validate([0.0, 0.4, 0.6, 1.0])
        assert res.ok and res.additive
        # Not normalized, but m = [0.25, 0.25, 0.5, 0.0] is 0 on every coalition
        # of two or more.
        res = validate([0.25, 0.5, 0.75, 1.0])
        assert isinstance(res.error, NotNormalized) and res.additive

    @pytest.mark.parametrize("call", [validate, as_capacity])
    def test_a_given_n_must_be_that_of_the_table(self, call):
        # validate(sf, n=3) returned ok=True and as_capacity(sf, n="x") a Capacity:
        # a given n was ignored for a table, and checked only for a raw vector.
        sf = SetFunction(2, [0.0, 0.3, 0.6, 1.0])
        for table in (sf, as_capacity(sf.values)):
            with pytest.raises(DimensionMismatch, match=r"^values must have length 2\*\*3 = 8, got 4$"):
                call(table, n=3)
            with pytest.raises(InvalidFormat, match="^criteria count n must be an integer, got 'x'$"):
                call(table, n="x")
            with pytest.raises(InvalidFormat, match=r"^criteria count n must be in 1\.\.24, got 0$"):
                call(table, n=0)
        for n in (None, 2, np.int64(2)):
            again = call(sf, n=n)
            mu = again.capacity if call is validate else again
            assert mu.n == 2 and mu.values is sf.values
        with pytest.raises(InvalidFormat, match="^expected SetFunction or Capacity, got 'MobiusRepr'$"):
            call(mobius(sf), n="x")  # the table's class is checked first, as before

    def test_flat_step_is_not_strict(self):
        res = validate([0.0, 0.3, 0.6, 0.6, 0.3, 0.6, 0.9, 1.0], n=3)
        assert res.ok
        assert not res.strictly_monotone

    def test_not_normalized_at_empty(self):
        res = validate([0.3, 0.5, 0.6, 1.0])
        assert not res.ok
        assert isinstance(res.error, NotNormalized)

    def test_constraints_are_checked_in_order(self):
        # Normalization first, then monotonicity, then the singletons.
        for vals, error in [([0.0, 1.5, 0.2, 0.9], NotNormalized),
                            ([0.1, 1.5, 0.2, 1.0], NotNormalized),
                            ([0.0, 0.0, 1.2, 1.0], NotMonotone),
                            ([0.0, 0.0, 0.2, 1.0], NonPositiveSingleton)]:
            assert type(validate(vals, require_positive_singletons=True).error) is error, vals

    def test_diagnostics_name_first_pair(self):
        res = validate([0.0, 1.2, 0.6, 1.0])
        assert not res.ok
        assert isinstance(res.error, NotMonotone)
        assert res.error.subset_key == "1" and res.error.criterion == 2

    def test_tolerance_is_respected(self):
        vals = [0.0, 0.5, 0.5 - 5e-10, 1.0 + 5e-10]
        assert validate(vals, n=2).ok
        assert not validate(vals, n=2, tol=1e-12).ok

    def test_as_capacity_raises(self):
        with pytest.raises(NotMonotone):
            as_capacity([0.0, 0.9, 0.2, 0.5, 0.1, 1.0, 0.4, 1.0], n=3)

    def test_requires_power_of_two_length(self):
        with pytest.raises(Exception, match="power of two"):
            validate([0.0, 0.5, 1.0])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, -1e-12, "x", None, True])
    def test_rejects_a_tol_that_is_not_finite_and_nonnegative(self, tol):
        # Not monotone, and mu(N) = 0.3: no tol may wave it through.
        vals = [0.0, 0.9, 0.2, 1.0, 0.1, 0.0, 0.0, 0.3]
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        calls = [
            lambda: as_capacity(vals, tol=tol),
            lambda: validate(vals, tol=tol),
            lambda: Capacity(SetFunction(3, vals), tol=tol),
            lambda: capacity_from_dict({"n": 3, "values_by_mask": vals}, tol=tol),
            lambda: interaction_report(mu, tol=tol),
            lambda: rank_acts(AggregationModel(mu, "sipos"), [("good", "good")] * 2, tol=tol),
            # These three read no tol before: a NaN labelled every index
            # non-interactive and passed singletons 0.9 and 0.1 as compatible,
            # and an infinite tol certified a - b as a pseudo-product.
            lambda: classify(0.5, tol),
            lambda: cpt_compatible(mu, conjugate(mu), tol=tol),
            lambda: certify(lambda a, b: a - b, tol=tol),
        ]
        for call in calls:
            with pytest.raises(InvalidFormat, match=r"tol must be finite and >= 0, got"):
                call()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_not_monotone_names_the_smallest_pair(self, n):
        # Several bits violate monotonicity; the error names the first pair
        # ordered by mask, then by criterion.
        rng = np.random.default_rng(30 + n)
        for _ in range(5):
            vals = random_capacity(rng, n).values.copy()
            vals[rng.integers(1, (1 << n) - 1)] = 0.0  # below each nonempty subset
            vals[rng.integers(1, (1 << n) - 1, 2)] = 1.5  # above each superset
            want = min(
                (mask, i)
                for mask in range(1 << n)
                for i in range(n)
                if not mask >> i & 1 and vals[mask] - vals[mask | 1 << i] > 1e-9
            )
            with pytest.raises(NotMonotone) as err:
                as_capacity(vals, n=n)
            assert (err.value.subset_key, err.value.criterion) == (subset_key(want[0]), want[1] + 1)

    def test_not_monotone_prefers_the_smaller_criterion_at_a_tied_mask(self):
        # {1} -> {1,2} and {1} -> {1,3} both drop, as does {2} -> {1,2} (bit 0, at a larger mask)
        vals = [0.0, 0.5, 0.6, 0.4, 0.3, 0.2, 0.7, 1.0]
        with pytest.raises(NotMonotone) as err:
            as_capacity(vals)
        assert (err.value.subset_key, err.value.criterion) == ("1", 2)


class TestMobius:
    def test_overlapping_pair_example(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        m = mobius(mu)
        assert m.coefficients == pytest.approx([0.0, 0.9, 0.9, -0.8], abs=TOL)

    def test_additive_capacity_lives_on_singletons(self):
        mu = as_capacity([0.0, 0.4, 0.6, 1.0])
        m = mobius(mu)
        assert m[0b11] == pytest.approx(0.0, abs=TOL)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            sf = random_set_function(rng, n)
            got = mobius(sf).coefficients
            want = oracles.naive_mobius(list(sf.values), n)
            assert got == pytest.approx(want, abs=TOL)

    def test_zeta_inverts_mobius(self):
        rng = np.random.default_rng(8)
        for n in (1, 3, 5, 8):
            sf = random_set_function(rng, n)
            back = zeta(mobius(sf))
            assert back.values == pytest.approx(list(sf.values), abs=TOL)

    def test_zeta_of_unanimity_game(self):
        # m concentrated on {1,3}: v(B) = 1 exactly when B contains {1,3}
        coeffs = np.zeros(8)
        coeffs[0b101] = 1.0
        v = zeta(MobiusRepr(3, coeffs))
        for mask in range(8):
            assert v[mask] == (1.0 if mask & 0b101 == 0b101 else 0.0)

    def test_zeta_matches_naive(self):
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(-1, 1, 16)
        coeffs[0] = 0.0
        got = zeta(MobiusRepr(4, coeffs)).values
        assert got == pytest.approx(oracles.naive_zeta(list(coeffs), 4), abs=TOL)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    def test_roundtrip_property(self, tail):
        sf = SetFunction(2, [0.0] + tail)
        back = zeta(mobius(sf))
        assert back.values == pytest.approx(list(sf.values), abs=1e-9)


class TestCoMobius:
    def test_empty_set_carries_total_mass(self):
        sf = random_set_function(np.random.default_rng(10), 4)
        cm = co_mobius(sf)
        assert cm[0] == pytest.approx(sf[sf.full_mask], abs=TOL)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            sf = random_set_function(rng, n)
            got = co_mobius(sf).coefficients
            want = oracles.naive_co_mobius(list(sf.values), n)
            assert got == pytest.approx(want, abs=TOL)

    def test_conjugate_links_the_two_transforms(self):
        # co-Mobius of the conjugate is the signed Mobius of the original:
        # for nonempty A they differ by the factor (-1)^(|A|+1)
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            mu = random_capacity(rng, n)
            m = mobius(mu).coefficients
            cm = co_mobius(conjugate(mu)).coefficients
            for mask in range(1, 1 << n):
                sign = (-1.0) ** (oracles.size(mask) + 1)
                assert cm[mask] == pytest.approx(sign * m[mask], abs=1e-9)


class TestOrdinalMobius:
    """Both ordinal transforms give the bytes of the natural loops, sign bits
    included, on a validated capacity, on its table in any other form and on
    their results in any form."""

    @staticmethod
    def check(mu):
        """Both transforms of ``mu``, and where it is a capacity of its table bare,
        copied and pickled, against the loops; or the refusal of a negative kept
        coefficient."""
        forms = [mu]
        if isinstance(mu, Capacity):
            forms += [SetFunction(mu.n, mu.values), copy.copy(mu), pickle.loads(pickle.dumps(mu))]
        want = oracles.loop_ordinal_mobius(mu.values)
        if (want < 0.0).any():
            for v in forms:
                with pytest.raises(InvalidFormat, match="must be nonnegative"):
                    ordinal_mobius(v)
            return
        back = oracles.loop_ordinal_zeta(want).tobytes()
        with np.errstate(over="ignore"):  # an infinite drop is still a drop
            monotone = (oracles.loop_drops(mu.values) <= 0.0).all()
        if monotone and not np.signbit(mu.values[0]):
            assert back == (mu.values + 0.0).tobytes()  # its own round trip, plus 0.0
        oms = [ordinal_mobius(v) for v in forms]
        for om in oms:
            assert om.values.tobytes() == want.tobytes()
            assert not np.shares_memory(om.values, mu.values)
        om = oms[0]  # the only one that may refer to its table
        for again in oms + [copy.copy(om), copy.deepcopy(om), pickle.loads(pickle.dumps(om)),
                            OrdinalMobiusRepr(mu.n, om.values)]:
            nu = ordinal_zeta(again)
            assert nu.values.tobytes() == back
            assert not np.shares_memory(nu.values, mu.values)

    def test_a_strict_step_keeps_its_value_and_a_flat_one_drops_to_zero(self):
        strict = as_capacity([0.0, 0.3, 0.6, 1.0])
        flat = SetFunction(2, [0.0, 0.3, 0.6, 0.6])  # monotone, its top step flat
        assert ordinal_mobius(strict).coefficients.tolist() == [0.0, 0.3, 0.6, 1.0]
        assert ordinal_mobius(flat).coefficients.tolist() == [0.0, 0.3, 0.6, 0.0]
        assert ordinal_zeta(ordinal_mobius(flat)).values.tolist() == [0.0, 0.3, 0.6, 0.6]

    def test_max_recovery(self):
        rng = np.random.default_rng(13)
        for n in range(1, 8):
            mu = random_capacity(rng, n)
            mv = ordinal_mobius(mu)
            back = ordinal_zeta(mv)
            assert back.values == pytest.approx(list(mu.values), abs=TOL)
            want = oracles.naive_max_recovery(list(mv.coefficients), n)
            assert back.values == pytest.approx(want, abs=TOL)

    def test_coefficients_must_be_nonnegative(self):
        with pytest.raises(InvalidFormat):
            OrdinalMobiusRepr(1, [0.0, -0.1])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(v=edge_tables(), seed=st.integers(0, 2**32 - 1))
    def test_edge_tables(self, v, seed):
        n, values = v.n, v.values
        monotone = max_closure(values, np.random.default_rng(seed))
        monotone[0] = values[0]  # +0.0 or -0.0, as drawn
        for bare in (values, np.abs(values), monotone):
            self.check(SetFunction(n, bare))
        self.check(as_capacity(strictly_monotone(values), n=n))
        if monotone[-1] > 0.0:
            self.check(as_capacity(monotone / monotone[-1], n=n))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16, 17, 18])
    def test_planted_tables(self, n):
        # Each kind of capacity, also with -0.0 at the empty set; an exactly
        # monotone table with -0.0 at some entries as a bare table; a conjugate.
        for build in ORDINAL_TABLES.values():
            for empty in (0.0, -0.0):
                t = build(n, np.random.default_rng(300 + n))
                t[0] = empty
                self.check(as_capacity(t, n=n))
        t = exactly_monotone(n, np.random.default_rng(300 + n))
        assert np.signbit(t).any() or n < 2
        self.check(SetFunction(n, t))
        self.check(conjugate(as_capacity(distorted(n, np.random.default_rng(n)), n=n)))
        om = ordinal_mobius(as_capacity(t, n=n))
        gc.collect()  # the capacity it came from is gone
        assert ordinal_zeta(om).values.tobytes() == oracles.loop_ordinal_zeta(om.values).tobytes()

    @pytest.mark.parametrize("n", range(1, 19))
    def test_a_strict_capacity_is_its_own_ordinal_table(self, n):
        t = distorted(n, np.random.default_rng(400 + n))
        for mu in (as_capacity(t, n=n), validate(t).capacity, Capacity(SetFunction(n, t))):
            assert ordinal_mobius(mu).values.tobytes() == t.tobytes()
            self.check(mu)

    def test_a_negative_kept_coefficient_is_refused(self):
        with pytest.raises(InvalidFormat, match="must be nonnegative, got -0.5 at {1,2}"):
            ordinal_mobius(SetFunction(2, [0.0, -1.0, -1.0, -0.5]))
        # Monotone within tol, with a strict step at {1,2} below 0.
        mu = as_capacity([0.0, -2e-10, -2e-10, -1e-10, 0.5, 0.6, 0.7, 1.0])
        with pytest.raises(InvalidFormat, match="must be nonnegative, got -1e-10 at {1,2}"):
            ordinal_mobius(mu)


class TestConjugate:
    def test_example(self):
        mu = as_capacity([0.0, 0.9, 0.9, 1.0])
        assert conjugate(mu).values == pytest.approx([0.0, 0.1, 0.1, 1.0], abs=TOL)

    def test_involution(self):
        rng = np.random.default_rng(14)
        for n in range(1, 9):
            mu = random_capacity(rng, n)
            back = conjugate(conjugate(mu))
            assert back.values == pytest.approx(list(mu.values), abs=TOL)

    def test_result_is_a_capacity(self):
        mu = random_capacity(np.random.default_rng(15), 5)
        assert isinstance(conjugate(mu), Capacity)

    @pytest.mark.parametrize("values", [[0.0, 1.0004, 0.3, 1.0], [0.0, 0.3, 0.6, 1.0005]],
                             ids=["drop-within-tol", "total-within-tol"])
    def test_capacity_built_with_a_loose_tol_conjugates(self, values):
        # The conjugate was scanned again at the default tol: NotMonotone, NotNormalized.
        conj = conjugate(as_capacity(values, tol=1e-3))
        assert type(conj) is Capacity and not conj.strictly_positive_singletons
        assert conj.values.tobytes() == oracles.loop_conjugate(values).tobytes()

    def test_additive_is_self_conjugate(self):
        mu = as_capacity([0.0, 0.4, 0.6, 1.0])
        assert conjugate(mu).values == pytest.approx([0.0, 0.4, 0.6, 1.0], abs=TOL)

    def test_set_function_conjugate_uses_total(self):
        sf = SetFunction(2, [0.0, 0.5, 0.25, 2.0])
        out = conjugate(sf)
        assert isinstance(out, SetFunction) and not isinstance(out, Capacity)
        assert out[0b01] == pytest.approx(2.0 - 0.25)


class TestCoefficientTables:
    VALUE_OPS = {
        "mobius": mobius,
        "co_mobius": co_mobius,
        "ordinal_mobius": ordinal_mobius,
        "conjugate": conjugate,
        "shapley": shapley,
        "interaction_report": interaction_report,
        "interaction_index": lambda table: interaction_index(table, 3),
    }

    @pytest.mark.parametrize("transform", VALUE_OPS.values(), ids=VALUE_OPS.keys())
    def test_value_transforms_refuse_coefficient_tables(self, transform):
        # interaction_index(mobius(mu), 3) returned -0.8, read as if it were mu
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        for table in (mobius(mu), co_mobius(mu), ordinal_mobius(mu), [0.0, 0.3, 0.6, 1.0], None):
            with pytest.raises(InvalidFormat, match="^expected SetFunction or Capacity, got "):
                transform(table)


class TestTableContract:
    def test_public_constructors_copy_caller_arrays(self):
        vals = np.array([0.0, 0.3, 0.6, 1.0])
        tables = [SetFunction(2, vals), as_capacity(vals), validate(vals).capacity, MobiusRepr(2, vals)]
        vals[1] = 0.9
        for table in tables:
            assert table.values.tolist() == [0.0, 0.3, 0.6, 1.0]

    def test_public_constructors_copy_views_of_a_callers_buffer(self):
        vals = np.array([0.0, 0.3, 0.6, 1.0, 2.0])
        views = [vals[:4], memoryview(vals)[:4]]
        tables = [make(v) for v in views for make in (lambda v: SetFunction(2, v), as_capacity)]
        vals[1] = 0.9
        for table in tables:
            assert table.values.tolist() == [0.0, 0.3, 0.6, 1.0]

    BUILDERS = {
        "mobius": mobius,
        "co_mobius": co_mobius,
        "ordinal_mobius": ordinal_mobius,
        "conjugate of a capacity": conjugate,
        "zeta": lambda mu: zeta(mobius(mu)),
        "ordinal_zeta": lambda mu: ordinal_zeta(ordinal_mobius(mu)),
        "conjugate": lambda mu: conjugate(SetFunction(mu.n, mu.values)),
        "set_function_from_dict": lambda mu: set_function_from_dict(to_dict(mu)),
        "capacity_from_dict": lambda mu: capacity_from_dict(to_dict(mu)),
    }

    @pytest.mark.parametrize("transform", BUILDERS.values(), ids=BUILDERS.keys())
    def test_outputs_are_read_only(self, transform):
        out = transform(random_capacity(np.random.default_rng(16), 4))
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[1] = 0.5

    @pytest.mark.parametrize(
        "transform",
        [mobius, co_mobius, conjugate, lambda v: zeta(MobiusRepr(2, np.abs(v.values)))],
        ids=["mobius", "co_mobius", "conjugate", "zeta"],
    )
    def test_overflowing_output_is_rejected(self, transform):
        v = SetFunction(2, [0.0, -1e308, -1e308, 1e308])
        with pytest.raises(InvalidFormat, match="must contain only finite numbers"):
            transform(v)


# n just below, at and just above each switch of the lattice's layout: bits 0
# to 3 run on tiles from n = 12 on, and a table of more than 2**16 entries
# runs block by block, the bits above its blocks in a group of 1 to 4 bits at
# n = 17 to 20 and in a group of 4 and one of 1 at n = 21. n = 16 is the
# analyze size. At n = 22 to 24 the passes end on groups of 2, 3 and 4 bits,
# as at n = 18 to 20; tests/large_tables.py runs the checkers below there.
TILE_SIZES = [11, 12, 16, 17, 18, 19, 20, 21]


def _same(got, want):
    assert got.values.tobytes() == want.tobytes()


def check_transforms(v):
    """mobius, zeta, co_mobius and conjugate of v, the ordinal pair of |v|, by the loops."""
    n = v.shape[0].bit_length() - 1
    sf = SetFunction(n, v)
    _same(mobius(sf), oracles.loop_mobius(v))
    _same(zeta(MobiusRepr(n, v)), oracles.loop_zeta(v))
    _same(co_mobius(sf), oracles.loop_co_mobius(v))
    _same(conjugate(sf), oracles.loop_conjugate(v))
    a = np.abs(v)
    _same(ordinal_mobius(SetFunction(n, a)), oracles.loop_ordinal_mobius(a))
    _same(ordinal_zeta(OrdinalMobiusRepr(n, a)), oracles.loop_ordinal_zeta(a))


def check_capacity(mu):
    """The conjugate and the ordinal round trip of a capacity, by the loops."""
    v = mu.values
    _same(conjugate(mu), oracles.loop_conjugate(v))
    _same(ordinal_zeta(ordinal_mobius(mu)), oracles.loop_ordinal_zeta(oracles.loop_ordinal_mobius(v)))


def check_drops(v):
    """The scan's largest drop of each bit and its first drop at two tols, by the loops."""
    for tol in (0.0, 1e-9):
        drops, first = _drops(v, tol)
        assert drops.tobytes() == oracles.loop_drops(v).tobytes(), tol
        assert first == oracles.loop_first_drop(v, tol), tol


def _drop_text(vals, tol):
    """The NotMonotone text of the reference scan, or None."""
    first = oracles.loop_first_drop(vals, tol)
    if first is None:
        return None
    mask, i = first
    return str(NotMonotone(subset_key(mask), i + 1, float(vals[mask]), float(vals[mask | 1 << i])))


class TestTiledPasses:
    """Every op that runs through ``lattice`` against the natural-layout loops
    of ``oracles``, byte for byte, on both sides of every switch of its layout."""

    @staticmethod
    def tables(n):
        """Capacities (random, rounded to one decimal, additive) and set functions
        (small integers with zeros of either sign, the same times 1e300)."""
        rng = np.random.default_rng(200 + n)
        mu = random_capacity(rng, n).values
        additive = random_additive_capacity(rng, n).values
        signed = signed_table(n, rng)
        return ({"mu": mu, "flat": np.round(mu, 1), "additive": additive},
                {"signed": signed, "huge": signed * 1e300})

    @pytest.mark.parametrize("n", TILE_SIZES)
    def test_transforms_match_the_natural_loops(self, n):
        caps, others = self.tables(n)
        for v in [*caps.values(), *others.values()]:
            check_transforms(v)
            sf = SetFunction(n, v)
            sizes = popcounts(n)
            for order in (1, 3):  # the superset pass of interaction._up
                want = oracles.loop_all_indices(oracles.loop_mobius(v), order)
                masks, got = _all_indices(sf, order, sizes)
                assert np.array_equal(masks, np.flatnonzero((sizes > 0) & (sizes <= max(order, 2))))
                assert got.tobytes() == want[masks].tobytes()
        for v in caps.values():
            mu = as_capacity(v, n=n)
            _same(mu, v)
            check_capacity(mu)

    @pytest.mark.parametrize("n", TILE_SIZES)
    def test_validate_flags_match_the_natural_loops(self, n):
        caps, others = self.tables(n)
        for name, v in [*caps.items(), *others.items()]:
            for tol in (0.0, 1e-9):
                res = validate(v, n=n, tol=tol)
                assert res.strictly_monotone == oracles.loop_strictly_monotone(v), name
                assert res.additive == oracles.loop_additive(v, tol), name
                if name in caps:
                    assert (None if res.ok else str(res.error)) == _drop_text(v, tol), name
        for name, v in others.items():
            w = v.copy()
            w[-1] = 1.0  # normalized, so the first drop is the error
            assert str(validate(w, n=n).error) == _drop_text(w, 0.0), name
        assert validate(caps["additive"], n=n).additive
        assert not validate(caps["flat"], n=n).strictly_monotone

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_drops_match_the_natural_loop(self, n):
        # Above one block, the scan takes a bit's largest drop over the calls of
        # its blocks or chunks.
        caps, others = self.tables(n)
        for v in [*caps.values(), *others.values()]:
            check_drops(v)


class TestFirstViolation:
    """Planted drops, on the low bits (on tiles or on views of a block) and on
    the high bits (on views of a block, or on chunks), named as the
    natural-layout scan names them."""

    @staticmethod
    def planted(n, pairs):
        """An additive capacity whose weights rise with the criterion index,
        lowered at mask | bit by bit's weight and a quarter of the smallest
        weight gap for each (mask, bit) of ``pairs``. With bit below every
        member of mask, that pair is the only one into mask | bit that drops;
        a member j of mask below bit adds the pair (mask | bit - j, j), at a
        larger mask."""
        w = np.arange(n, 2 * n, dtype=np.float64)
        w /= w.sum()
        v = oracles.additive_table(w)
        v[-1] = 1.0
        for mask, bit in pairs:
            assert not mask >> bit & 1
            v[mask | 1 << bit] -= w[bit] + (w[1] - w[0]) / 4
        return v

    @staticmethod
    def cases(n):
        top, high = 1 << (n - 1), n - 2
        return {
            "low bit only": ([(top, 1)], (top, 1)),
            "high bit only": ([(top, high)], (top, high)),
            "smaller mask on the high bit": ([(top | 1 << (n - 3), 1), (top, high)], (top, high)),
            "one mask, two criteria": ([(top, high), (top, 1)], (top, 1)),
            "two low bits, the later one first": ([(top | 1 << (n - 3), 1), (top, 2)], (top, 2)),
        }

    @pytest.mark.parametrize("n", [8, 12, 16, 18, 20])
    def test_not_monotone_texts_match_the_reference_scan(self, n):
        for name, (pairs, first) in self.cases(n).items():
            self.check(n, pairs, first, name)

    def test_drops_in_later_pieces_are_named(self):
        # The search of bit i starts at the first block of SLICE masks whose call
        # drops on a bit that the pass runs block by block, bits 0 to 15, one
        # call a block, and at mask 0 on a bit above, which the pass runs chunk
        # by chunk: bits 16 to 18 at n = 19, and 16 to 19 at n = 20, where a
        # chunk is 16 rows of 4096 masks. From there it walks pieces of at most a
        # slice in mask order: on a bit below 16, SLICE >> i rows of 2**i masks
        # without bit i, which span two blocks; on a bit above, SLICE columns of
        # one row of 2**i. Bit 3 runs on tiles of TILE masks.
        assert block_bits(19) == block_bits(20) == 16 and SLICE == 1 << 16 and TILE == 1 << 12
        top19, top20 = 1 << 18, 1 << 19
        later = 2 << 16  # the first mask of the third block
        # in tiles 5 and 9 of the last block but one
        tile18, tile20 = (((1 << n) - 2 * SLICE) | 5 << 12 | 7 << 4 for n in (18, 20))
        cases = {
            "a view bit in a later block": (19, [(top19, 15)], (top19, 15)),
            "two blocks of one bit, the smaller mask first": (
                19, [(top19, 15), (later, 15)], (later, 15)),
            "in a later segment of a long row": (20, [(top20 | 1 << 16, 17)], (top20 | 1 << 16, 17)),
            "a block bit in a later block": (20, [(top20 | 1 << 16, 13)], (top20 | 1 << 16, 13)),
            "a grouped bit in a later chunk": (20, [(top20 | 1 << 14, 17)], (top20 | 1 << 14, 17)),
            "a tiled bit in a later block": (20, [(5 << 16 | 9, 2)], (5 << 16 | 9, 2)),
            "a tiled bit in a later tile, n = 18": (
                18, [(tile18 + (4 << 12), 3), (tile18, 3)], (tile18, 3)),
            "a tiled bit in a later tile, n = 20": (
                20, [(tile20 + (4 << 12), 3), (tile20, 3)], (tile20, 3)),
        }
        for name, (n, pairs, first) in cases.items():
            self.check(n, pairs, first, name)

    def check(self, n, pairs, first, name):
        """The drops planted at ``pairs`` raise, on every constructor, the
        reference scan's text, which names ``first``."""
        v = self.planted(n, pairs)
        assert oracles.loop_first_drop(v, DEFAULT_TOL) == first, name
        text = _drop_text(v, DEFAULT_TOL)
        with pytest.raises(NotMonotone) as err:
            as_capacity(v, n=n)
        assert str(err.value) == text, name
        assert str(validate(v, n=n).error) == text, name
        conj = conjugate(SetFunction(n, v))
        with pytest.raises(NotMonotone) as err:
            Capacity(conj)
        assert str(err.value) == _drop_text(conj.values, DEFAULT_TOL), name


class TestMemory:
    """Peak allocation of each op at n = 16, in bytes per subset beside UFUNC_BUFFERS."""

    N = 16

    @pytest.fixture(scope="class")
    def tables(self):
        mu = random_capacity(np.random.default_rng(17), self.N)
        top = 1 << (self.N - 1)
        return {
            "mu": mu,  # its Mobius table "m" stays live
            "fresh": Capacity(mu),  # the same table, with no live Mobius table
            "sf": SetFunction(self.N, mu.values),
            "raw": mu.values.copy(),
            "drop": SetFunction(self.N, TestFirstViolation.planted(self.N, [(top, self.N - 2)])),
            "m": mobius(mu),
            "om": ordinal_mobius(mu),
        }

    # op, its input, and the bytes per subset it may allocate: a transform its
    # 8-byte output plus one bool or uint8 table; the monotonicity scan half a
    # float table, and a failing one half a bool table more, at n = 16 where a
    # slice holds the table; as_capacity of a raw array its copy and the scan;
    # validate one Mobius table and half a byte per subset to spare; shapley
    # one Mobius table and its sizes; a report one Mobius table, one scratch
    # table, the sizes and their scaled copy, and one bool table. With a live
    # Mobius table, shapley allocates its scaled copy in place of a Mobius
    # table.
    OPS = [
        ("mobius", "fresh", mobius, 9),
        ("zeta", "m", zeta, 9),
        ("co_mobius", "mu", co_mobius, 9),
        ("ordinal_mobius", "mu", ordinal_mobius, 9),
        ("ordinal_zeta", "om", ordinal_zeta, 9),
        ("conjugate", "sf", conjugate, 9),
        ("conjugate of a capacity", "mu", conjugate, 9),
        ("as_capacity", "fresh", as_capacity, 4.5),
        ("as_capacity of a raw array", "raw", as_capacity, 12),
        ("failing as_capacity", "drop", lambda v: pytest.raises(NotMonotone, as_capacity, v), 4.5),
        ("validate", "mu", validate, 8.5),
        ("shapley", "fresh", shapley, 9),
        ("interaction_report", "fresh", interaction_report, 19),
        ("shapley with a live Mobius table", "mu", shapley, 9),
    ]
    TIGHTER = {}  # budgets below those of OPS at this class's n

    @pytest.mark.parametrize("op", OPS, ids=[op[0] for op in OPS])
    def test_peak_stays_within_its_budget(self, tables, op):
        name, arg, call, per_subset = op
        per_subset = self.TIGHTER.get(name, per_subset)
        peak = peak_above_input(lambda: call(tables[arg]))
        assert peak <= per_subset * (1 << self.N) + UFUNC_BUFFERS


class TestMemoryOverBlocks(TestMemory):
    """The same budgets at n = 20, where a lattice pass runs 16 blocks and
    UFUNC_BUFFERS is a quarter of a byte per subset, and tighter ones where a
    slice of 2**16 entries, 1/16 of the table, takes the place of a table."""

    N = 20

    # A transform holds its output, and its finiteness check a slice of bools
    # (1/16 of a byte per subset); the conjugate the same. The scan holds a
    # slice of floats (half a byte per subset), beside the copy of a raw array,
    # and a failing one a slice of bools more. validate holds one Mobius table
    # and a slice of bools; a report one Mobius table, one scratch table, the
    # sizes and their scaled copy, and a slice of bools.
    TIGHTER = {
        "mobius": 8.0625,
        "zeta": 8.0625,
        "co_mobius": 8.0625,
        "ordinal_mobius": 8.0625,
        "ordinal_zeta": 8.0625,
        "conjugate": 8.0625,
        "conjugate of a capacity": 8.0625,
        "as_capacity": 0.5,
        "as_capacity of a raw array": 8.5,
        "failing as_capacity": 0.5625,
        "validate": 8.0625,
        "interaction_report": 18.0625,
    }


def test_a_lattice_pass_allocates_no_array():
    # At n = 20 a table is 16 blocks of SLICE entries; a pass holds its ufunc
    # buffers of BUFSIZE entries, its lists of results and the views of one
    # call at a time, and no copy of any part of the table.
    table = np.random.default_rng(20).uniform(size=1 << 20)

    def up(lo, hi):
        lo += hi

    peak = peak_above_input(lambda: lattice(up, table))
    assert peak <= 4 * 8 * BUFSIZE + 64 * 1024, peak


def test_ordinal_mobius_holds_its_output_and_one_bool_slice():
    # At n = 16 a slice is the whole table, so a second slice of bools, such as
    # a finiteness check of the result would allocate, is a byte per subset
    # more. TestMemory's budgets leave room for numpy's default ufunc buffers,
    # 4 bytes per subset at this n, which hides it. Under buffers of 16 entries
    # the budget is the output, one slice of bools, the buffers of the lattice
    # passes and some small objects.
    n = 16
    assert SLICE == 1 << n
    mu = random_capacity(np.random.default_rng(17), n)
    old = np.setbufsize(16)
    try:
        peak = peak_above_input(lambda: ordinal_mobius(mu))
    finally:
        np.setbufsize(old)
    assert peak <= 9 * (1 << n) + 4 * 8 * BUFSIZE + 4096, peak


class TestJson:
    def test_keyed_form(self):
        n, vals = vector_from_dict(
            {"n": 2, "values": {"": 0.0, "1": 0.3, "2": 0.6, "1,2": 1.0}}
        )
        assert n == 2
        assert list(vals) == [0.0, 0.3, 0.6, 1.0]

    def test_dense_form_and_roundtrip(self):
        payload = {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]}
        sf = set_function_from_dict(payload)
        again = json.loads(json.dumps(to_dict(sf)))
        assert again == payload

    def test_to_dict_round_trips_every_kind(self):
        mu = as_capacity([0.0, 0.3, 0.6, 1.0])
        sf = SetFunction(2, [0.0, 0.5, -0.25, 2.0])
        for table, kind in [
            (sf, SetFunction),
            (mu, Capacity),
            (mobius(sf), MobiusRepr),
            (co_mobius(sf), CoMobiusRepr),
            (ordinal_mobius(mu), OrdinalMobiusRepr),
        ]:
            payload = json.loads(json.dumps(to_dict(table)))
            n, vals = vector_from_dict(payload)
            again = Capacity(SetFunction(n, vals)) if kind is Capacity else kind(n, vals)
            assert type(again) is kind and again.n == table.n
            assert np.array_equal(again.values, table.values)

    def test_missing_subset_is_named(self):
        with pytest.raises(InvalidFormat, match='"2"'):
            vector_from_dict({"n": 2, "values": {"": 0.0, "1": 0.3, "1,2": 1.0}})

    def test_duplicate_and_bad_keys(self):
        with pytest.raises(InvalidFormat):
            vector_from_dict({"n": 2, "values": {"": 0, "1": 0.3, "2,1": 0.6, "1,2": 1}})
        with pytest.raises(InvalidFormat):
            vector_from_dict({"n": 2, "values": {"": 0, "1": 0.3, "3": 0.6, "1,2": 1}})

    def test_exactly_one_values_field(self):
        with pytest.raises(InvalidFormat):
            vector_from_dict({"n": 1, "values": {"": 0, "1": 1}, "values_by_mask": [0, 1]})
        with pytest.raises(InvalidFormat):
            vector_from_dict({"n": 1})

    @pytest.mark.parametrize("obj, match", [
        ({"n": 1, "values": [0.0, 1.0]}, r'^"values" must be an object keyed by subsets$'),
        ({"n": 1, "values": {"": 0.0, 1: 1.0}}, r"^subset keys must be strings, got 1$"),
        ({"n": 2, "values": {"": 0.0, "1,a": 1.0}}, r"^bad subset key '1,a': 'a' is not an index$"),
    ] + [
        ({"n": 2, "values": {"": 0.0, key: 1.0}},
         "^bad subset key %s: %s is not an index$" % (re.escape(repr(key)), re.escape(repr(part))))
        for key, part in [("01", "01"), (" 1", " 1"), ("+1", "+1"), ("1, 2", " 2"),
                          ("1_0", "1_0"), ("\u0663", "\u0663")]
    ], ids=["list", "non-string-key", "key-with-a-letter", "leading-zero", "leading-space",
            "plus-sign", "space-after-comma", "underscore", "arabic-indic-digit"])
    def test_keyed_form_faults_are_named(self, obj, match):
        with pytest.raises(InvalidFormat, match=match):
            vector_from_dict(obj)

    def test_capacity_from_dict_validates(self):
        with pytest.raises(NotMonotone):
            capacity_from_dict({"n": 2, "values_by_mask": [0.0, 1.2, 0.6, 1.0]})

    def test_rejects_non_numeric_values(self):
        with pytest.raises(InvalidFormat):
            vector_from_dict({"n": 1, "values_by_mask": [0.0, "x"]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # the table was returned as it was: only the constructors refused it
        for obj in ({"n": 1, "values_by_mask": [0.0, bad]},
                    {"n": 1, "values": {"": 0.0, "1": bad}}):
            with pytest.raises(InvalidFormat, match="^values must contain only finite numbers$"):
                vector_from_dict(obj)


def pinned_tables(n):
    """Raw value tables at ``n``: a capacity, the same capacity rounded to one
    decimal (ties, flat steps) with a zero singleton, an additive capacity, a small-integer table with
    zeros of either sign (its transforms are exact, with many signed zeros), a
    non-monotone table and one whose Mobius transform overflows."""
    rng = np.random.default_rng(100 + n)
    mu = random_capacity(rng, n).values
    w = rng.uniform(0.1, 1.0, n)
    additive = oracles.additive_table(w / w.sum())
    signed = np.round(rng.uniform(-2.0, 2.0, 1 << n))
    signed[signed == 0.0] = -0.0
    signed[0] = 0.0
    flat = np.round(mu, 1)
    if n > 1:
        flat[1] = 0.0  # a zero singleton
    non_monotone = rng.uniform(0.0, 1.0, 1 << n)
    non_monotone[0], non_monotone[-1] = 0.0, 1.0
    overflow = rng.choice([-1e308, 1e308], 1 << n)
    overflow[0] = 0.0
    return [mu, flat, additive, signed, non_monotone, overflow]


def _outcomes(v, n):
    """Every transform of ``v`` (as a set function and as a capacity) and every
    ``validate`` result on it, as (label, table or exception) pairs."""
    sf = SetFunction(n, v)
    cap = lambda: as_capacity(v, n=n)
    calls = {
        "mobius": lambda: mobius(sf),
        "zeta": lambda: zeta(mobius(sf)),
        "co_mobius": lambda: co_mobius(sf),
        "ordinal_mobius": lambda: ordinal_mobius(sf),
        "ordinal_zeta": lambda: ordinal_zeta(ordinal_mobius(sf)),
        "conjugate": lambda: conjugate(sf),
        "as_capacity": cap,
        "conjugate(capacity)": lambda: conjugate(cap()),
        "ordinal_mobius(capacity)": lambda: ordinal_mobius(cap()),
    }
    for label, call in calls.items():
        try:
            yield label, call()
        except CapacitiesError as exc:
            yield label, exc
    for tol in (0.0, 1e-9):
        for positive in (False, True):
            res = validate(v, n=n, require_positive_singletons=positive, tol=tol)
            yield "validate", (res.ok, res.strictly_monotone, res.additive, res.error, res.capacity)


def transform_digest(n):
    """sha256 over the type and bytes of every outcome of ``_outcomes`` on
    ``pinned_tables(n)``, error types and texts included."""
    digest = hashlib.sha256()

    def update(x):
        if isinstance(x, tuple):
            for item in x:
                update(item)
        elif isinstance(x, SetFunction):
            digest.update(type(x).__name__.encode() + x.values.tobytes())
        else:
            digest.update(("%s:%s;" % (type(x).__name__, x)).encode())

    for v in pinned_tables(n):
        for label, outcome in _outcomes(v, n):
            digest.update(label.encode())
            update(outcome)
    return digest.hexdigest()


# transform_digest per n, as computed while every transform still copied its
# output a second time; any change to a bit of a table, a flag or an error text
# moves it.
TRANSFORM_DIGESTS = {
    1: "de4ed96841e9a7de0442c50ef2db1fd132ac639f4891bb3f53c33f1e6c00ef01",
    2: "1d1eb2c449308683e629ce4a9a59b198389d53d20b9f175a5ff4df3194b6de1b",
    5: "248f7f9e4de122e035fd1e00b2c6160e920ebae6c24566502482076179c00bbb",
    8: "f643758bfecaaacd236cd67ee3df1560124e380d732eefd8e29d96271a299ca8",
    12: "40680bd8560c36b1a1c9f081bc3fc6adb225c8796089a4e52dc9cfd9de38011d",
    16: "1ee76a8a19ce819e73c9f5c9317dc932e6eb5e52ba20a4f21178408becc26491",
}


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 16])
def test_transform_outcomes_are_pinned(n):
    assert transform_digest(n) == TRANSFORM_DIGESTS[n]
