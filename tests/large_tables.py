"""Tier-1's own checks at n = 22..24, on tables of 32 to 128 MiB: the transforms
and the monotonicity scan against the natural loops, the ordinal paths and the
peak memory of each op. A plain ``pytest`` run does not collect it, as its name
does not match ``test_*.py``: ``python -W error -m pytest -q tests/large_tables.py``.
"""

import numpy as np
import pytest

import oracles
import test_set_function
from capacities import SetFunction, as_capacity, ordinal_mobius
from helpers import UFUNC_BUFFERS, max_closure, signed_table
from test_paths import ordinal_paths
from test_set_function import check_capacity, check_drops, check_transforms

SIZES = [22, 23, 24]
planted = test_set_function.TestFirstViolation.planted


def monotone_table(n):
    """An exactly monotone table, +0.0 at the empty set and -0.0 at about half
    its other zeros: the max-closure of the signed table of seed n."""
    rng = np.random.default_rng(n)
    t = max_closure(signed_table(n, rng), rng)
    assert np.signbit(t).any()
    return t


@pytest.mark.parametrize("n", SIZES)
def test_transforms_match_the_natural_loops(n):
    check_transforms(signed_table(n, np.random.default_rng(n)))
    t = monotone_table(n)
    check_capacity(as_capacity(t / t[-1], n=n))


@pytest.mark.parametrize("n", SIZES)
def test_ordinal_paths(n):
    # As a capacity that validation built, an exactly monotone table's ordinal
    # round trip returns it plus 0.0 while it lives, with no pass; as a bare
    # table, which keeps no drop, it runs both passes. A strict capacity's
    # ordinal coefficients are a copy of its table and refer to it.
    t = monotone_table(n)
    assert ordinal_paths(as_capacity(t / t[-1], n=n)) == ("pass", "kept")
    assert ordinal_paths(SetFunction(n, t)) == ("pass", "pass")
    del t
    strict = as_capacity(planted(n, []), n=n)
    want = oracles.loop_ordinal_mobius(strict.values).tobytes()
    assert ordinal_mobius(strict).values.tobytes() == want
    assert ordinal_paths(strict) == ("copy", "kept")


@pytest.mark.parametrize("n", SIZES)
def test_drops_match_the_natural_loop(n):
    # Three planted drops past the first block and chunk: bit 3, run on the
    # tiles of a block, bit 13, run block by block, and bit 17, run chunk by
    # chunk. The drop on bit 3, in the block's second tile, has the smallest
    # mask, so the scan names it. Alone, a drop on bit 17 in row top >> 18 of
    # 2**17 masks, past the first 2**16 of that row, is named from the search's
    # second piece of that row.
    top = 1 << (n - 1)
    late = top | 1 << 16 | 5
    high = planted(n, [(late, 17)])
    assert oracles.loop_first_drop(high, 0.0) == (late, 17)
    check_drops(high)
    del high
    check_drops(planted(n, [(top | 1 << 12 | 7 << 4, 3), (top | 1 << 16, 13), (top | 1 << 14, 17)]))
    check_drops(signed_table(n, np.random.default_rng(n)))


class TestMemoryAt24(test_set_function.TestMemoryOverBlocks):
    """TestMemoryOverBlocks' budgets at n = 24, and three tighter ones, UFUNC_BUFFERS
    included: as_capacity copies a raw array once, beside a slice and the ufunc
    buffers, and only scans a capacity; mobius holds its output and a bool slice."""

    N = 24
    TIGHTER = {
        **test_set_function.TestMemoryOverBlocks.TIGHTER,
        "as_capacity of a raw array": 1.05 * 8 - UFUNC_BUFFERS / (1 << N),
        "as_capacity": (2 * 2**20 - UFUNC_BUFFERS) / (1 << N),
        "mobius": 1.001 * 8 - UFUNC_BUFFERS / (1 << N),
    }
