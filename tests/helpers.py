"""Shared random generators for the test suite."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from capacities import SetFunction, as_capacity
from oracles import additive_table


def random_capacity(rng, n, lo=0.1):
    """Monotone normalized table via a running max over subsets.

    Singleton weights stay strictly positive; the result is almost surely
    non-additive.
    """
    v = rng.uniform(lo, 1.0, 1 << n)
    v[0] = 0.0
    for i in range(n):
        bit = 1 << i
        blocks = v.reshape(-1, 2 * bit)
        np.maximum(blocks[:, bit:], blocks[:, :bit], out=blocks[:, bit:])
    v /= v[-1]
    return as_capacity(v, n=n)


def random_set_function(rng, n, lo=-1.0, hi=1.0):
    v = rng.uniform(lo, hi, 1 << n)
    v[0] = 0.0
    return SetFunction(n, v)


def random_additive_capacity(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    v = additive_table(w)
    v[-1] = 1.0
    return as_capacity(v, n=n)


def peak_above_input(call):
    """Peak traced bytes while ``call`` ran, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Entries at the edges of a double: signed zeros, subnormals, the largest
# doubles and halves of them, whose sums and differences overflow, and 1e300.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 1.7e308, -1.7e308, 8.9e307, -8.9e307, 1e300, -1e300]


@st.composite
def edge_tables(draw, max_n=5):
    """A well-formed :class:`SetFunction` at n = 1..max_n whose entries mix the
    EDGES, ties (entries drawn from a pool of three) and normals of one scale."""
    n = draw(st.integers(1, max_n))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e307]))
    normals = st.floats(-4.0, 4.0).map(lambda x: x * scale)
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGES), normals), min_size=3, max_size=3))
    entry = st.one_of(st.sampled_from(EDGES), normals, st.sampled_from(pool))
    values = draw(st.lists(entry, min_size=1 << n, max_size=1 << n))
    values[0] = draw(st.sampled_from([0.0, -0.0]))
    return SetFunction(n, values)
