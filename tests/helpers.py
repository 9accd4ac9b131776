"""Shared random generators for the test suite."""

import tracemalloc

import numpy as np

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
