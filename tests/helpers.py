"""Shared random generators and table builders for the test suite."""

import json
import tracemalloc
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from capacities import Capacity, SetFunction, as_capacity, cli
from oracles import additive_table, loop_ordinal_zeta


def random_capacity(rng, n, lo=0.1):
    """Monotone normalized table via a running max over subsets.

    Singleton weights stay strictly positive; the result is almost surely
    non-additive.
    """
    v = rng.uniform(lo, 1.0, 1 << n)
    v[0] = 0.0
    v = loop_ordinal_zeta(v)
    v /= v[-1]
    return as_capacity(v, n=n)


def random_set_function(rng, n, lo=-1.0, hi=1.0):
    v = rng.uniform(lo, hi, 1 << n)
    v[0] = 0.0
    return SetFunction(n, v)


def signed_zeros(t, rng):
    """The table t, with -0.0 at about half its zeros and +0.0 at the empty set."""
    t[(t == 0.0) & (rng.uniform(size=t.shape[0]) < 0.5)] = -0.0
    t[0] = 0.0
    return t


def signed_table(n, rng):
    """Small integers in [-2, 2] with zeros of either sign: exact transforms."""
    return signed_zeros(np.round(rng.uniform(-2.0, 2.0, 1 << n)), rng)


def max_closure(values, rng):
    """The max-closure of |values|, exactly monotone, with zeros of either sign."""
    return signed_zeros(loop_ordinal_zeta(np.abs(values)), rng)


def random_additive_capacity(rng, n):
    w = rng.uniform(0.1, 1.0, n)
    w /= w.sum()
    v = additive_table(w)
    v[-1] = 1.0
    return as_capacity(v, n=n)


def distorted(n, rng):
    """A strictly monotone capacity table: a power of an additive one whose
    weights are all positive."""
    w = rng.uniform(0.1, 1.0, n)
    t = additive_table(w / w.sum()) ** rng.uniform(0.5, 2.0)
    t[-1] = 1.0
    return t


def exactly_monotone(n, rng):
    """An exactly monotone capacity table with +0.0 at the empty set and -0.0 at
    every other zero entry: the max-closure of coefficients of which about a
    quarter are 0, with the first two singletons and their pair at 0 where
    n > 2, and the first singleton where n = 2, over its largest entry."""
    c = rng.uniform(0.0, 1.0, 1 << n)
    c[rng.uniform(size=1 << n) < 0.25] = 0.0
    c[: min(4, 1 << (n - 1))] = 0.0
    t = loop_ordinal_zeta(c)
    t[t == 0.0] = -0.0
    t[0] = 0.0
    return t / t[-1]


def _stepped(n, rng, down):
    """A strict table whose entry at N - {1} is the largest entry below it, or,
    where ``down``, the double below that; at n = 1, the strict table."""
    t, a = distorted(n, rng), (1 << n) - 2
    if n > 1:
        t[a] = max(t[a & ~(1 << i)] for i in range(n) if a >> i & 1)
        if down:
            t[a] = np.nextafter(t[a], -np.inf)
    return t


# Capacity tables for the ordinal transforms at n from rng, by kind.
ORDINAL_TABLES = {
    "strict": distorted,
    "exactly monotone": exactly_monotone,
    "exactly monotone, no -0.0": lambda n, rng: exactly_monotone(n, rng) + 0.0,
    "an equal step": lambda n, rng: _stepped(n, rng, False),
    "monotone within tol": lambda n, rng: _stepped(n, rng, True),
}


def strictly_monotone(values):
    """A strictly monotone table, 1 at N within a few ulps, from any table: each
    entry is |v(A)| / max |v|, or the next double above every entry below it
    where that is larger. v(empty) keeps its sign."""
    n = values.shape[0].bit_length() - 1
    t = np.abs(values) / (np.abs(values).max() or 1.0)
    t[0], t[-1] = values[0], 1.0
    for a in range(1, 1 << n):
        below = max(t[a & ~(1 << i)] for i in range(n) if a >> i & 1)
        t[a] = max(t[a], np.nextafter(below, np.inf))
    return t


@dataclass(frozen=True)
class HashedCapacity(Capacity):
    """A capacity type whose generated ``__hash__`` fails on its numpy table."""


def verify_args(tmp_path, mu, losses, name, cfg, names):
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


# numpy's ufunc buffers for strided operands: at most four operands of
# np.getbufsize() doubles each, the same whatever n is.
UFUNC_BUFFERS = 4 * 8 * np.getbufsize()


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
