"""Naive reference implementations used as oracles in tests.

The naive oracles enumerate subsets directly with itertools, independent of
the vectorized butterflies in the package, and are deliberately slow:
O(3**n) for the transforms and worse for the interaction index.

The ``loop_*`` references are the per-bit loops the package ran on views of
the whole table before its passes were tiled, over the views that ``halves``
yields, and the per-row dot of the coefficient forms. ``additive_table`` adds
weights over the same views. They do the same arithmetic in the same order, so the
package must match them byte for byte. ``scalar_sampler`` draws the random
trials of the axiom checks one at a time, as the package once did; its
block draws must give the same values. ``loop_indifference_chains`` is the
grouping loop ``rank_acts`` ran before it ranked by stable sorts,
``lexsort_ranking`` the sorts and lexsort it ran before one sort of chain-major
keys, ``loop_grid_table`` the cell loop that filled the pseudo-product grid,
``loop_certificate`` the triple loop that walked its associativity cube,
``loop_pseudo_product_fold`` the mask-by-mask fold of a pseudo-product,
``loop_subset_table`` the same fold of a ufunc, row by row,
``loop_utilities`` the act-by-act loop that read the utility matrix before
``rank_acts`` read it column by column, ``loop_acts_from_obj`` the acts-file
parser that built and checked each act through ``Act(...)`` in turn, and ``loop_choquet_rows``,
``loop_split_choquet_rows`` and ``loop_sugeno_rows`` the row-major sort
kernels the package ran before it ranked each score row once, criterion-major:
a column loop over each row's ranking, and a ranking of t+ and one of t- for
the signed integrals.
"""

import itertools
import math

import numpy as np

from capacities.errors import DimensionMismatch, InvalidFormat
from capacities.integrals import _OFF_GRID, OperatorCertificate
from capacities.model import Act


def members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def submasks(mask):
    mem = members(mask)
    for r in range(len(mem) + 1):
        for combo in itertools.combinations(mem, r):
            yield sum(1 << i for i in combo)


def size(mask):
    return bin(mask).count("1")


def naive_mobius(values, n):
    out = []
    for a in range(1 << n):
        acc = 0.0
        for b in submasks(a):
            acc += (-1.0) ** (size(a) - size(b)) * values[b]
        out.append(acc)
    return out


def naive_zeta(coeffs, n):
    return [sum(coeffs[b] for b in submasks(a)) for a in range(1 << n)]


def naive_co_mobius(values, n):
    full = (1 << n) - 1
    out = []
    for a in range(1 << n):
        acc = 0.0
        for b in submasks(a):
            acc += (-1.0) ** size(b) * values[full ^ b]
        out.append(acc)
    return out


def naive_max_recovery(coeffs, n):
    return [max(coeffs[b] for b in submasks(a)) for a in range(1 << n)]


def naive_min_form(m_coeffs, n, t):
    acc = 0.0
    for a in range(1, 1 << n):
        acc += m_coeffs[a] * min(t[i] for i in members(a))
    return acc


def naive_owen_mle(mu_values, n, t):
    acc = 0.0
    for a in range(1 << n):
        term = mu_values[a]
        for i in range(n):
            term *= t[i] if a >> i & 1 else 1.0 - t[i]
        acc += term
    return acc


def naive_interaction(mu_values, n, amask):
    a_members = members(amask)
    a = len(a_members)
    rest = [i for i in range(n) if not amask >> i & 1]
    total = 0.0
    for r in range(len(rest) + 1):
        coeff = math.factorial(n - r - a) * math.factorial(r) / math.factorial(n - a + 1)
        for bcombo in itertools.combinations(rest, r):
            bmask = sum(1 << i for i in bcombo)
            inner = 0.0
            for s in range(a + 1):
                for kcombo in itertools.combinations(a_members, s):
                    kmask = sum(1 << i for i in kcombo)
                    inner += (-1.0) ** (a - s) * mu_values[kmask | bmask]
            total += coeff * inner
    return total


# -- natural-layout references ---------------------------------------------------


def halves(a, bits=None):
    """(i, lo, hi) for every bit i, ascending, or for the set bits of ``bits``:
    views of ``a`` with every mask without bit i beside mask | bit i."""
    for i in range(a.shape[0].bit_length() - 1):
        if bits is None or bits >> i & 1:
            blocks = a.reshape(-1, 2 << i)
            yield i, blocks[:, : 1 << i], blocks[:, 1 << i :]


def additive_table(w):
    """The table of the sum of w[i] over the criteria i of each mask, added bit
    by bit in ascending order."""
    v = np.zeros(1 << len(w))
    for i, lo, hi in halves(v):
        np.add(lo, w[i], out=hi)
    return v


def loop_mobius(values):
    a = np.array(values, dtype=np.float64)
    for _, lo, hi in halves(a):
        hi -= lo
    return a


def loop_zeta(coeffs):
    a = np.array(coeffs, dtype=np.float64)
    for _, lo, hi in halves(a):
        hi += lo
    return a


def loop_co_mobius(values):
    a = loop_mobius(np.asarray(values)[::-1])
    odd = np.bitwise_count(np.arange(a.shape[0])) & 1
    np.negative(a, out=a, where=odd.astype(bool))
    return a


def loop_ordinal_mobius(values):
    vals = np.asarray(values, dtype=np.float64)
    keep = np.ones(vals.shape[0], dtype=bool)
    for (_, lo, hi), (_, _, kept) in zip(halves(vals), halves(keep)):
        kept &= hi > lo
    return np.where(keep, vals, 0.0)


def loop_ordinal_zeta(coeffs):
    a = np.array(coeffs, dtype=np.float64)
    for _, lo, hi in halves(a):
        np.maximum(hi, lo, out=hi)
    return a


def loop_conjugate(values):
    vals = np.asarray(values, dtype=np.float64)
    return vals[-1] - vals[::-1]


def loop_drops(values):
    """For each bit, the largest v(mask) - v(mask | 1 << bit) over the masks without it."""
    return loop_scan(values, ())[0]


def loop_first_drop(values, tol):
    """The first (mask, bit) with v(mask | 1 << bit) < v(mask) - tol, by mask
    and then by bit, or None."""
    return loop_scan(values, (tol,))[1][0]


def loop_scan(values, tols):
    """``loop_drops(values)``, and ``loop_first_drop(values, tol)`` for each of
    ``tols``, from one difference v(mask) - v(mask | 1 << bit) per bit and mask."""
    vals = np.asarray(values, dtype=np.float64)
    drops, firsts = [], [None] * len(tols)
    for i, lo, hi in halves(vals):
        diff = lo - hi
        drops.append(diff.max())
        for k, tol in enumerate(tols):
            flags = diff > tol
            if flags.any():
                row, col = divmod(int(flags.argmax()), 1 << i)
                mask = (row << (i + 1)) + col
                if firsts[k] is None or mask < firsts[k][0]:
                    firsts[k] = (mask, i)
    return np.array(drops), firsts


def loop_strictly_monotone(values):
    vals = np.asarray(values, dtype=np.float64)
    return all(bool((hi > lo).all()) for _, lo, hi in halves(vals))


def loop_additive(values, tol):
    """Every Mobius coefficient of two or more criteria within tol of 0."""
    m = loop_mobius(values)
    sizes = np.bitwise_count(np.arange(m.shape[0]))
    return bool(np.all(np.abs(m[sizes >= 2]) <= tol))


def loop_all_indices(m_coeffs, max_order):
    """I(A) at every mask A of size 1..max(max_order, 2), 0 elsewhere: for each
    order k, the Mobius table over max(|B| - k + 1, 1) summed over supersets."""
    m = np.asarray(m_coeffs, dtype=np.float64)
    sizes = np.bitwise_count(np.arange(m.shape[0])).astype(np.float64)
    out = np.zeros_like(m)
    for k in range(1, min(max(max_order, 2), m.shape[0].bit_length() - 1) + 1):
        t = m / np.maximum(sizes - k + 1, 1.0)
        for _, lo, hi in halves(t):
            lo += hi
        out[sizes == k] = t[sizes == k]
    return out


def loop_subset_table(ufunc, t, empty):
    """Per row of t, the table over all masks of ``ufunc`` folded over the row's
    scores on each mask, criteria ascending, from ``empty``: one mask at a time."""
    t = np.asarray(t, dtype=np.float64)
    table = np.empty((t.shape[0], 1 << t.shape[1]))
    for r, row in enumerate(t):
        for mask in range(1 << t.shape[1]):
            acc = np.float64(empty)
            for i in members(mask):
                acc = ufunc(acc, row[i])
            table[r, mask] = acc
    return table


def loop_mobius_rows(coefficients, table):
    """Per row of a table over all subsets, np.dot of the coefficients with it,
    both without the empty set."""
    coef = np.asarray(coefficients, dtype=np.float64)[1:]
    return np.array([np.dot(coef, row[1:]) for row in table])


def _ranked_rows(t):
    """Each row of t sorted ascending, ties by criterion index, and in column j
    the mask of the criteria ranked j..n in that row."""
    order = np.argsort(t, axis=1, kind="stable")
    upper = np.bitwise_or.accumulate(np.left_shift(1, order)[:, ::-1], axis=1)[:, ::-1]
    return np.take_along_axis(t, order, axis=1), upper


def loop_choquet_rows(vals, t):
    """Per row of t, t_(1) * v(A_(1)) plus (t_(j) - t_(j-1)) * v(A_(j)) for j = 2..n,
    added column by column, with v the value table ``vals``."""
    ts, upper = _ranked_rows(t)
    v = vals[upper]
    with np.errstate(over="ignore", invalid="ignore"):
        acc = ts[:, 0] * v[:, 0]
        for j in range(1, t.shape[1]):
            acc += (ts[:, j] - ts[:, j - 1]) * v[:, j]
    return acc


def loop_split_choquet_rows(gains, losses, t):
    """Choquet of t+ against ``gains`` minus Choquet of t- against ``losses``, each
    ranked on its own."""
    tp, tn = np.maximum(t, 0.0), np.maximum(-t, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return loop_choquet_rows(gains, tp) - loop_choquet_rows(losses, tn)


def loop_sugeno_rows(nu, t):
    """Per row of t, the symmetric maximum of max_j t+_(j) * nu(A_(j)) and of
    -max_j t-_(j) * nu(A_(j)), t+ and t- each ranked on its own."""
    parts = []
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (np.maximum(t, 0.0), np.maximum(-t, 0.0)):
            xs, upper = _ranked_rows(x)
            parts.append(np.max(xs * nu[upper], axis=1))
        a, b = parts[0], -parts[1]
        return np.where(np.abs(a) > np.abs(b), a, np.where(b == -a, 0.0, b))


def loop_grid_table(op):
    """The 21 x 21 pseudo-product grid on [0, 1] filled one cell at a time, row by row."""
    xs = np.linspace(0.0, 1.0, 21)
    table = np.empty((21, 21))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            table[i, j] = op(float(x), float(y))
    return xs, table


def loop_certificate(op, xs: np.ndarray, table: np.ndarray, tol: float) -> OperatorCertificate:
    """Worst commutativity and associativity gaps of ``op`` on its grid table
    and on the off-grid pairs and triples."""
    comm_gap = float(np.max(np.abs(table - table.T)))
    assoc_gap = 0.0
    for i, x in enumerate(xs):
        for j in range(xs.shape[0]):
            for k, z in enumerate(xs):
                left = op(float(table[i, j]), float(z))
                right = op(float(x), float(table[j, k]))
                gap = abs(left - right)
                if gap > assoc_gap:
                    assoc_gap = gap
    for x, y, z in _OFF_GRID:
        xy = float(op(x, y))
        comm_gap = max(comm_gap, abs(xy - float(op(y, x))))
        assoc_gap = max(assoc_gap, abs(op(xy, z) - op(x, float(op(y, z)))))
    return OperatorCertificate(
        commutative=comm_gap <= tol,
        associative=assoc_gap <= tol,
        grid_points=xs.shape[0],
        tol=tol,
        max_commutativity_gap=comm_gap,
        max_associativity_gap=assoc_gap,
    )


def loop_pseudo_product_fold(op, t):
    """Table over all masks of the left fold of ``op`` over t on each mask, criteria
    ascending, filled one mask at a time; 0 at the empty set."""
    folded = np.zeros(1 << len(t))
    for i in range(len(t)):
        folded[1 << i] = t[i]
        for k in range(1, 1 << i):
            folded[(1 << i) + k] = op(float(folded[k]), float(t[i]))
    return folded


def loop_indifference_chains(scores, tol):
    """(position, index, score, indifferent_to_previous) for each act, as the
    ranking once built them: acts sorted by descending score and input index,
    grouped while the previous score exceeds the next by at most tol, and each
    group put back in input order."""
    order = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    groups = []
    for k in order:
        score = scores[k]
        if groups and groups[-1][-1][0] - score <= tol:
            groups[-1].append((score, k))
        else:
            groups.append([(score, k)])
    out = []
    for group in groups:
        group.sort(key=lambda item: item[1])
        for j, (score, k) in enumerate(group):
            out.append((len(out) + 1, k, score, j > 0))
    return out


def lexsort_ranking(scores, tol):
    """(position, index, score, indifferent_to_previous) for each act of the float
    array ``scores``, from the tail ``rank_acts`` ran before it sorted chain-major
    integer keys: a stable argsort of the negated scores, chain ids as a cumulative
    sum of the drops > tol, and a lexsort by chain id, then input index."""
    order = np.argsort(-scores, kind="stable")
    # A chain id counts the drops > tol so far; an inf gap (near +-1e308) is one, unwarned.
    with np.errstate(over="ignore"):
        chain = np.cumsum(np.diff(scores[order], prepend=scores[order[0]]) < -tol)
    ranked = np.lexsort((order, chain))
    chain, order, values = chain[ranked], order[ranked].tolist(), scores.tolist()
    flags = [False] + (chain[1:] == chain[:-1]).tolist()
    return [(p + 1, k, values[k], flags[p]) for p, k in enumerate(order)]


def loop_utilities(model, acts):
    """The (k, n) utility matrix of ``acts`` (Act objects), read act by act and
    entry by entry: a level name through its criterion's scale, a number
    through ``float``. The first act of the wrong length or with an unknown
    level raises."""
    rows = []
    for act in acts:
        if len(act.entries) != model.n:
            raise DimensionMismatch(
                "act has %d entries but the model has %d criteria" % (len(act.entries), model.n)
            )
        rows.append([
            model.scales[i].utility(entry) if isinstance(entry, str) else float(entry)
            for i, entry in enumerate(act.entries)
        ])
    return np.array(rows, dtype=np.float64)


def loop_acts_from_obj(obj) -> list:
    """Parse an acts file: a JSON array of acts.

    Each act is either an array of entries or an object with "entries"
    and an optional "label".
    """
    if not isinstance(obj, list):
        raise InvalidFormat("acts must be a JSON array")
    acts = []
    for k, item in enumerate(obj):
        if isinstance(item, list):
            acts.append(Act(item))
        elif isinstance(item, dict):
            if "entries" not in item:
                raise InvalidFormat('act %d is missing "entries"' % k)
            if not isinstance(item["entries"], list):
                raise InvalidFormat('act %d: "entries" must be an array' % k)
            label = item.get("label", "")
            if not isinstance(label, str):
                raise InvalidFormat('act %d: "label" must be a string' % k)
            acts.append(Act(item["entries"], label=label))
        else:
            raise InvalidFormat("act %d must be an array or an object" % k)
    return acts


# -- one-trial samplers ------------------------------------------------------------


def scalar_sampler(axiom, n, score_bounds, alpha_bounds, unit=False):
    """A function drawing one random trial of ``axiom`` from a numpy Generator, as
    a tuple of its fields, with scalar calls. ``unit`` clamps C1's shift to keep
    the scores in [0, 1]."""
    lo, hi = map(float, score_bounds)
    alo, ahi = map(float, alpha_bounds)
    size = 1 << n

    def log_uniform(rng):
        return float(np.exp(rng.uniform(np.log(alo), np.log(ahi))))

    def he(rng):
        return log_uniform(rng), int(rng.integers(1, size))

    def a(rng):
        return int(rng.integers(n)), float(rng.uniform(lo, hi))

    def m(rng):
        t = rng.uniform(lo, hi, n)
        return t, t + rng.uniform(0.0, 1.0, n) * (hi - t)

    def m1(rng):
        a, b = np.sort(rng.uniform(lo, hi, 2))
        return int(rng.integers(n)), float(a), float(b)

    def i(rng):
        return (log_uniform(rng),)

    def a1(rng):
        q = tuple(float(x) for x in rng.uniform(lo, hi, 4))
        return int(rng.integers(n)), log_uniform(rng), q

    def a2(rng):
        masks = tuple(int(x) for x in rng.integers(0, size, 4))
        return log_uniform(rng), masks

    def c1(rng):
        t = rng.uniform(lo, hi, n)
        alpha = log_uniform(rng)
        beta = float(rng.uniform(lo, hi))
        return t, alpha, min(max(beta, 0.0), max(0.0, 1.0 - alpha)) if unit else beta

    def s1(rng):
        t = rng.uniform(lo, hi, n)
        alpha = log_uniform(rng)
        if lo < 0.0 and rng.integers(2):
            alpha = -alpha
        return t, alpha

    samplers = {"HE": he, "A": a, "M": m, "M1": m1, "I": i, "A1": a1, "A2": a2, "C1": c1, "S1": s1}
    return samplers[axiom]
