"""Executable checks of the aggregation axioms.

Each check samples the quantified statement of one axiom against a
concrete extension and reports the first counterexample found, if any.
Probes (hand-picked configurations known to separate the extensions, such
as quadruples straddling 0) run before the seeded random trials, so
verdicts are deterministic given the config.

Axiom names:

* ``HE``: homogeneous extension, F(alpha * 1_A) = alpha * mu(A) for alpha >= 0.
* ``A``: single-criterion linearity, F(a * e_i) = a * F(e_i).
* ``M``: nondecreasing in every coordinate.
* ``M1``: nondecreasing on single-criterion vectors.
* ``I``: idempotence on constant vectors, F(alpha, ..., alpha) = alpha >= 0.
* ``A1``: single-criterion difference ratios match the utility ratios.
* ``A2``: binary-vector difference ratios match the capacity ratios.
* ``C1``: affine invariance F(alpha * t + beta) = alpha * F(t) + beta, alpha >= 0.
* ``S1``: homogeneity F(alpha * t) = alpha * F(t) for every real alpha.

Comparisons use a relative-when-large tolerance: a gap counts as a
failure when it exceeds tol * max(1, |expected|), which keeps huge-alpha
trials from tripping on float roundoff while leaving genuine violations
(which are O(1) at least) clearly visible. C1 scales by the shifted scores
too, alpha * max|t| + |beta|, since its sides can cancel far below them.

A known limitation: with ``allow_out_of_domain``, C1 can fail on ``mle`` of
an additive capacity, which satisfies it exactly. Its Mobius coefficients of
order >= 2 are rounding noise (~1e-17), not 0, and ``mle`` multiplies them by
score products near (alpha * max|t|)**|B|; the tolerance is not widened for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import subsets
from .errors import CapacitiesError, DomainMismatch, InvalidFormat, UnknownAxiom
from .integrals import EXTENSION_NAMES, Extension, PseudoProduct, make_extension
from .integrals import _certificate, _grid_table, _quiet
from .set_function import DEFAULT_TOL, Capacity, _flag, _number, _values

__all__ = [
    "AXIOM_NAMES",
    "COMPARISON_AXIOMS",
    "AxiomCheckConfig",
    "Counterexample",
    "AxiomReport",
    "check_axiom",
    "EquivalenceReport",
    "check_equivalence",
    "PseudoProductReport",
    "check_pseudo_product",
    "ExtensionComparison",
    "compare_extensions",
]

COMPARISON_AXIOMS = ("A1", "A2", "I", "M")


@dataclass(frozen=True)
class AxiomCheckConfig:
    """Sampling parameters shared by every axiom check."""

    samples: int = 1000
    seed: int = 42
    tol: float = DEFAULT_TOL
    score_bounds: tuple = (-10.0, 10.0)
    alpha_bounds: tuple = (1e-3, 1e3)
    allow_out_of_domain: bool = False

    def __post_init__(self):
        shown = subsets._shown
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not subsets._is_int(value):
                raise CapacitiesError("%s must be an integer, got %s" % (name, shown(value)))
        flag = _flag(self.allow_out_of_domain, "allow_out_of_domain", CapacitiesError)
        object.__setattr__(self, "allow_out_of_domain", flag)
        if self.samples < 1:
            raise CapacitiesError("samples must be >= 1, got %s" % shown(self.samples))
        if self.seed < 0:
            raise CapacitiesError("seed must be >= 0, got %s" % shown(self.seed))
        tol = _number(self.tol, "tol") if subsets._is_real(self.tol) else np.nan
        if not 0.0 < tol < np.inf:
            raise CapacitiesError("tol must be positive and finite, got %s" % shown(self.tol))
        bounds = {}
        for name in ("score_bounds", "alpha_bounds"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(map(subsets._is_real, pair))):
                raise CapacitiesError("%s must be a pair of numbers, got %s" % (name, shown(pair)))
            try:  # Python floats, whose span overflows to inf quietly
                bounds[name] = [float(x) for x in pair]
            except OverflowError:  # an integer too large for a double fails its range check
                bounds[name] = [np.nan, np.nan]
        lo, hi = bounds["score_bounds"]
        if not 0.0 < hi - lo < np.inf:
            raise CapacitiesError(
                "score_bounds must span a finite increasing range, got %s"
                % shown(tuple(self.score_bounds))
            )
        alo, ahi = bounds["alpha_bounds"]
        if not 0.0 < alo <= ahi < np.inf:
            raise CapacitiesError(
                "alpha_bounds must be positive, finite and increasing, got %s"
                % shown(self.alpha_bounds)
            )


@dataclass(frozen=True)
class Counterexample:
    """A concrete sampled configuration violating an axiom.

    ``inputs`` holds everything needed to re-evaluate the two sides
    (score vectors as plain lists, subsets as canonical keys).
    """

    inputs: dict
    expected: float
    got: float

    @property
    def discrepancy(self) -> float:
        return abs(self.got - self.expected)

    def to_dict(self) -> dict:
        return {**vars(self), "discrepancy": self.discrepancy}


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    extension: str
    passed: bool
    samples_tested: int
    skipped: int
    counterexample: Counterexample | None

    def to_dict(self) -> dict:
        cx = self.counterexample
        return {**vars(self), "counterexample": None if cx is None else cx.to_dict()}


def _score_range(ext: Extension, cfg: AxiomCheckConfig) -> tuple[float, float]:
    lo, hi = cfg.score_bounds
    if ext.domain == "unit" and not cfg.allow_out_of_domain:
        if lo < 0.0 or hi > 1.0:
            raise DomainMismatch(
                "extension %r samples scores on [0, 1]; bounds [%g, %g] fall outside "
                "(restrict score_bounds or set allow_out_of_domain)" % (ext.name, lo, hi)
            )
    return float(lo), float(hi)


def _alpha_range(ext: Extension, cfg: AxiomCheckConfig) -> tuple[float, float]:
    lo, hi = cfg.alpha_bounds
    if ext.domain == "unit" and not cfg.allow_out_of_domain and hi > 1.0:
        raise DomainMismatch(
            "extension %r: scaling factors above 1 leave [0, 1]; bounds (%g, %g) fall outside "
            "(restrict alpha_bounds or set allow_out_of_domain)" % (ext.name, lo, hi)
        )
    return float(lo), float(hi)


def _alpha_probes(lo: float, hi: float) -> list[float]:
    cands = [lo, hi, 1.0, 0.5, 2.0, float(np.sqrt(lo * hi))]
    out = []
    for a in cands:
        if lo <= a <= hi and a not in out:
            out.append(a)
    return out


def _alpha_sweep(lo: float, hi: float) -> list[float]:
    """Zero, the alpha probes, then 21 geometrically spaced factors."""
    return [0.0] + _alpha_probes(lo, hi) + [float(a) for a in np.geomspace(lo, hi, 21)]


_LOW = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


class _Stream:
    """The draws of a fresh numpy ``Generator``, decoded a block of trials at a time.

    ``take(k, outcomes)`` returns, one row per trial, the values that k trials
    drawing one value per entry of ``outcomes`` get from scalar calls in the same
    order: 0 stands for ``uniform()``, a double in [0, 1), and 1 <= m < 2**32
    for ``integers(m)``. They are decoded from ``bit_generator.random_raw`` by
    the rules of numpy's ``Generator`` on 64-bit words:

    * a double is the top 53 bits of a fresh word, times 2**-53;
    * ``integers(m)`` is Lemire's method on a 32-bit draw x: m * x >> 32, drawn
      again while the low 32 bits of m * x fall below (2**32 - m) % m. A 32-bit
      draw takes the low half of a fresh word and leaves its high half to the
      next 32-bit draw; doubles do not touch that half. ``integers(1)`` draws
      nothing.

    Every trial of a block reads its words in the same pattern, save for which
    32-bit draws open a fresh word: that alternates with the parity of the
    32-bit draws before it. So a period of one trial, or of two when a trial
    makes an odd number of 32-bit draws, reads a fixed layout of words, and a
    block of doubles and 32-bit draws is decoded period by period from that
    layout, consuming nothing until no draw of its k trials is found rejected.
    A block with a rejected draw is decoded again from its start by
    ``_draws``, the general pass, which the tests also take as the reference.

    NEP 19 lets a numpy release change these streams; the test of these draws
    against the scalar calls and the golden verify file would then fail.
    """

    def __init__(self, rng: np.random.Generator):
        self._raw = rng.bit_generator.random_raw
        self._words = np.empty(0, dtype=np.uint64)  # read but not yet consumed
        self._half = np.empty(0, dtype=np.uint64)  # a high half left by a 32-bit draw

    def _peek(self, count: int) -> np.ndarray:
        if count > self._words.size:
            self._words = np.concatenate([self._words, self._raw(count - self._words.size)])
        return self._words[:count]

    def _next(self, count: int) -> np.ndarray:
        out = self._peek(count)
        self._words = self._words[count:]
        return out

    def take(self, k: int, outcomes) -> np.ndarray:
        if not any(outcomes):  # all doubles: one fresh word each, no 32-bit half touched
            return self._doubles(self._next(k * len(outcomes))).reshape(k, -1)
        ints = [j for j, m in enumerate(outcomes) if m > 1]
        doubles = [j for j, m in enumerate(outcomes) if m == 0]
        period = 1 + len(ints) % 2
        # The columns of one period's words that its doubles and its opening
        # 32-bit draws read, in draw order, and how many words its first trial reads.
        double_at, open_at = [], []
        width = 0
        parity = self._half.size
        for trial in range(period):
            for m in outcomes:
                if m == 0:
                    double_at.append(width)
                    width += 1
                elif m > 1:
                    if parity == 0:
                        open_at.append(width)
                        width += 1
                    parity ^= 1
            if trial == 0:
                first = width
        periods = -(-k // period)
        used = k // period * width + k % period * first  # the words of the k trials
        words = self._peek(used)
        if k % period:  # the trial after the k-th is decoded from zero words, and dropped
            words = np.append(words, np.zeros(periods * width - used, dtype=np.uint64))
        words = words.reshape(periods, width)
        m = np.full((k, len(ints)), [outcomes[j] for j in ints], dtype=np.uint64).ravel()
        vals, kept, half = self._lemire(words[:, open_at].ravel(), m)
        if kept < m.size:  # a rejected draw: the general pass, from the block's start
            m = np.tile(np.asarray(outcomes, dtype=np.uint64), k)
            out = np.zeros(m.size)
            drawn = np.flatnonzero(m != 1)
            out[drawn] = self._draws(m[drawn])
            return out.reshape(k, -1)
        self._words = self._words[used:]
        self._half = half
        out = np.zeros((k, len(outcomes)))
        x = words[:, double_at].reshape(periods * period, len(doubles))[:k]
        out[:, doubles] = self._doubles(x)
        out[:, ints] = vals.reshape(k, len(ints))
        return out

    @staticmethod
    def _doubles(words: np.ndarray) -> np.ndarray:
        return (words >> np.uint64(11)) * 2.0**-53

    def _lemire(self, opened: np.ndarray, m: np.ndarray):
        """``integers(m)`` for each entry of m, in order, by Lemire's method on the
        32-bit draws that read the pending half and then the low and high halves
        of each ``opened`` word. Returns the values, how many draws precede the
        first rejected one (m.size if none is), and the half left pending after
        the draws up to and including that one."""
        # the little-endian 32-bit view of a word is its low half, then its high half
        halves = np.concatenate([self._half, opened.astype("<u8", copy=False).view("<u4")])
        scaled = halves[: m.size] * m
        rejected = np.flatnonzero((scaled & _LOW) < (np.uint64(1 << 32) - m) % m)
        kept = int(rejected[0]) if rejected.size else m.size
        used = kept + (kept < m.size)  # a rejected draw reads its half too
        return scaled >> _32, kept, halves[used : used + (self._half.size + used) % 2]

    def _draws(self, m: np.ndarray) -> np.ndarray:
        """One value per entry of m, as ``take`` describes, with no m of 1. Each
        pass decodes every draw as if none were rejected and keeps those before
        the first rejection; the next pass starts again at that draw."""
        out = np.empty(m.size)
        start = 0
        while start < m.size:
            ev = m[start:]
            fresh = ev == 0
            doubles = np.flatnonzero(fresh)
            ints = np.flatnonzero(~fresh)
            opens = (np.arange(ints.size) + self._half.size) % 2 == 0  # takes a low half
            fresh[ints[opens]] = True
            at = np.cumsum(fresh) - 1  # the word read by each fresh draw
            words = self._next(int(at[-1]) + 1)
            vals = np.empty(ev.size)
            vals[doubles] = self._doubles(words[at[doubles]])
            vals[ints], kept, self._half = self._lemire(words[at[ints[opens]]], ev[ints])
            if kept == ints.size:
                out[start:] = vals
                return out
            r = ints[kept]
            out[start : start + r] = vals[:r]
            self._words = np.concatenate([words[at[r] + 1 :], self._words])
            start += r
        return out


def _scaled(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``uniform(lo, hi)`` from the doubles x of ``uniform()``."""
    return lo + (hi - lo) * x


def _indicators(masks: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 score vector of every mask, along a new last axis."""
    return ((masks[..., None] >> np.arange(n)) & 1).astype(np.float64)


def _units(i: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Row r scores a[r] on criterion i[r] (0-based) and 0 on every other."""
    t = np.zeros((a.shape[0], n))
    t[np.arange(a.shape[0]), i] = a
    return t


def _at(ext: Extension, *ts: np.ndarray):
    """The extension's values at the rows of each (k, n) block, from one row-kernel call."""
    return np.split(ext._values(np.concatenate(ts)), len(ts))


def _finite(*xs: np.ndarray) -> np.ndarray:
    return np.logical_and.reduce([np.isfinite(x) for x in xs])


def _ratio(f: np.ndarray, want: np.ndarray, tol: float):
    """(f_a - f_b) / (f_c - f_d) for each row (a, b, c, d) of ``f`` against the
    same ratio of ``want``: ``(expected, got, valid)``, not valid where a value
    of f is not finite or either denominator is within ``tol`` of zero."""
    wa, wb, wc, wd = want.T
    fa, fb, fc, fd = f.T
    valid = (np.abs(wc - wd) > tol) & (np.abs(fc - fd) > tol) & _finite(f).all(axis=1)
    return (wa - wb) / (wc - wd), (fa - fb) / (fc - fd), valid


# One spec per axiom: ``spec(ext, mu, cfg, stream)`` returns the probe trials as
# a tuple of columns, one array per trial field with one row per trial;
# ``draw(k)``, the same columns for the next k random trials from ``stream``;
# how many random trials to draw; and ``sides``. That takes a block of those
# columns, evaluates the extension at their points in one row-kernel call and
# returns ``(expected, got, scale, valid, inputs)``: per trial, |got - expected|
# may reach tol * max(1, scale) (M and M1 state F(t) <= F(u) as
# max(F(t), F(u)) = F(u)); ``valid`` is False for a degenerate trial or one where
# the extension is not finite; ``inputs(j)`` builds the inputs of a
# counterexample at trial j. A random trial draws its fields in the order that
# ``draw`` lists them in ``stream.take``; a log-uniform alpha is the exp of a
# uniform draw between the logs of the alpha bounds.


def _spec_he(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n
    size = 1 << n
    every_mask = size <= 1024
    masks = np.arange(1, size) if every_mask else np.array([1, size - 1])

    def draw(k):
        x = stream.take(k, (0, size - 1))
        return np.exp(_scaled(x[:, 0], *logs)), 1 + x[:, 1].astype(np.int64)

    def sides(alpha, mask):
        t = alpha[:, None] * _indicators(mask, n)
        expected = alpha * mu.values[mask]
        got = ext._values(t)
        return expected, got, np.abs(expected), _finite(got), lambda j: dict(
            alpha=float(alpha[j]), subset=subsets.subset_key(int(mask[j])), t=t[j].tolist()
        )

    sweep = _alpha_sweep(alo, ahi)
    probes = np.repeat(sweep, masks.size), np.tile(masks, len(sweep))
    return probes, draw, 0 if every_mask else cfg.samples, sides


def _spec_a(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    unit_values = None  # F(e_i), read with the first block's trials
    probe_as = [a for a in (-1.0, -0.5, 0.5, 2.0, lo, hi) if lo <= a <= hi]

    def draw(k):
        x = stream.take(k, (n, 0))
        return x[:, 0].astype(np.int64), _scaled(x[:, 1], lo, hi)

    def sides(i, a):
        nonlocal unit_values
        t = _units(i, a, n)
        if unit_values is None:
            unit_values, got = np.split(ext._values(np.concatenate([np.eye(n), t])), [n])
        else:
            got = ext._values(t)
        expected = a * unit_values[i]
        return expected, got, np.abs(expected), _finite(unit_values[i], got), lambda j: dict(
            criterion=int(i[j]) + 1, value=float(a[j]), t=t[j].tolist()
        )

    probes = np.repeat(np.arange(n), len(probe_as)), np.tile(probe_as, n)
    return probes, draw, cfg.samples, sides


def _spec_m(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    levels = [(lo, hi)]
    if lo <= 0.0 and hi >= 1.0:
        levels.append((0.0, 1.0))
    if lo <= 1.0 and hi >= 3.0:
        levels.append((1.0, 3.0))
    below, above = (np.repeat(col[:, None], n, axis=1) for col in np.array(levels).T)

    def draw(k):
        x = stream.take(k, (0,) * (2 * n))
        t = _scaled(x[:, :n], lo, hi)
        return t, t + x[:, n:] * (hi - t)

    def sides(t, u):
        f_t, f_u = _at(ext, t, u)
        return f_u, np.maximum(f_t, f_u), np.abs(f_u), _finite(f_t, f_u), lambda j: dict(
            t=t[j].tolist(), t_above=u[j].tolist()
        )

    return (below, above), draw, cfg.samples, sides


def _spec_m1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    pairs = [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (lo, hi)]
    pairs = [(a, b) for a, b in pairs if lo <= a <= b <= hi]

    def draw(k):
        x = stream.take(k, (0, 0, n))
        a, b = np.sort(_scaled(x[:, :2], lo, hi), axis=1).T
        return x[:, 2].astype(np.int64), a, b

    def sides(i, a, b):
        f_a, f_b = _at(ext, _units(i, a, n), _units(i, b, n))
        return f_b, np.maximum(f_a, f_b), np.abs(f_b), _finite(f_a, f_b), lambda j: dict(
            criterion=int(i[j]) + 1, value=float(a[j]), value_above=float(b[j])
        )

    a, b = np.tile(np.reshape(pairs, (-1, 2)), (n, 1)).T
    return (np.repeat(np.arange(n), len(pairs)), a, b), draw, cfg.samples, sides


def _spec_i(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n

    def draw(k):
        return (np.exp(_scaled(stream.take(k, (0,))[:, 0], *logs)),)

    def sides(alpha):
        got = ext._values(np.repeat(alpha[:, None], n, axis=1))
        return alpha, got, np.abs(alpha), _finite(got), lambda j: dict(
            alpha=float(alpha[j]), t=[float(alpha[j])] * n
        )

    return (np.array(_alpha_sweep(alo, ahi)),), draw, cfg.samples, sides


def _spec_a1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n
    if lo < 0.0:
        quads = [(1.0, -1.0, 1.0, 0.0), (2.0, -1.0, 1.0, 0.0), (1.0, -2.0, 2.0, 1.0)]
    else:
        quads = [(1.0, 0.25, 0.75, 0.0), (0.9, 0.1, 0.5, 0.0)]
    quads = np.reshape([q for q in quads if all(lo <= x <= hi for x in q)], (-1, 4))

    def draw(k):
        x = stream.take(k, (0, 0, 0, 0, n, 0))
        return x[:, 4].astype(np.int64), np.exp(_scaled(x[:, 5], *logs)), _scaled(x[:, :4], lo, hi)

    def sides(i, alpha, q):
        t = _units(np.repeat(i, 4), (alpha[:, None] * q).ravel(), n)
        f = ext._values(t).reshape(-1, 4)
        expected, got, valid = _ratio(f, q, cfg.tol)
        return expected, got, np.abs(expected), valid, lambda j: dict(
            criterion=int(i[j]) + 1,
            alpha=float(alpha[j]),
            points=q[j].tolist(),
            f_values=f[j].tolist(),
        )

    alphas = _alpha_probes(alo, ahi)
    per_i = len(alphas) * len(quads)
    probes = (
        np.repeat(np.arange(n), per_i),
        np.tile(np.repeat(alphas, len(quads)), n),
        np.tile(quads, (n * len(alphas), 1)),
    )
    return probes, draw, cfg.samples, sides


def _spec_a2(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n
    size = 1 << n
    full = size - 1
    quads = [(full, 0, 1, 0), (3, 0, 1, 0), (full, 1, 2, 0), (3, 1, 2, 0), (5, 2, 3, 4)]
    # Only the quadruples whose subsets exist for this n.
    quads = np.array([q for q in quads if max(q) < size])

    def draw(k):
        x = stream.take(k, (size,) * 4 + (0,))
        return np.exp(_scaled(x[:, 4], *logs)), x[:, :4].astype(np.int64)

    def sides(alpha, q):
        t = alpha[:, None, None] * _indicators(q, n)
        f = ext._values(t.reshape(-1, n)).reshape(-1, 4)
        expected, got, valid = _ratio(f, mu.values[q], cfg.tol)
        return expected, got, np.abs(expected), valid, lambda j: dict(
            alpha=float(alpha[j]),
            subsets=[subsets.subset_key(int(m)) for m in q[j]],
            f_values=f[j].tolist(),
        )

    alphas = _alpha_probes(alo, ahi)
    probes = np.repeat(alphas, len(quads)), np.tile(quads, (len(alphas), 1))
    return probes, draw, cfg.samples, sides


def _spec_c1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n
    unit = ext.domain == "unit" and not cfg.allow_out_of_domain

    def clamp_beta(alpha, beta):
        return np.minimum(np.maximum(beta, 0.0), np.maximum(0.0, 1.0 - alpha)) if unit else beta

    def draw(k):
        x = stream.take(k, (0,) * (n + 2))
        alpha = np.exp(_scaled(x[:, n], *logs))
        return _scaled(x[:, :n], lo, hi), alpha, clamp_beta(alpha, _scaled(x[:, n + 1], lo, hi))

    def sides(t, alpha, beta):
        f_t, got = _at(ext, t, alpha[:, None] * t + beta[:, None])
        expected = alpha * f_t + beta
        # Both sides carry the roundoff of the shifted scores, which can
        # dwarf a value that cancels to near 0.
        scale = np.maximum(np.abs(expected), alpha * np.abs(t).max(axis=1) + np.abs(beta))
        return expected, got, scale, _finite(f_t, got), lambda j: dict(
            t=t[j].tolist(), alpha=float(alpha[j]), beta=float(beta[j])
        )

    alphas = _alpha_probes(alo, ahi)
    betas = [beta for beta in (-3.0, 0.0, 0.1) if unit or lo <= beta <= hi]
    alpha = np.repeat(alphas, len(betas))
    base_t = np.linspace(lo, hi, n + 2)[1:-1]
    probes = np.tile(base_t, (alpha.size, 1)), alpha, clamp_beta(alpha, np.tile(betas, len(alphas)))
    return probes, draw, cfg.samples, sides


def _spec_s1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig, stream: _Stream):
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    logs = np.log(alo), np.log(ahi)
    n = mu.n
    signed = lo < 0.0

    def draw(k):
        # A signed check flips alpha's sign on one more draw, integers(2).
        x = stream.take(k, (0,) * (n + 1) + (2,) * signed)
        alpha = np.exp(_scaled(x[:, n], *logs))
        if signed:
            alpha = np.where(x[:, n + 1] == 1, -alpha, alpha)
        return _scaled(x[:, :n], lo, hi), alpha

    def sides(t, alpha):
        f_t, got = _at(ext, t, alpha[:, None] * t)
        expected = alpha * f_t
        return expected, got, np.abs(expected), _finite(f_t, got), lambda j: dict(
            t=t[j].tolist(), alpha=float(alpha[j])
        )

    unit_alphas = (-1.0, -2.5, 0.5) if signed else (0.5,)
    base_alphas = [a for a in (-1.0, -0.5, 0.0, 0.5) if signed or a >= 0.0]
    units = _units(np.arange(n), np.full(n, min(1.0, hi)), n)
    base_t = np.linspace(lo, hi, n + 2)[1:-1]
    t = np.concatenate(
        [np.repeat(units, len(unit_alphas), axis=0), np.tile(base_t, (len(base_alphas), 1))]
    )
    probes = t, np.concatenate([np.tile(unit_alphas, n), base_alphas])
    return probes, draw, cfg.samples, sides


_SPECS = {
    "HE": _spec_he,
    "A": _spec_a,
    "M": _spec_m,
    "M1": _spec_m1,
    "I": _spec_i,
    "A1": _spec_a1,
    "A2": _spec_a2,
    "C1": _spec_c1,
    "S1": _spec_s1,
}

AXIOM_NAMES = tuple(_SPECS)

_FIRST_BLOCK = 32
_MAX_BLOCK = 1024


def _blocks(probes: tuple, draw, count: int):
    """The trial columns: the probes, then ``count`` random trials from ``draw``, in
    a block of ``_FIRST_BLOCK`` trials, then blocks of ``_MAX_BLOCK``. A failing trial
    among the first costs one short block; a later one, at most one long block past it."""
    p = len(probes[0])
    ends = [*range(min(_FIRST_BLOCK, p + count), p + count, _MAX_BLOCK), p + count]
    for start, end in zip([0] + ends, ends):
        block = tuple(col[start:end] for col in probes)
        if end > p:
            drawn = draw(end - max(start, p))
            block = drawn if start >= p else tuple(map(np.concatenate, zip(block, drawn)))
        yield block


def _config(cfg) -> AxiomCheckConfig:
    if cfg is None:
        return AxiomCheckConfig()
    if not isinstance(cfg, AxiomCheckConfig):
        raise InvalidFormat("expected AxiomCheckConfig, got %r" % type(cfg).__name__)
    return cfg


def check_axiom(
    axiom: str,
    extension: Extension,
    mu: Capacity,
    cfg: AxiomCheckConfig | None = None,
) -> AxiomReport:
    """Sample one axiom on an extension built from ``mu``.

    The probes run first, then random trials from ``cfg.seed``, evaluated in
    blocks with one call of the extension's row kernel each. A block's random
    trials are drawn together when it is reached, and each gets the values that
    drawing the trials one at a time in the same order gives. The row kernel
    equals the one-vector call bit for bit, so the report is the one of a
    trial-by-trial scan: the first failing trial is the counterexample, and a
    trial is skipped where a point has no finite value, a ratio (A1, A2) is
    degenerate, or a failing side is not finite.

    The extension and the capacity must belong together (the HE and A2
    expected sides read mu directly). Raises :class:`UnknownAxiom` for bad
    names, :class:`InvalidFormat` when ``extension``, ``mu`` or ``cfg`` is not
    an :class:`Extension`, a value table or an :class:`AxiomCheckConfig`, and
    :class:`DomainMismatch` when the config would sample outside the
    extension's domain without ``allow_out_of_domain``; all of them before
    the first row-kernel call.
    """
    if not isinstance(axiom, str) or axiom not in _SPECS:
        raise UnknownAxiom("unknown axiom %s, expected one of %s"
                           % (subsets._shown(axiom), ", ".join(AXIOM_NAMES)))
    if not isinstance(extension, Extension):
        raise InvalidFormat("expected Extension, got %r" % type(extension).__name__)
    _values(mu)  # refuses what is not a value table
    if extension.n != mu.n:
        raise CapacitiesError(
            "extension is over %d criteria but capacity has %d" % (extension.n, mu.n)
        )
    cfg = _config(cfg)
    with np.errstate(all="ignore"):
        stream = _Stream(np.random.default_rng(cfg.seed))
        probes, draw, random_trials, sides = _SPECS[axiom](extension, mu, cfg, stream)
        tested = 0
        skipped = 0
        for block in _blocks(probes, draw, random_trials):
            expected, got, scale, valid, inputs = sides(*block)
            ok = valid & (np.abs(got - expected) <= cfg.tol * np.maximum(1.0, scale))
            failed = np.flatnonzero(valid & ~ok & _finite(expected, got))
            hit = failed.size > 0
            end = int(failed[0]) + 1 if hit else len(block[0])
            counted = int(np.count_nonzero(ok[:end])) + hit
            tested += counted
            skipped += end - counted
            if hit:
                j = failed[0]
                counterexample = Counterexample(inputs(j), float(expected[j]), float(got[j]))
                return AxiomReport(axiom, extension.name, False, tested, skipped, counterexample)
    return AxiomReport(axiom, extension.name, True, tested, skipped, None)


@dataclass(frozen=True)
class EquivalenceReport:
    """Joint verdict of the two equivalent axiom bundles.

    For monotone extensions, {A1, A2, I} and {HE, A} characterize the same
    class, so a sound harness should find both bundles passing or both
    failing; ``consistent`` records that agreement. The monotonicity
    report is included as context.
    """

    ratio_bundle: dict
    homogeneity_bundle: dict
    monotone: AxiomReport
    ratio_passed: bool
    homogeneity_passed: bool
    consistent: bool

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "ratio_bundle": {k: r.to_dict() for k, r in self.ratio_bundle.items()},
            "homogeneity_bundle": {k: r.to_dict() for k, r in self.homogeneity_bundle.items()},
            "monotone": self.monotone.to_dict(),
        }


def check_equivalence(
    extension: Extension, mu: Capacity, cfg: AxiomCheckConfig | None = None
) -> EquivalenceReport:
    """Check {A1, A2, I} against {HE, A} on identical sampling configs, with one
    :func:`check_axiom` per axiom in the order A1, A2, I, HE, A, M; errors as
    there, so an axiom may run before a later one raises."""
    a1, a2, i, he, a, mono = (check_axiom(x, extension, mu, cfg)
                              for x in ("A1", "A2", "I", "HE", "A", "M"))
    ratio = {"A1": a1, "A2": a2, "I": i}
    homog = {"HE": he, "A": a}
    left = all(r.passed for r in ratio.values())
    right = all(r.passed for r in homog.values())
    return EquivalenceReport(
        ratio_bundle=ratio,
        homogeneity_bundle=homog,
        monotone=mono,
        ratio_passed=left,
        homogeneity_passed=right,
        consistent=left == right,
    )


@dataclass(frozen=True)
class PseudoProductReport:
    """Which pseudo-product conditions hold on the sampled grid.

    When every condition holds (commutative, associative, nondecreasing,
    the boundary identities, idempotence on the diagonal, and 1 acting as
    neutral element) the operator can only be the minimum; ``acts_as_min``
    confirms that against the grid.
    """

    name: str
    conditions: dict
    witnesses: dict
    acts_as_min: bool
    max_min_gap: float

    def to_dict(self) -> dict:
        return {**vars(self), "conditions": dict(self.conditions),
                "witnesses": dict(self.witnesses)}


@_quiet
def check_pseudo_product(op, cfg: AxiomCheckConfig | None = None) -> PseudoProductReport:
    """Sample the pseudo-product conditions for an operator on [0, 1]."""
    cfg = _config(cfg)
    pp = op if isinstance(op, PseudoProduct) else PseudoProduct(op)
    xs, table = _grid_table(pp.op)
    cert = _certificate(pp.op, xs, table, cfg.tol)
    tol = cfg.tol

    drop = max(float((table[:, :-1] - table[:, 1:]).max(initial=0.0)),
               float((table[:-1, :] - table[1:, :]).max(initial=0.0)))
    zero_gap = max(float(np.abs(table[:, 0]).max()), float(np.abs(table[0, :]).max()))
    diag_gap = np.abs(np.diag(table) - xs)
    neutral_gap = np.maximum(np.abs(table[-1, :] - xs), np.abs(table[:, -1] - xs))
    # witness alphas: where the zero column, the diagonal and the neutral gaps are worst
    z, d, e = map(np.argmax, (np.abs(table[:, 0]), diag_gap, neutral_gap))
    # condition -> (gap, witness): it holds when gap <= tol, else the witness is reported
    gaps = {
        "commutative": (cert.max_commutativity_gap, {"max_gap": cert.max_commutativity_gap}),
        "associative": (cert.max_associativity_gap, {"max_gap": cert.max_associativity_gap}),
        "nondecreasing": (drop, {"max_drop": drop}),
        "zero_zero": (abs(table[0, 0]), {"value": float(table[0, 0])}),
        "one_one": (abs(table[-1, -1] - 1.0), {"value": float(table[-1, -1])}),
        "alpha_zero": (zero_gap, {"alpha": float(xs[z]), "max_gap": zero_gap}),
        "idempotent": (diag_gap.max(), {"alpha": float(xs[d]), "value": float(table[d, d])}),
        "one_neutral": (neutral_gap.max(), {"alpha": float(xs[e]), "value": float(table[-1, e])}),
    }
    conditions = {name: bool(gap <= tol) for name, (gap, _) in gaps.items()}
    witnesses = {name: w for name, (_, w) in gaps.items() if not conditions[name]}
    min_gap = float(np.abs(table - np.minimum.outer(xs, xs)).max())
    acts_as_min = all(conditions.values()) and min_gap <= tol
    return PseudoProductReport(
        name=pp.name,
        conditions=conditions,
        witnesses=witnesses,
        acts_as_min=acts_as_min,
        max_min_gap=min_gap,
    )


@dataclass(frozen=True, eq=False)
class ExtensionComparison:
    """Side-by-side values of the one-capacity extensions on a score grid.

    ``table`` has one row per point and one column per operator;
    ``verdicts`` gives each operator's pass/fail on the comparison axioms,
    sampled over the reals (out-of-domain sampling is enabled on purpose,
    since that is where the extensions separate).
    """

    n: int
    operators: tuple
    points: tuple
    table: np.ndarray
    verdicts: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "operators": list(self.operators),
            "points": [list(p) for p in self.points],
            "table": [[float(x) for x in row] for row in self.table],
            "verdicts": {op: dict(v) for op, v in self.verdicts.items()},
        }


def compare_extensions(
    mu: Capacity, points, cfg: AxiomCheckConfig | None = None
) -> ExtensionComparison:
    """Evaluate every one-capacity extension on the given score vectors.

    ``points`` is an iterable of length-n vectors of numbers; any other
    point raises :class:`InvalidFormat`, naming its index, as does a
    ``points`` that is not iterable or a ``cfg`` that is not an
    :class:`AxiomCheckConfig`. Axiom verdicts
    cover A1, A2, I, and M for each operator under a shared config.
    """
    operators = tuple(name for name in EXTENSION_NAMES if name != "cpt")
    exts = [make_extension(name, mu) for name in operators]
    try:
        points = iter(points)
    except TypeError:
        raise InvalidFormat(
            "expected an iterable of score vectors, got %r" % type(points).__name__
        ) from None
    pts = []
    for k, p in enumerate(points):
        bad = "comparison point %d must be a vector of %d numbers" % (k, mu.n)
        row = subsets._reals(p, bad)
        if row.shape != (mu.n,):
            raise InvalidFormat(bad)
        pts.append(tuple(row.tolist()))
    cfg = _config(cfg)
    table = np.column_stack([ext._values(np.array(pts).reshape(-1, mu.n)) for ext in exts])
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        # The first non-finite cell, row by row: its one-vector call raises OutOfDomain.
        exts[bad[0, 1]](np.array(pts[bad[0, 0]]))
    vcfg = replace(cfg, allow_out_of_domain=True)
    verdicts = {
        ext.name: {a: check_axiom(a, ext, mu, vcfg).passed for a in COMPARISON_AXIOMS}
        for ext in exts
    }
    return ExtensionComparison(
        n=mu.n,
        operators=operators,
        points=tuple(pts),
        table=table,
        verdicts=verdicts,
    )
