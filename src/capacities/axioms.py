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
(which are O(1) at least) clearly visible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import subsets
from .errors import CapacitiesError, DomainMismatch, OutOfDomain, UnknownAxiom
from .integrals import EXTENSION_NAMES, Extension, PseudoProduct, make_extension
from .integrals import _GRID_POINTS, _certificate, _grid_table
from .set_function import DEFAULT_TOL, Capacity

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

AXIOM_NAMES = ("HE", "A", "M", "M1", "I", "A1", "A2", "C1", "S1")

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
        if self.samples < 1:
            raise CapacitiesError("samples must be >= 1, got %r" % (self.samples,))
        if self.tol <= 0.0:
            raise CapacitiesError("tol must be positive, got %r" % (self.tol,))
        lo, hi = self.score_bounds
        if not 0.0 < hi - lo < np.inf:
            raise CapacitiesError("score_bounds must span a finite increasing range, got %r" % ((lo, hi),))
        alo, ahi = self.alpha_bounds
        if not 0.0 < alo <= ahi:
            raise CapacitiesError(
                "alpha_bounds must be positive and increasing, got %r" % (self.alpha_bounds,)
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
        return {
            "inputs": self.inputs,
            "expected": self.expected,
            "got": self.got,
            "discrepancy": self.discrepancy,
        }


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    extension: str
    passed: bool
    samples_tested: int
    skipped: int
    counterexample: Counterexample | None

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "extension": self.extension,
            "passed": self.passed,
            "samples_tested": self.samples_tested,
            "skipped": self.skipped,
            "counterexample": None
            if self.counterexample is None
            else self.counterexample.to_dict(),
        }


_SKIP = object()


def _close(got: float, expected: float, tol: float) -> bool:
    return abs(got - expected) <= tol * max(1.0, abs(expected))


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


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _indicator(mask: int, n: int) -> np.ndarray:
    t = np.zeros(n)
    for i in range(n):
        if mask >> i & 1:
            t[i] = 1.0
    return t


def _scan(probes, sampler, evaluate, cfg, random_trials=None):
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples if random_trials is None else random_trials
    tested = 0
    skipped = 0
    trials = itertools.chain(probes, (sampler(rng) for _ in range(count)))
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in trials:
            try:
                res = evaluate(trial)
            except OutOfDomain:
                res = _SKIP
            if res is _SKIP or (res is not None and not np.isfinite([res.expected, res.got]).all()):
                skipped += 1
                continue
            tested += 1
            if res is not None:
                return False, tested, skipped, res
    return True, tested, skipped, None


def _report(axiom, ext, scan_result) -> AxiomReport:
    passed, tested, skipped, ce = scan_result
    return AxiomReport(
        axiom=axiom,
        extension=ext.name,
        passed=passed,
        samples_tested=tested,
        skipped=skipped,
        counterexample=ce,
    )


def _check_he(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    size = 1 << n
    alphas = [0.0] + _alpha_probes(alo, ahi) + [float(a) for a in np.geomspace(alo, ahi, 21)]
    if size <= 1024:
        probes = [(a, mask) for a in alphas for mask in range(1, size)]
        random_trials = 0
    else:
        probes = [(a, mask) for a in alphas for mask in (1, size - 1)]
        random_trials = cfg.samples

    def sampler(rng):
        return _log_uniform(rng, alo, ahi), int(rng.integers(1, size))

    def evaluate(trial):
        alpha, mask = trial
        t = alpha * _indicator(mask, n)
        expected = alpha * float(mu.values[mask])
        got = ext(t)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={"alpha": alpha, "subset": subsets.subset_key(mask), "t": t.tolist()},
            expected=expected,
            got=got,
        )

    return _report("HE", ext, _scan(probes, sampler, evaluate, cfg, random_trials))


def _check_a(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    unit_values = [ext(_indicator(1 << i, n)) for i in range(n)]
    probe_as = [a for a in (-1.0, -0.5, 0.5, 2.0, lo, hi) if lo <= a <= hi]
    probes = [(i, a) for i in range(n) for a in probe_as]

    def sampler(rng):
        return int(rng.integers(n)), float(rng.uniform(lo, hi))

    def evaluate(trial):
        i, a = trial
        t = np.zeros(n)
        t[i] = a
        expected = a * unit_values[i]
        got = ext(t)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={"criterion": i + 1, "value": a, "t": t.tolist()},
            expected=expected,
            got=got,
        )

    return _report("A", ext, _scan(probes, sampler, evaluate, cfg))


def _check_m(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    probes = [(np.full(n, lo), np.full(n, hi))]
    if lo <= 0.0 and hi >= 1.0:
        probes.append((np.zeros(n), np.ones(n)))
    if lo <= 1.0 and hi >= 3.0:
        probes.append((np.ones(n), np.full(n, 3.0)))

    def sampler(rng):
        t = rng.uniform(lo, hi, n)
        u = t + rng.uniform(0.0, 1.0, n) * (hi - t)
        return t, u

    def evaluate(trial):
        t, u = trial
        below = ext(t)
        above = ext(u)
        if below - above <= cfg.tol * max(1.0, abs(above)):
            return None
        return Counterexample(
            inputs={"t": list(map(float, t)), "t_above": list(map(float, u))},
            expected=above,
            got=below,
        )

    return _report("M", ext, _scan(probes, sampler, evaluate, cfg))


def _check_m1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    n = mu.n
    pair_cands = [(-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0), (lo, hi)]
    probes = [
        (i, a, b) for i in range(n) for a, b in pair_cands if lo <= a <= b <= hi
    ]

    def sampler(rng):
        a, b = np.sort(rng.uniform(lo, hi, 2))
        return int(rng.integers(n)), float(a), float(b)

    def evaluate(trial):
        i, a, b = trial
        ta = np.zeros(n)
        tb = np.zeros(n)
        ta[i] = a
        tb[i] = b
        below = ext(ta)
        above = ext(tb)
        if below - above <= cfg.tol * max(1.0, abs(above)):
            return None
        return Counterexample(
            inputs={"criterion": i + 1, "value": a, "value_above": b},
            expected=above,
            got=below,
        )

    return _report("M1", ext, _scan(probes, sampler, evaluate, cfg))


def _check_i(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    probes = [0.0] + _alpha_probes(alo, ahi) + [float(a) for a in np.geomspace(alo, ahi, 21)]

    def sampler(rng):
        return _log_uniform(rng, alo, ahi)

    def evaluate(alpha):
        got = ext(np.full(n, alpha))
        if _close(got, alpha, cfg.tol):
            return None
        return Counterexample(
            inputs={"alpha": alpha, "t": [alpha] * n}, expected=alpha, got=got
        )

    return _report("I", ext, _scan(probes, sampler, evaluate, cfg))


def _check_a1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    if lo < 0.0:
        quads = [(1.0, -1.0, 1.0, 0.0), (2.0, -1.0, 1.0, 0.0), (1.0, -2.0, 2.0, 1.0)]
    else:
        quads = [(1.0, 0.25, 0.75, 0.0), (0.9, 0.1, 0.5, 0.0)]
    quads = [q for q in quads if all(lo <= x <= hi for x in q)]
    probes = [
        (i, alpha, q)
        for i in range(n)
        for alpha in _alpha_probes(alo, ahi)
        for q in quads
    ]

    def sampler(rng):
        q = tuple(float(x) for x in rng.uniform(lo, hi, 4))
        return int(rng.integers(n)), _log_uniform(rng, alo, ahi), q

    def single(i, x):
        t = np.zeros(n)
        t[i] = x
        return ext(t)

    def evaluate(trial):
        i, alpha, (a, b, c, d) = trial
        if abs(c - d) <= cfg.tol:
            return _SKIP
        fc = single(i, alpha * c)
        fd = single(i, alpha * d)
        if abs(fc - fd) <= cfg.tol:
            return _SKIP
        fa = single(i, alpha * a)
        fb = single(i, alpha * b)
        got = (fa - fb) / (fc - fd)
        expected = (a - b) / (c - d)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={
                "criterion": i + 1,
                "alpha": alpha,
                "points": [a, b, c, d],
                "f_values": [fa, fb, fc, fd],
            },
            expected=expected,
            got=got,
        )

    return _report("A1", ext, _scan(probes, sampler, evaluate, cfg))


def _check_a2(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    size = 1 << n
    full = size - 1
    quad_cands = [(full, 0, 1, 0)]
    if n >= 2:
        quad_cands += [(3, 0, 1, 0), (full, 1, 2, 0), (3, 1, 2, 0)]
    if n >= 3:
        quad_cands.append((5, 2, 3, 4))
    probes = [
        (alpha, q) for alpha in _alpha_probes(alo, ahi) for q in quad_cands
    ]

    def sampler(rng):
        masks = tuple(int(x) for x in rng.integers(0, size, 4))
        return _log_uniform(rng, alo, ahi), masks

    def binary(alpha, mask):
        return ext(alpha * _indicator(mask, n))

    def evaluate(trial):
        alpha, (qa, qb, qc, qd) = trial
        vc = float(mu.values[qc])
        vd = float(mu.values[qd])
        if abs(vc - vd) <= cfg.tol:
            return _SKIP
        fc = binary(alpha, qc)
        fd = binary(alpha, qd)
        if abs(fc - fd) <= cfg.tol:
            return _SKIP
        fa = binary(alpha, qa)
        fb = binary(alpha, qb)
        got = (fa - fb) / (fc - fd)
        expected = (float(mu.values[qa]) - float(mu.values[qb])) / (vc - vd)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={
                "alpha": alpha,
                "subsets": [subsets.subset_key(q) for q in (qa, qb, qc, qd)],
                "f_values": [fa, fb, fc, fd],
            },
            expected=expected,
            got=got,
        )

    return _report("A2", ext, _scan(probes, sampler, evaluate, cfg))


def _check_c1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    unit = ext.domain == "unit" and not cfg.allow_out_of_domain

    def clamp_beta(alpha, beta):
        if not unit:
            return beta
        return min(max(beta, 0.0), max(0.0, 1.0 - alpha))

    base_t = np.linspace(lo, hi, n + 2)[1:-1]
    probes = []
    for alpha in _alpha_probes(alo, ahi):
        for beta in (-3.0, 0.0, 0.1):
            b = clamp_beta(alpha, beta)
            if not unit and not lo <= b <= hi:
                continue
            if unit and alpha > 1.0:
                continue
            probes.append((base_t.copy(), alpha, b))

    def sampler(rng):
        t = rng.uniform(lo, hi, n)
        alpha = _log_uniform(rng, alo, ahi)
        beta = clamp_beta(alpha, float(rng.uniform(lo, hi)))
        return t, alpha, beta

    def evaluate(trial):
        t, alpha, beta = trial
        expected = alpha * ext(t) + beta
        got = ext(alpha * t + beta)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={"t": list(map(float, t)), "alpha": alpha, "beta": beta},
            expected=expected,
            got=got,
        )

    return _report("C1", ext, _scan(probes, sampler, evaluate, cfg))


def _check_s1(ext: Extension, mu: Capacity, cfg: AxiomCheckConfig) -> AxiomReport:
    lo, hi = _score_range(ext, cfg)
    alo, ahi = _alpha_range(ext, cfg)
    n = mu.n
    signed = lo < 0.0
    probes = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = min(1.0, hi)
        if signed:
            probes.append((e, -1.0))
            probes.append((e, -2.5))
        probes.append((e, 0.5))
    base_t = np.linspace(lo, hi, n + 2)[1:-1]
    for alpha in (-1.0, -0.5, 0.0, 0.5):
        if alpha < 0.0 and not signed:
            continue
        probes.append((base_t.copy(), alpha))

    def sampler(rng):
        t = rng.uniform(lo, hi, n)
        alpha = _log_uniform(rng, alo, ahi)
        if alpha > 1.0 and ext.domain == "unit" and not cfg.allow_out_of_domain:
            alpha = 1.0 / alpha
        if signed and rng.integers(2):
            alpha = -alpha
        return t, alpha

    def evaluate(trial):
        t, alpha = trial
        expected = alpha * ext(t)
        got = ext(alpha * t)
        if _close(got, expected, cfg.tol):
            return None
        return Counterexample(
            inputs={"t": list(map(float, t)), "alpha": alpha},
            expected=expected,
            got=got,
        )

    return _report("S1", ext, _scan(probes, sampler, evaluate, cfg))


_CHECKERS = {
    "HE": _check_he,
    "A": _check_a,
    "M": _check_m,
    "M1": _check_m1,
    "I": _check_i,
    "A1": _check_a1,
    "A2": _check_a2,
    "C1": _check_c1,
    "S1": _check_s1,
}


def check_axiom(
    axiom: str,
    extension: Extension,
    mu: Capacity,
    cfg: AxiomCheckConfig | None = None,
) -> AxiomReport:
    """Sample one axiom on an extension built from ``mu``.

    The extension and the capacity must belong together (the HE and A2
    expected sides read mu directly). Raises :class:`UnknownAxiom` for bad
    names and :class:`DomainMismatch` when the config would sample outside
    the extension's domain without ``allow_out_of_domain``.
    """
    if axiom not in _CHECKERS:
        raise UnknownAxiom(
            "unknown axiom %r, expected one of %s" % (axiom, ", ".join(AXIOM_NAMES))
        )
    if extension.n != mu.n:
        raise CapacitiesError(
            "extension is over %d criteria but capacity has %d" % (extension.n, mu.n)
        )
    if cfg is None:
        cfg = AxiomCheckConfig()
    return _CHECKERS[axiom](extension, mu, cfg)


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
            "ratio_bundle": {k: r.to_dict() for k, r in self.ratio_bundle.items()},
            "homogeneity_bundle": {
                k: r.to_dict() for k, r in self.homogeneity_bundle.items()
            },
            "monotone": self.monotone.to_dict(),
            "ratio_passed": self.ratio_passed,
            "homogeneity_passed": self.homogeneity_passed,
            "consistent": self.consistent,
        }


def check_equivalence(
    extension: Extension, mu: Capacity, cfg: AxiomCheckConfig | None = None
) -> EquivalenceReport:
    """Check {A1, A2, I} against {HE, A} on identical sampling configs."""
    ratio = {ax: check_axiom(ax, extension, mu, cfg) for ax in ("A1", "A2", "I")}
    homog = {ax: check_axiom(ax, extension, mu, cfg) for ax in ("HE", "A")}
    mono = check_axiom("M", extension, mu, cfg)
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
        return {
            "name": self.name,
            "conditions": dict(self.conditions),
            "witnesses": dict(self.witnesses),
            "acts_as_min": self.acts_as_min,
            "max_min_gap": self.max_min_gap,
        }


def check_pseudo_product(op, cfg: AxiomCheckConfig | None = None) -> PseudoProductReport:
    """Sample the pseudo-product conditions for an operator on [0, 1]."""
    if cfg is None:
        cfg = AxiomCheckConfig()
    pp = op if isinstance(op, PseudoProduct) else PseudoProduct(op)
    cert = pp.certificate
    recertify = cert is None or cert.tol != cfg.tol
    xs, table = _grid_table(pp.op, _GRID_POINTS if recertify else cert.grid_points)
    if recertify:
        cert = _certificate(pp.op, xs, table, cfg.tol)
    tol = cfg.tol

    conditions = {}
    witnesses = {}

    def record(name, ok, witness):
        conditions[name] = bool(ok)
        if not ok:
            witnesses[name] = witness

    record(
        "commutative",
        cert.commutative,
        {"max_gap": cert.max_commutativity_gap},
    )
    record(
        "associative",
        cert.associative,
        {"max_gap": cert.max_associativity_gap},
    )

    row_drops = table[:, :-1] - table[:, 1:]
    col_drops = table[:-1, :] - table[1:, :]
    worst = max(float(row_drops.max(initial=0.0)), float(col_drops.max(initial=0.0)))
    record("nondecreasing", worst <= tol, {"max_drop": worst})

    record("zero_zero", abs(table[0, 0]) <= tol, {"value": float(table[0, 0])})
    record(
        "one_one", abs(table[-1, -1] - 1.0) <= tol, {"value": float(table[-1, -1])}
    )

    zero_gap = max(float(np.abs(table[:, 0]).max()), float(np.abs(table[0, :]).max()))
    k = int(np.argmax(np.abs(table[:, 0])))
    record("alpha_zero", zero_gap <= tol, {"alpha": float(xs[k]), "max_gap": zero_gap})

    diag_gap = np.abs(np.diag(table) - xs)
    k = int(np.argmax(diag_gap))
    record(
        "idempotent",
        float(diag_gap.max()) <= tol,
        {"alpha": float(xs[k]), "value": float(table[k, k])},
    )

    neutral_gap = np.maximum(np.abs(table[-1, :] - xs), np.abs(table[:, -1] - xs))
    k = int(np.argmax(neutral_gap))
    record(
        "one_neutral",
        float(neutral_gap.max()) <= tol,
        {"alpha": float(xs[k]), "value": float(table[-1, k])},
    )

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

    ``points`` is an iterable of length-n vectors. Axiom verdicts cover
    A1, A2, I, and M for each operator under a shared config.
    """
    operators = tuple(name for name in EXTENSION_NAMES if name != "cpt")
    exts = [make_extension(name, mu) for name in operators]
    pts = []
    for p in points:
        arr = np.asarray(p, dtype=np.float64)
        if arr.shape != (mu.n,):
            raise CapacitiesError(
                "comparison points must have length %d, got shape %s" % (mu.n, arr.shape)
            )
        pts.append(tuple(float(x) for x in arr))
    if cfg is None:
        cfg = AxiomCheckConfig()
    table = np.array([[ext(np.array(p)) for ext in exts] for p in pts]) if pts else np.zeros((0, len(exts)))
    vcfg = replace(cfg, allow_out_of_domain=True)
    verdicts = {
        ext.name: {ax: check_axiom(ax, ext, mu, vcfg).passed for ax in COMPARISON_AXIOMS}
        for ext in exts
    }
    return ExtensionComparison(
        n=mu.n,
        operators=operators,
        points=tuple(pts),
        table=table,
        verdicts=verdicts,
    )
