"""The four workloads: rank, verify, analyze and tables.

Each workload is a closed loop with one client: an op starts when the one
before it has returned, because every caller of a library or CLI call
waits for its result. Ops come in rounds; a round holds a fixed mix of op
kinds, so every complete round carries the same work whatever the seed.
The seed chooses the inputs and their order.

An op is a function of a :class:`clock.Stopwatch`. It times only the calls into
the package (``with sw:``), then checks their outputs against the oracles
and returns ``(work, problems)``: the work units it completed and a list of
mismatches, empty when every output is right. An expected named
``CapacitiesError`` on a deliberately invalid input is a correct outcome.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os

import numpy as np

import gen
import oracles

EXTENSIONS = ("choquet", "sipos", "mle", "smle", "sugeno_product", "cpt")
CLI_NAME = {e: ("sugeno-prod" if e == "sugeno_product" else e) for e in EXTENSIONS}


class Op:
    __slots__ = ("kind", "run")

    def __init__(self, kind: str, run):
        self.kind = kind
        self.run = run


class Workload:
    """Base class. ``setup`` is the program's own set-up, timed as setup_s in
    a fresh process; ``prepare`` makes benchmark-side inputs it does not need.
    ``round_s`` is the op time of one round at the reference speed, measured
    on the package as of the benchmark's first commit; it fixes how many
    rounds a run of a given length holds."""

    name = ""
    round_s = 1.0

    def __init__(self, C, seed: int, tracer, workdir: str, small: bool = False):
        self.C = C
        self.seed = seed
        self.T = tracer
        self.workdir = workdir
        self.small = small

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def round_ops(self, r: int) -> list:
        raise NotImplementedError


# -- shared checks ------------------------------------------------------------


def check_ranking(rows, acts_obj, scale, score_of, sample) -> list:
    """Compare a ranking (rows as in ``RankedAct.to_dict``) with the oracle.

    The order and indifference flags must equal the oracle ranking of the
    reported scores, exact duplicates must score exactly alike, labels must
    survive parsing, and the sampled acts must score as the naive evaluator
    says.
    """
    if len(rows) != len(acts_obj):
        return ["ranking has %d acts, expected %d" % (len(rows), len(acts_obj))]
    scores = [None] * len(rows)
    problems = []
    for pos, row in enumerate(rows, 1):
        if row["position"] != pos:
            problems.append("position %r at rank %d" % (row["position"], pos))
        k = row["index"]
        want_label = acts_obj[k].get("label", "") if isinstance(acts_obj[k], dict) else ""
        if row["label"] != want_label:
            problems.append("act %d lost its label" % k)
        scores[k] = row["score"]
    if any(s is None for s in scores):
        return problems + ["ranking is not a permutation of the acts"]
    got = [(row["index"], row["indifferent_to_previous"]) for row in rows]
    if got != oracles.ranking(scores):
        problems.append("order or indifference flags differ from the oracle ranking")
    first = {}
    for k, act in enumerate(acts_obj):
        key = json.dumps(act["entries"] if isinstance(act, dict) else act)
        j = first.setdefault(key, k)
        if scores[j] != scores[k]:
            problems.append("duplicate acts %d and %d score %r and %r" % (j, k, scores[j], scores[k]))
    for k in sample:
        want = score_of(gen.utilities(acts_obj[k], scale))
        if not oracles.close(scores[k], want):
            problems.append("act %d scores %r, oracle %r" % (k, scores[k], want))
    return problems


def _gap_problem(what: str, gap: float, tol: float) -> list:
    return [] if gap <= tol else ["%s off by %.3g" % (what, gap)]


def check_transforms(v, n, r, mu=None, m=None, z=None, cm=None, om=None, oz=None, cj=None, coalitions=8):
    """Check whichever transform outputs are given against the oracles.

    Whole-table identities (round trips, conjugate and its involution) are
    checked everywhere; the coalition formulas on ``coalitions`` sampled
    subsets of at most 10 members.
    """
    problems = []
    sample = [
        int(np.bitwise_or.reduce(1 << r.choice(n, int(r.integers(1, min(n, 10) + 1)), replace=False)))
        for _ in range(coalitions)
    ]
    if mu is not None:
        problems += _gap_problem("as_capacity values", oracles.max_gap(mu.values, v), 0.0)
    if m is not None:
        for a in sample:
            if not oracles.close(m.coefficients[a], oracles.mobius_at(v, a)):
                problems.append("mobius at %d" % a)
    if z is not None:
        problems += _gap_problem("zeta(mobius(v))", oracles.max_gap(z.values, v), oracles.TOL)
    if cm is not None:
        for a in sample:
            if not oracles.close(cm.coefficients[a], oracles.comobius_at(v, n, a)):
                problems.append("co_mobius at %d" % a)
    if om is not None:
        for a in sample:
            if om.coefficients[a] != oracles.ordinal_at(v, a):
                problems.append("ordinal_mobius at %d" % a)
    if oz is not None:
        problems += _gap_problem("ordinal_zeta(ordinal_mobius(v))", oracles.max_gap(oz.values, v), 0.0)
    if cj is not None:
        problems += _gap_problem("conjugate", oracles.max_gap(cj.values, oracles.conjugate(v)), 1e-15)
        problems += _gap_problem("conjugate involution", oracles.max_gap(oracles.conjugate(cj.values), v), 1e-12)
    return problems


# -- rank -----------------------------------------------------------------------


class Rank(Workload):
    """``rank_acts`` batches under one model per extension and size.

    Why: ``integrals`` and ``model`` do almost all the work and
    ``set_function`` appears only in set-up. Table-based extensions dominate
    at n = 16, sort-based ones and model overhead at small n.
    """

    name = "rank"
    round_s = 1.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (3, 4, 5) if self.small else (6, 10, 16)
        self.batch = 20 if self.small else 200
        self.inputs = []
        for j, n in enumerate(self.sizes):
            family = gen.VALID_FAMILIES[j % 3]
            loss_family = gen.VALID_FAMILIES[(j + 1) % 3]
            self.inputs.append(
                {
                    "n": n,
                    "values": gen.capacity(family, self.seed, 1, j, n=n),
                    "losses": gen.capacity(loss_family, self.seed, 2, j, n=n),
                    "scales": gen.scales(gen.rng(self.seed, 3, j), n),
                }
            )

    def prepare(self):
        for inp in self.inputs:
            inp["oracle"] = oracles.Reference(inp["values"], inp["n"], inp["losses"])

    def setup(self):
        C = self.C
        self.models = []
        for inp in self.inputs:
            n = inp["n"]
            mu = C.as_capacity(inp["values"], n=n, require_positive_singletons=True)
            losses = C.as_capacity(inp["losses"], n=n)
            scales = tuple(C.UtilityScale(int(k), lv) for k, lv in inp["scales"].items())
            for ext in EXTENSIONS:
                with self.T.span("model.AggregationModel", n=n, ext=ext):
                    model = C.AggregationModel(
                        capacity=mu,
                        extension=ext,
                        scales=scales,
                        capacity_losses=losses if ext == "cpt" else None,
                    )
                self.models.append((inp, ext, model))

    def round_ops(self, r):
        order = gen.rng(self.seed, 4, r).permutation(len(self.models))
        return [self._op(r, k, *self.models[j]) for k, j in enumerate(order)]

    def _op(self, r, k, inp, ext, model):
        C = self.C
        n = inp["n"]
        acts_obj = gen.acts(gen.rng(self.seed, 5, r, k), n, self.batch)
        pick = gen.rng(self.seed, 6, r, k)
        sample = pick.choice(len(acts_obj), min(len(acts_obj), 40 if n <= 10 else 4), replace=False)

        def run(sw):
            with sw:
                acts = C.acts_from_obj(acts_obj)
                ranking = C.rank_acts(model, acts)
            rows = [ra.to_dict() for ra in ranking]
            score_of = lambda u: inp["oracle"].extension(ext, u)  # noqa: E731
            return len(acts_obj), check_ranking(rows, acts_obj, inp["scales"], score_of, sample)

        return Op("rank_acts", run)


# -- verify -----------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_verify.json")
POOL_SEED = 8041921  # the verify pool is fixed so that the golden file covers it
POOL_SIZES = (4, 8)
POOL_VARIANTS = 3
AXIOM_SEEDS = (42, 7)
SAMPLES = "250"


def _lukasiewicz(a, b):
    return max(0.0, a + b - 1.0)


PSEUDO_PRODUCTS = {"min": min, "product": operator.mul, "lukasiewicz": _lukasiewicz}
_NOT_IDEMPOTENT = {
    "commutative": True,
    "associative": True,
    "nondecreasing": True,
    "zero_zero": True,
    "one_one": True,
    "alpha_zero": True,
    "idempotent": False,
    "one_neutral": True,
}
PSEUDO_PRODUCT_TRUTH = {
    "min": (dict(_NOT_IDEMPOTENT, idempotent=True), True),
    "product": (_NOT_IDEMPOTENT, False),
    "lukasiewicz": (_NOT_IDEMPOTENT, False),
}
PSEUDO_PRODUCT_ORACLE = {
    "min": oracles.choquet_mobius,
    "product": oracles.mle,
    "lukasiewicz": oracles.lukasiewicz_form,
}


def pool_values(n: int, v: int, losses: bool = False) -> np.ndarray:
    family = gen.VALID_FAMILIES[(v + losses) % 3]
    return gen.capacity(family, POOL_SEED, 10 + losses, n, v, n=n, positive=False)


def verify_key(n: int, ext: str, v: int, s: int) -> str:
    return "verify/%d/%s/%d/%d" % (n, ext, v, s)


def compare_key(v: int, s: int) -> str:
    return "compare/%d/%d" % (v, s)


def verify_argv(workdir: str, n: int, ext: str, v: int, s: int) -> list:
    argv = [
        "verify",
        "--capacity",
        os.path.join(workdir, "cap%d_%d.json" % (n, v)),
        "--integral",
        CLI_NAME[ext],
        "--axioms",
        "all",
        "--seed",
        str(s),
        "--samples",
        SAMPLES,
        "--format",
        "json",
    ]
    if ext == "cpt":
        argv += ["--capacity2", os.path.join(workdir, "loss%d_%d.json" % (n, v))]
    if ext in ("mle", "smle"):
        argv += ["--score-bounds=0:1", "--alpha-bounds=0.001:1"]
    return argv


def compare_argv(workdir: str, v: int, s: int, points_file: str) -> list:
    return [
        "compare",
        "--capacity",
        os.path.join(workdir, "cap4_%d.json" % v),
        "--scores-file",
        points_file,
        "--seed",
        str(s),
        "--samples",
        SAMPLES,
        "--format",
        "json",
    ]


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def write_pool(workdir: str, sizes=POOL_SIZES) -> None:
    for n in sizes:
        for v in range(POOL_VARIANTS):
            write_json(os.path.join(workdir, "cap%d_%d.json" % (n, v)), gen.table_dict(pool_values(n, v), n))
            write_json(os.path.join(workdir, "loss%d_%d.json" % (n, v)), gen.table_dict(pool_values(n, v, True), n))


def run_cli(C, tracer, sw, argv, span_name=None):
    """``capacities.cli.main(argv)`` in-process with stdout and stderr captured.

    The call is traced as ``cli.<subcommand>`` unless ``span_name`` is given.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with sw, tracer.span(span_name or "cli." + argv[0]) as span:
            try:
                rc = C.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    text = out.getvalue()
    if span is not None:
        span.attrs["bytes"] = len(text.encode())
    return rc, text, err.getvalue()


def rounded(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: rounded(x) for k, x in obj.items()}
    if isinstance(obj, list):
        return [rounded(x) for x in obj]
    return obj


def verify_record(payload: dict) -> list:
    """The golden-file view of a ``verify --format json`` payload."""
    return [
        [r["axiom"], r["passed"], r["samples_tested"], r["skipped"], rounded(r["counterexample"])]
        for r in payload["axioms"]
    ]


class Verify(Workload):
    """A researcher's CLI session, run in-process through ``capacities.cli.main``.

    Why: the per-trial Python loop in ``axioms`` dominates and calls
    ``integrals`` many times at small n; no large tables are involved. A
    batched harness shows here, per-call overhead added at small n shows as
    a regression here, and ``cli`` refactors show only here.
    """

    name = "verify"
    round_s = 2.4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (4,) if self.small else POOL_SIZES
        self.pp_n = 4 if self.small else 8
        self.pp_values = gen.capacity("distorted", self.seed, 20, n=self.pp_n)

    def prepare(self):
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)
        write_pool(self.workdir, self.sizes)
        self.pool = {
            (n, v): oracles.Reference(pool_values(n, v), n, pool_values(n, v, True))
            for n in self.sizes
            for v in range(POOL_VARIANTS)
        }
        self.pp_oracle = oracles.Reference(self.pp_values, self.pp_n)
        bad = gen.capacity("non_monotone", self.seed, 21, n=4)
        self.bad_file = write_json(os.path.join(self.workdir, "non_monotone.json"), gen.table_dict(bad, 4))

    def setup(self):
        C = self.C
        self.pp_mobius = C.mobius(C.as_capacity(self.pp_values, n=self.pp_n))
        self.pp = {name: C.certify(fn, name) for name, fn in PSEUDO_PRODUCTS.items()}

    def round_ops(self, r):
        """One verify call per extension and size, one compare, eleven small
        calls. Pool variants and axiom seeds rotate with the round, so a run
        covers the same configurations whatever the seed. With eleven small
        calls the median op falls in the middle of the cheapest verify calls
        (choquet and mle at n = 4), not on the gap above them."""
        rr = gen.rng(self.seed, 22, r)
        ops = []
        for k, (n, ext) in enumerate((n, ext) for n in self.sizes for ext in EXTENSIONS):
            ops.append(self._verify(n, ext, (r + k) % POOL_VARIANTS, AXIOM_SEEDS[(r + k) % 2]))
        names = list(PSEUDO_PRODUCTS)
        ops += [
            self._compare(r, r % POOL_VARIANTS, AXIOM_SEEDS[r % 2]),
            self._transform(r, 0),
            self._transform(r, 1),
            self._eval(r, 0),
            self._eval(r, 1),
            self._interaction(r, 0),
            self._interaction(r, 1),
            self._rank(r),
            self._invalid(),
            self._certify(names[r % 3]),
            self._check_pseudo_product(names[(r + 1) % 3]),
            self._pseudo_product_extension(r, names[(r + 2) % 3]),
        ]
        return [ops[int(j)] for j in rr.permutation(len(ops))]

    def _cli(self, sw, argv, span_name=None):
        return run_cli(self.C, self.T, sw, argv, span_name)

    def _verify(self, n, ext, v, s):
        argv = verify_argv(self.workdir, n, ext, v, s)
        want = self.golden[verify_key(n, ext, v, s)]

        def run(sw):
            rc, out, err = self._cli(sw, argv)
            if rc != 0:
                return 0, ["verify exit %r: %s" % (rc, err.strip())]
            payload = json.loads(out)
            trials = sum(r["samples_tested"] + r["skipped"] for r in payload["axioms"])
            got = verify_record(payload)
            if got != want:
                return trials, ["verify %s differs from the golden file" % verify_key(n, ext, v, s)]
            return trials, []

        return Op("cli.verify", run)

    def _compare(self, r, v, s):
        pts = gen.points(gen.rng(self.seed, 23, r), 4, 6)
        path = write_json(os.path.join(self.workdir, "points_%d.json" % r), pts)
        argv = compare_argv(self.workdir, v, s, path)
        oracle = self.pool[(4, v)]
        want = self.golden[compare_key(v, s)]

        def run(sw):
            rc, out, err = self._cli(sw, argv)
            if rc != 0:
                return 1, ["compare exit %r: %s" % (rc, err.strip())]
            payload = json.loads(out)
            problems = [] if payload["verdicts"] == want else ["compare verdicts differ from the golden file"]
            for p, row in zip(pts, payload["table"]):
                for op, value in zip(payload["operators"], row):
                    if not oracles.close(value, oracle.extension(op, p)):
                        problems.append("compare %s at %s: %r" % (op, p, value))
            return 1, problems

        return Op("cli.compare", run)

    def _transform(self, r, k):
        rr = gen.rng(self.seed, 24, r, k)
        operation = ("mobius", "zeta", "comobius", "ordinal", "conjugate")[int(rr.integers(5))]
        n = int(rr.integers(4, 7))
        if operation == "zeta":
            v = np.round(rr.normal(0.0, 0.5, 1 << n), 6)
            v[0] = 0.0
        else:
            v = gen.capacity(gen.VALID_FAMILIES[(r + k) % 3], self.seed, 25, r, k, n=n, positive=False)
        path = write_json(os.path.join(self.workdir, "transform_%d_%d.json" % (r, k)), gen.table_dict(v, n))
        if operation == "mobius":
            want = [oracles.mobius_at(v, a) for a in range(1 << n)]
        elif operation == "zeta":
            want = [float(v[oracles.submasks(a)].sum()) for a in range(1 << n)]
        elif operation == "comobius":
            want = [oracles.comobius_at(v, n, a) for a in range(1 << n)]
        elif operation == "ordinal":
            want = [oracles.ordinal_at(v, a) for a in range(1 << n)]
        else:
            want = oracles.conjugate(v)

        def run(sw):
            rc, out, err = self._cli(sw, ["transform", operation, "--input", path, "--format", "json"])
            if rc != 0:
                return 1, ["transform exit %r: %s" % (rc, err.strip())]
            got = json.loads(out)["values_by_mask"]
            return 1, [] if oracles.close(got, want) else ["transform %s differs from the oracle" % operation]

        return Op("cli.transform", run)

    def _eval(self, r, k):
        rr = gen.rng(self.seed, 26, r, k)
        n = self.sizes[int(rr.integers(len(self.sizes)))]
        v = int(rr.integers(POOL_VARIANTS))
        ext = EXTENSIONS[int(rr.integers(len(EXTENSIONS)))]
        t = np.round(rr.uniform(-2.0, 2.0, n), 4)
        argv = ["eval", "--integral", CLI_NAME[ext], "--capacity", os.path.join(self.workdir, "cap%d_%d.json" % (n, v))]
        if ext == "cpt":
            argv += ["--capacity2", os.path.join(self.workdir, "loss%d_%d.json" % (n, v))]
        argv.append("--scores=" + ",".join(repr(float(x)) for x in t))
        want = self.pool[(n, v)].extension(ext, t)

        def run(sw):
            rc, out, err = self._cli(sw, argv)
            if rc != 0:
                return 1, ["eval exit %r: %s" % (rc, err.strip())]
            got = float(out.strip())
            return 1, [] if oracles.close(got, want) else ["eval %s: %r, oracle %r" % (ext, got, want)]

        return Op("cli.eval", run)

    def _interaction(self, r, k):
        rr = gen.rng(self.seed, 27, r, k)
        n = self.sizes[int(rr.integers(len(self.sizes)))]
        v = int(rr.integers(POOL_VARIANTS))
        m = self.pool[(n, v)].m
        argv = ["interaction", "--capacity", os.path.join(self.workdir, "cap%d_%d.json" % (n, v)), "--format", "json"]
        coalition = None
        if k:
            members = sorted(int(x) + 1 for x in rr.choice(n, 2, replace=False))
            coalition = sum(1 << (i - 1) for i in members)
            argv += ["--coalition", ",".join(map(str, members))]

        def run(sw):
            rc, out, err = self._cli(sw, argv)
            if rc != 0:
                return 1, ["interaction exit %r: %s" % (rc, err.strip())]
            payload = json.loads(out)
            if coalition is not None:
                ok = oracles.close(payload["value"], oracles.interaction_at(m, n, coalition))
                return 1, [] if ok else ["interaction index of %s" % payload["coalition"]]
            problems = []
            if not oracles.close(payload["shapley"], oracles.shapley(m, n)):
                problems.append("shapley values differ from the oracle")
            if abs(sum(payload["shapley"]) - 1.0) > oracles.TOL:
                problems.append("shapley values do not sum to 1")
            for key, value in payload["values"].items():
                mask = sum(1 << (int(i) - 1) for i in key.split(","))
                if not oracles.close(value, oracles.interaction_at(m, n, mask)):
                    problems.append("interaction index of {%s}" % key)
            return 1, problems

        return Op("cli.interaction", run)

    def _rank(self, r):
        rr = gen.rng(self.seed, 28, r)
        n = 4
        ext = EXTENSIONS[int(rr.integers(len(EXTENSIONS)))]
        values = gen.capacity(gen.VALID_FAMILIES[r % 3], self.seed, 29, r, n=n)
        losses = gen.capacity(gen.VALID_FAMILIES[(r + 1) % 3], self.seed, 30, r, n=n)
        scale = gen.scales(rr, n)
        model = {"capacity": gen.table_dict(values, n), "extension": ext, "scales": scale}
        if ext == "cpt":
            model["capacity2"] = gen.table_dict(losses, n)
        acts_obj = gen.acts(rr, n, 12, dup_share=0.3)
        model_file = write_json(os.path.join(self.workdir, "model_%d.json" % r), model)
        acts_file = write_json(os.path.join(self.workdir, "acts_%d.json" % r), acts_obj)
        oracle = oracles.Reference(values, n, losses)

        def run(sw):
            rc, out, err = self._cli(sw, ["rank", "--model", model_file, "--acts", acts_file, "--format", "json"])
            if rc != 0:
                return len(acts_obj), ["rank exit %r: %s" % (rc, err.strip())]
            rows = json.loads(out)["ranking"]
            score_of = lambda u: oracle.extension(ext, u)  # noqa: E731
            return len(acts_obj), check_ranking(rows, acts_obj, scale, score_of, range(len(acts_obj)))

        return Op("cli.rank", run)

    def _invalid(self):
        argv = ["eval", "--integral", "choquet", "--capacity", self.bad_file, "--scores", "0.1,0.2,0.3,0.4"]

        def run(sw):
            rc, out, err = self._cli(sw, argv, "cli.rejected")
            if rc == 1 and "not monotone" in err:
                return 1, []
            return 1, ["non-monotone capacity: exit %r, stderr %r" % (rc, err.strip())]

        return Op("cli.rejected", run)

    def _certify(self, name):
        C = self.C
        fn = PSEUDO_PRODUCTS[name]

        def run(sw):
            with sw:
                pp = C.certify(fn, name)
            cert = pp.certificate
            ok = cert.commutative and cert.associative and cert.grid_points == 21
            return 1, [] if ok else ["certify(%s) gave %r" % (name, cert)]

        return Op("lib.certify", run)

    def _check_pseudo_product(self, name):
        C = self.C
        fn = PSEUDO_PRODUCTS[name]
        conditions, acts_as_min = PSEUDO_PRODUCT_TRUTH[name]

        def run(sw):
            with sw:
                report = C.check_pseudo_product(fn)
            ok = report.conditions == conditions and report.acts_as_min == acts_as_min
            return 1, [] if ok else ["check_pseudo_product(%s) gave %r" % (name, report.conditions)]

        return Op("lib.check_pseudo_product", run)

    def _pseudo_product_extension(self, r, name):
        C = self.C
        pts = gen.rng(self.seed, 31, r).uniform(0.0, 1.0, (4, self.pp_n))
        oracle = PSEUDO_PRODUCT_ORACLE[name]

        def run(sw):
            with sw:
                got = [C.pseudo_product_extension(self.pp_mobius, self.pp[name], t) for t in pts]
            want = [oracle(self.pp_oracle.m, t) for t in pts]
            return len(pts), [] if oracles.close(got, want) else ["pseudo_product_extension(%s)" % name]

        return Op("lib.pseudo_product_extension", run)


# -- analyze ----------------------------------------------------------------------


class Analyze(Workload):
    """One op profiles one capacity at n = 16: validation, every transform,
    Shapley values and the order-2 interaction report.

    Why: ``interaction`` takes most of an op and ``set_function`` the rest;
    an interaction-index rewrite shows here, a lattice change only as a
    small share. One op in four is non-monotone and must be rejected.
    """

    name = "analyze"
    round_s = 0.56

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n = 6 if self.small else 16

    def round_ops(self, r):
        order = gen.rng(self.seed, 40, r).permutation(len(gen.FAMILIES))
        return [self._op(r, k, gen.FAMILIES[int(j)]) for k, j in enumerate(order)]

    def _op(self, r, k, family):
        C = self.C
        n = self.n
        v = gen.capacity(family, self.seed, 41, r, k, n=n, positive=False)

        def run(sw):
            if family == "non_monotone":
                try:
                    with sw:
                        C.as_capacity(v)
                except C.NotMonotone:
                    return 0, []
                return 0, ["as_capacity accepted a non-monotone table"]
            with sw:
                mu = C.as_capacity(v)
                m = C.mobius(mu)
                z = C.zeta(m)
                cm = C.co_mobius(mu)
                om = C.ordinal_mobius(mu)
                oz = C.ordinal_zeta(om)
                cj = C.conjugate(mu)
                phi = C.shapley(mu)
                report = C.interaction_report(mu, max_order=2)
            return n + len(report.values), self._check(r, k, family, v, mu, m, z, cm, om, oz, cj, phi, report)

        return Op("analyze", run)

    def _check(self, r, k, family, v, mu, m, z, cm, om, oz, cj, phi, report):
        n = self.n
        rr = gen.rng(self.seed, 42, r, k)
        problems = check_transforms(v, n, rr, mu, m, z, cm, om, oz, cj)
        mm = oracles.mobius(v, n)
        if not oracles.close(m.coefficients, mm):
            problems.append("mobius differs from the oracle table")
        if family == "belief":
            masses = gen.belief_masses(gen.rng(self.seed, 41, r, k), n, False)
            if not oracles.close(m.coefficients, masses):
                problems.append("mobius of a belief function differs from its masses")
        if family == "distorted" and not np.array_equal(om.coefficients, v):
            problems.append("ordinal_mobius dropped a step of a strictly monotone capacity")
        if not oracles.close(phi, oracles.shapley(mm, n)):
            problems.append("shapley values differ from the oracle")
        if abs(float(np.sum(phi)) - 1.0) > oracles.TOL:
            problems.append("shapley values do not sum to 1")
        if len(report.values) != n + n * (n - 1) // 2:
            problems.append("interaction report covers %d coalitions" % len(report.values))
        pm = report.pair_matrix
        if not (np.array_equal(pm, pm.T) and np.array_equal(np.diag(pm), report.shapley)):
            problems.append("pair matrix is not symmetric with the Shapley values on its diagonal")
        for _ in range(4):
            i, j = (int(x) for x in rr.choice(n, 2, replace=False))
            a = (1 << i) | (1 << j)
            if not oracles.close(report.values[a], oracles.interaction_at(mm, n, a)):
                problems.append("interaction index of pair %d" % a)
        return problems


# -- tables -----------------------------------------------------------------------


class Tables(Workload):
    """One op validates one large table and runs the five transforms plus
    their inverses. A round is one n = 24 table, two n = 22 and twelve n = 20.

    Why: ``set_function`` does all the work and no other module runs. The
    tables are 8, 32 and 128 MiB against the last-level cache; this is where
    a one-butterfly refactor must prove it costs nothing.
    """

    name = "tables"
    round_s = 16.0

    ROUND = ("24", "20a", "20b", "22a", "20a", "20b", "20a", "20b", "22b", "20a", "20b", "20a", "20b", "20a", "20b")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        big = (8, 10, 12) if self.small else (20, 22, 24)
        self.sizes = {"20a": big[0], "20b": big[0], "22a": big[1], "22b": big[1], "24": big[2]}

    def prepare(self):
        self.pool = {}
        for j, (tag, n) in enumerate(sorted(self.sizes.items())):
            family = gen.VALID_FAMILIES[j % 3]
            self.pool[tag] = gen.capacity(family, self.seed, 50, j, n=n, positive=False)

    def round_ops(self, r):
        return [self._op(r, k, tag) for k, tag in enumerate(self.ROUND)]

    def _op(self, r, k, tag):
        C = self.C
        v = self.pool[tag]
        n = self.sizes[tag]

        def run(sw):
            rr = gen.rng(self.seed, 51, r, k)
            with sw:
                mu = C.as_capacity(v, n=n)
            with sw:
                m = C.mobius(mu)
            with sw:
                z = C.zeta(m)
            problems = check_transforms(v, n, rr, mu=mu, m=m, z=z)
            del m, z
            with sw:
                cm = C.co_mobius(mu)
            problems += check_transforms(v, n, rr, cm=cm)
            del cm
            with sw:
                om = C.ordinal_mobius(mu)
            with sw:
                oz = C.ordinal_zeta(om)
            problems += check_transforms(v, n, rr, om=om, oz=oz)
            del om, oz
            with sw:
                cj = C.conjugate(mu)
            problems += check_transforms(v, n, rr, cj=cj)
            return 7 * (1 << n), problems

        return Op("tables.n%d" % n, run)


WORKLOADS = {w.name: w for w in (Rank, Verify, Analyze, Tables)}
