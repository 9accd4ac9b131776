"""Fuzz ``cli.main`` in-process: mutated documents and flag sets for every
subcommand, and well-formed files whose numbers sit at the edges of a double.

Whatever the input, a run exits 0, 1 or 2; a domain error (exit 1) is one
``error:`` line; nothing prints a traceback or a warning; and every JSON
document printed on success parses and holds only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from capacities import OrdinalMobiusRepr, ordinal_zeta
from capacities.cli import INTEGRAL_CHOICES, main
from helpers import EDGES, edge_tables

MU = {"n": 2, "values_by_mask": [0.0, 0.3, 0.6, 1.0]}
DOCUMENTS = {
    "capacity": MU,
    "losses": {"n": 2, "values": {"": 0, "1": 0.5, "2": 0.2, "1,2": 1}},
    "points": [[0.5, -0.25], [1.0, 1.0]],
    "model": {
        "capacity": MU,
        "extension": "sipos",
        "scales": {"1": {"neutral": 0, "good": 1, "bad": -1}},
    },
    "acts": [["good", "neutral"], {"entries": ["bad", 0.5], "label": "a"}, [1, 1]],
}

# Values a mutation puts in place of any node of a document.
ODD_VALUES = [
    True, False, None, 0, -1, 2.5, 10**30, 10**400, "9" * 5000, math.nan, math.inf, -math.inf,
    1e308, -1e308, "", "x", "1,2", [], {}, [[0.5]], [0.5, [0.5]], {"n": 2}, MU,
]
ODD_N = [0, 25, -1, 1, 3, 24, 2.0, "2", True, None, 10**400]
ODD_KEYS = ["2,1", "0", "1,,2", "x", "1,1", " 1", "3", "1,2,3", "-1"]

# (usable, bad) values per flag; a run draws a usable one five times in six.
FLAG_VALUES = {
    "--samples": (["20", "1"], ["0", "-5", "x", "2.5"]),
    "--seed": (["7", "0", "99999999999999999999999"], ["-1", "x"]),
    "--tol": (["1e-9", "0.5"], ["0", "nan", "inf", "-inf", "-1", "-1e-12", "x"]),
    "--score-bounds": (["0:1", "-2:2"], ["1:0", "0:inf", "nan:1", "-1e308:1e308", "x", "1:2:3"]),
    "--alpha-bounds": (["0.5:1", "1:2"], ["0:1", "2:1", "1:inf", "nan:1", "x"]),
    "--axioms": (["all", "HE,A1", "S1"], ["", ",", "XX", "all,HE"]),
    "--integral": (["choquet", "sipos", "mle", "smle", "sugeno-prod", "cpt"], ["sugeno", ""]),
    "--scores": (["0.5,-0.25", "1,1", "1e308,1e308"], ["0", "nan,1", "inf,0", "1e400,0", "a,b"]),
    "--coalition": (["1,2", "2"], ["", "2,1", "0", "1,,2", "x", "3", "1,2,3"]),
    "--max-order": (["1", "2"], ["0", "3", "-1", "99999999999999999999"]),
}

SUBCOMMANDS = {
    "transform": ["--input"],
    "eval": ["--integral", "--capacity", "--capacity2", "--scores"],
    "interaction": ["--capacity", "--coalition", "--max-order", "--tol"],
    "verify": ["--capacity", "--capacity2", "--integral", "--axioms", "--samples", "--seed",
               "--tol", "--score-bounds", "--alpha-bounds", "--allow-out-of-domain"],
    "compare": ["--capacity", "--scores-file", "--samples", "--seed", "--tol", "--score-bounds",
                "--alpha-bounds"],
    "rank": ["--model", "--acts"],
}
FILE_FLAGS = {"--input": "capacity", "--capacity": "capacity", "--capacity2": "losses",
              "--scores-file": "points", "--model": "model", "--acts": "acts"}
REQUIRED = {"--input", "--capacity", "--scores-file", "--model", "--acts", "--integral", "--scores"}


def _nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))


def _replace(doc, path, new):
    if not path:
        return new
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replace(doc[path[0]], path[1:], new)
    return copy


def _mutate(doc, data):
    path, node = data.draw(st.sampled_from(list(_nodes(doc))))
    kinds = ["value", "nest"]
    if isinstance(node, dict) and node:
        kinds += ["drop", "rename"]
    if isinstance(node, dict) and "n" in node:
        kinds.append("n")
    if isinstance(node, list) and node:
        kinds.append("drop")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "value":
        new = data.draw(st.sampled_from(ODD_VALUES))
    elif kind == "nest":
        new = [node]
    elif kind == "n":
        new = dict(node, n=data.draw(st.sampled_from(ODD_N)))
    elif isinstance(node, list):  # drop: a ragged or shorter list
        new = node[:-1]
    else:
        key = data.draw(st.sampled_from(sorted(node, key=str)))
        new = {k: v for k, v in node.items() if k != key}
        if kind == "rename":
            new[data.draw(st.sampled_from(ODD_KEYS))] = node[key]
    return _replace(doc, path, new)


def _assert_finite(obj):
    if isinstance(obj, float):
        assert math.isfinite(obj), obj
    elif isinstance(obj, dict):
        for value in obj.values():
            _assert_finite(value)
    elif isinstance(obj, list):
        for value in obj:
            _assert_finite(value)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exits_cleanly_on_mutated_input(data):
    subcommand = data.draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [subcommand]
    if subcommand == "transform":
        argv.append(data.draw(st.sampled_from(
            ["mobius", "zeta", "comobius", "ordinal", "conjugate", "inverse"])))
    with tempfile.TemporaryDirectory() as tmp:
        for flag in SUBCOMMANDS[subcommand]:
            if not data.draw(st.booleans()) and not (
                flag in REQUIRED and data.draw(st.integers(0, 9))
            ):
                continue
            if flag == "--allow-out-of-domain":
                argv.append(flag)
            elif flag in FILE_FLAGS:
                doc = DOCUMENTS[FILE_FLAGS[flag]]
                for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
                    doc = _mutate(doc, data)
                path = os.path.join(tmp, flag.strip("-") + ".json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                argv += [flag, path]
            else:
                usable, bad = FLAG_VALUES[flag]
                values = usable if data.draw(st.integers(0, 5)) else bad
                argv.append(flag + "=" + data.draw(st.sampled_from(values)))
        if subcommand in ("verify", "compare") and not any(a.startswith("--samples") for a in argv):
            argv.append("--samples=20")  # keeps each run short
        argv += data.draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
        code, out, err, caught = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    if code == 0 and "json" in argv:
        _assert_finite(json.loads(out))


def _assert_finite_text(out):
    """Every number a text rendering prints is finite."""
    for token in re.split(r"[\s,:=(){}\[\]]+", out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), (token, out)


def _capacity_table(v, least=0.0):
    """The values of a capacity made from an edge table: its absolute values, the singletons raised
    to ``least``, closed under the maximum over subsets and clipped at 1, with
    mu(N) = 1 and each zero of the table's sign. It keeps the table's
    subnormals and ties."""
    a = np.abs(v.values)
    bits = 1 << np.arange(v.n)
    a[bits] = np.maximum(a[bits], least)
    w = np.minimum(ordinal_zeta(OrdinalMobiusRepr(v.n, a)).values, 1.0)
    w[-1] = 1.0
    zeros = w == 0.0
    w[zeros] = np.copysign(0.0, v.values[zeros])
    return w


# Scores: zeros of either sign, subnormals and the largest doubles, whose gaps
# and products overflow.
EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 1.7e308, -1.7e308, 0.5, -1.0]
# The extremes more often than in the scores, so that the products and gaps of
# a ranking overflow.
ACT_ENTRIES = [1.7e308, -1.7e308, 5e-324, -0.0, 0.5, "neutral", "good", "edge"]
VERIFY_FLAGS = [[], ["--score-bounds=0:1", "--alpha-bounds=0.001:1"],
                ["--score-bounds=-1e300:1e300"], ["--score-bounds=0:1e-300"]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=edge_tables(max_n=4), data=st.data())
def test_every_subcommand_at_the_edges_of_a_double(v, data):
    """An edge table, and the capacity built from it, through every subcommand:
    each run exits 0 with finite numbers printed, or exits 1 or 2 with one
    error line, and prints no traceback and no warning."""
    n = v.n

    def draw_vector(pool=EDGE_SCORES):
        return data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    integral = data.draw(st.sampled_from(INTEGRAL_CHOICES))
    docs = {
        "table": {"n": n, "values_by_mask": v.values.tolist()},
        "mu": {"n": n, "values_by_mask": _capacity_table(v).tolist()},
        "points": [draw_vector() for _ in range(data.draw(st.integers(1, 3)))],
        "model": {"extension": "sugeno_product" if integral == "sugeno-prod" else integral,
                  "scales": {str(i): {"neutral": 0, "good": 1, "edge": x}
                             for i, x in enumerate(draw_vector(EDGES), 1)}},
        "acts": [draw_vector(ACT_ENTRIES) for _ in range(data.draw(st.integers(1, 4)))],
    }
    losses = data.draw(st.sampled_from(["table", "mu"]))
    # a model's singletons must be > 0
    docs["model"]["capacity"] = {"n": n, "values_by_mask": _capacity_table(v, 5e-324).tolist()}
    if integral == "cpt":
        docs["model"]["capacity2"] = docs[losses]
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, doc in docs.items():
            path[name] = os.path.join(tmp, name + ".json")
            with open(path[name], "w") as fh:
                json.dump(doc, fh)
        cpt = ["--capacity2", path[losses]] if integral == "cpt" else []
        scores = "--scores=" + ",".join(map(repr, draw_vector()))
        coalition = [str(i) for i in range(1, n + 1) if data.draw(st.booleans())] or ["1"]
        runs = [
            *(["transform", op, "--input", path[doc]]
              for op in ("mobius", "zeta", "comobius", "ordinal", "conjugate")
              for doc in ("table", "mu")),
            ["eval", "--integral", integral, "--capacity", path["mu"], *cpt, scores],
            ["interaction", "--capacity", path["mu"]],
            ["interaction", "--capacity", path["mu"], "--coalition", ",".join(coalition)],
            ["verify", "--integral", integral, "--capacity", path["mu"], *cpt, "--samples=16",
             *data.draw(st.sampled_from(VERIFY_FLAGS))],
            ["compare", "--capacity", path["mu"], "--scores-file", path["points"],
             "--samples=16"],
            ["rank", "--model", path["model"], "--acts", path["acts"]],
        ]
        fmt = data.draw(st.sampled_from(["text", "json"]))
        for argv in runs:
            argv += ["--format", fmt]
            code, out, err, caught = _run(argv)
            assert "Traceback" not in err and not caught, (argv, err, caught)
            if code == 0:
                assert err == "", (argv, err)
                if fmt == "json":
                    _assert_finite(json.loads(out))
                else:
                    _assert_finite_text(out)
            else:
                prefix = {1: "error:", 2: "usage error:"}[code]
                assert err.startswith(prefix) and err.count("\n") == 1, (argv, err)
