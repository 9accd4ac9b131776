"""Fuzz ``cli.main`` in-process: mutated documents and flag sets for every subcommand.

Whatever the input, a run exits 0, 1 or 2; a domain error (exit 1) is one
``error:`` line; nothing prints a traceback or a warning; and every JSON
document printed on success parses and holds only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from capacities.cli import main

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
