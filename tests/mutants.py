"""Mutation check: apply each mutant of a fixed list on its own and run the
tests that should kill it.

    python3 tests/mutants.py [NAME ...]

A mutant replaces one source text, which must occur exactly once in its file.
For each mutant the script copies ``src``, ``tests`` and ``pyproject.toml``
into a new temporary directory, applies the replacement there and runs
``python -m pytest -x -q`` on the mutant's test files against that copy. The
mutant is killed when the tests fail or cannot be collected, and survives
when they pass. A mutant listed with a reason is equivalent: it computes what
the code computes, and its survival is expected. Names select mutants; none
selects all.

The script prints one JSON summary and exits 1 when a mutant that is not
equivalent survives, an equivalent one is killed, or a run goes wrong: a
source text that is not found exactly once, or pytest stopping for another
cause than failing tests. It is a script, not a test module, so pytest does
not collect it, and it stays out of CI: each mutant runs its test files anew.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTERACTION = "src/capacities/interaction.py"
TESTS = ["tests/test_interaction.py"]

# (name, file, source text, replacement, test files or node ids, reason if equivalent)
MUTANTS = [
    ("_up sums downwards", INTERACTION, "    lo += hi", "    hi += lo", TESTS, None),
    ("order divisor off by one", INTERACTION, "d -= k - 1", "d -= k", TESTS, None),
    ("_check_finite names the last", INTERACTION, "i = bad[0]", "i = bad[-1]", TESTS, None),
    ("index differences along the wrong axis", INTERACTION, "axis=n - i", "axis=i - 1",
     TESTS, None),
    ("classify with >=", INTERACTION, "return _LABELS[(value > tol)",
     "return _LABELS[(value >= tol)", TESTS, None),
    ("masks keep the empty set", INTERACTION, "np.flatnonzero(sizes <= top)[1:]",
     "np.flatnonzero(sizes <= top)", TESTS, None),
    ("top without the pairs", INTERACTION, "top = min(max(max_order, 2), mu.n)",
     "top = min(max_order, mu.n)", TESTS, None),
    ("shapley reads the wrong entries", INTERACTION, "    return t[bits]",
     "    return t[bits - 1]", TESTS, None),
    ("shapley divides singletons by 2", INTERACTION, "np.maximum(sizes, 1, out=sizes)",
     "np.maximum(sizes, 2, out=sizes)", TESTS, None),
    ("shapley keeps its sizes through the pass", INTERACTION,
     "    del sizes  # freed before the pass allocates its tile",
     "    # the sizes stay live through the pass",
     ["tests/test_set_function.py::TestMemoryAtTheTileCap"], None),
    ("shapley without its finiteness check", INTERACTION, "    _check_finite(bits, t[bits])",
     "    t[bits]", TESTS, None),
    ("report shows one order too few", INTERACTION, "shown = sizes[masks] <= max_order",
     "shown = sizes[masks] < max_order", TESTS, None),
    ("pair matrix at intersections", INTERACTION, "bits[:, None] | bits",
     "bits[:, None] & bits", TESTS, None),
    ("positive and negative labels swapped", INTERACTION,
     '_LABELS = ("non-interactive", "positive", "negative")',
     '_LABELS = ("non-interactive", "negative", "positive")', TESTS, None),
    ("an empty coalition is indexed", INTERACTION, "if amask == 0:", "if amask < 0:",
     TESTS, None),
    ("an infinite index passes", INTERACTION,
     "    if not math.isfinite(value):\n        _check_finite",
     "    if math.isnan(value):\n        _check_finite", TESTS, None),
    ("index weights over k!", INTERACTION, "f(k + 1)", "f(k)", TESTS, None),
    ("index weights reversed", INTERACTION, "for b in range(k + 1)])",
     "for b in range(k, -1, -1)])", TESTS,
     "the weight (k - b)! b! / (k + 1)! is symmetric in b <-> k - b, and both orders "
     "divide the same two exact integers, so the reversed list holds the same doubles"),
    ("each order written at every larger size", INTERACTION, "here = at == k",
     "here = at >= k", TESTS,
     "the orders run ascending, so the last write at a coalition of size s is that "
     "of order s, the one the code writes"),
]


def run(name, path, old, new, tests, reason):
    """Apply one mutant to a copy of the tree, run its tests, and say what happened."""
    entry = {"name": name, "file": path}
    if reason:
        entry["reason"] = reason
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        entry.update(status="error", detail="source text found %d times" % source.count(old))
        return entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        entry["seconds"] = round(time.perf_counter() - start, 1)
    # pytest exits 1 when a test fails and 2 when collection fails
    if code in (1, 2):
        entry["status"] = "killed"
    elif code == 0:
        entry["status"] = "equivalent" if reason else "survived"
    else:
        entry.update(status="error", detail="pytest exit code %d" % code)
    return entry


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit("unknown mutants: %s" % ", ".join(sorted(unknown)))
    results = [run(*m) for m in MUTANTS if not names or m[0] in names]
    counts = {}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    # an equivalent mutant that the tests kill was not equivalent
    wrong = [r["name"] for r in results
             if r["status"] in ("survived", "error") or (r["status"] == "killed" and "reason" in r)]
    print(json.dumps({"mutants": results, "counts": counts, "wrong": wrong}, indent=2))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
