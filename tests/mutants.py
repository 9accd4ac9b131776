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
``tests/test_mutants.py`` checks in the suite that every entry still applies.
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
SUBSETS = "src/capacities/subsets.py"
INTEGRALS = "src/capacities/integrals.py"
AXIOMS = "src/capacities/axioms.py"
SET_FUNCTION = "src/capacities/set_function.py"
MODEL = "src/capacities/model.py"
CLI = "src/capacities/cli.py"
TESTS = ["tests/test_interaction.py"]
LATTICE_TESTS = ["tests/test_set_function.py::TestLattice"]
FOLD_TESTS = ["tests/test_integrals.py", "tests/test_set_function.py::TestLattice"]
INTEGRALS_TESTS = ["tests/test_integrals.py"]
AXIOMS_TESTS = ["tests/test_axioms.py"]
FIRST_DROP_TESTS = ["tests/test_set_function.py::TestFirstViolation"]
SET_FUNCTION_TESTS = ["tests/test_set_function.py"]
ORDINAL_TESTS = ["tests/test_set_function.py::TestOrdinalMobius"]
PATH_TESTS = ["tests/test_paths.py"]
CLI_TESTS = ["tests/test_cli.py"]
MODEL_TESTS = ["tests/test_model.py"]

# (name, file, source text, replacement, test files or node ids, reason if equivalent)
MUTANTS = [
    ("_up sums downwards", INTERACTION, "np.add(lo, hi, out=lo, order=\"C\")",
     "np.add(hi, lo, out=hi, order=\"C\")", TESTS, None),
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
    ("shapley reads the wrong entries", INTERACTION, "    phi = t[bits]",
     "    phi = t[bits - 1]", TESTS, None),
    ("shapley divides singletons by 2", INTERACTION, "np.maximum(sizes, 1, out=sizes)",
     "np.maximum(sizes, 2, out=sizes)", TESTS, None),
    ("shapley keeps its sizes through the pass", INTERACTION,
     "    del sizes  # freed before the pass, so the table alone is held through it",
     "    # the sizes stay live through the pass",
     ["tests/test_set_function.py::TestMemoryOverBlocks"],
     "a lattice pass allocates no array, so the division, which holds the table "
     "and the sizes, is the peak whether the sizes stay live through the pass or not"),
    ("shapley without its finiteness check", INTERACTION, "    _check_finite(bits, phi)\n",
     "", TESTS, None),
    ("the report takes the kept values for order 2 too", INTERACTION,
     "range(1 if kept is None else 2, top + 1)", "range(1 if kept is None else 3, top + 1)",
     TESTS, None),
    ("shapley keeps the array it returns", INTERACTION, "kept = phi.copy()", "kept = phi",
     TESTS, None),
    ("the report ignores the kept values", INTERACTION, 'kept = vars(mu).get("_shapley")',
     "kept = None", PATH_TESTS, None),
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
    ("fold from zero", SUBSETS, "    table[0] = empty", "    table[0] = 0", FOLD_TESTS, None),
    ("fold skips the last criterion", SUBSETS, "for i in range(cols.shape[0]):",
     "for i in range(cols.shape[0] - 1):", FOLD_TESTS, None),
    ("fold reads the criteria backwards", SUBSETS, "step(table[: 1 << i], cols[i], out=",
     "step(table[: 1 << i], cols[-1 - i], out=", FOLD_TESTS, None),
    ("popcounts from one", SUBSETS, "np.ones(n, np.uint8), 0,", "np.ones(n, np.uint8), 1,",
     FOLD_TESTS, None),
    ("lattice keeps numpy's buffer size", SUBSETS, "        np.setbufsize(BUFSIZE)\n",
     "", LATTICE_TESTS, None),
    ("_calls pairs the other tables' lo with lo", SUBSETS, "views += next(other)[1:]",
     "views += next(other)[1:2] * 2", LATTICE_TESTS, None),
    ("lattice skips the last partial group", SUBSETS, "for bit in range(top, n, GROUP):",
     "for bit in range(top, n - GROUP + 1, GROUP):", LATTICE_TESTS, None),
    ("lattice skips the last block", SUBSETS, "for b in range(0, 1 << n, 1 << top):",
     "for b in range(0, (1 << n) - (1 << top), 1 << top):", LATTICE_TESTS, None),
    ("_block swaps the halves", SUBSETS, "yield i, pairs[:, 0], pairs[:, 1]",
     "yield i, pairs[:, 1], pairs[:, 0]", LATTICE_TESTS, None),
    ("_block's transpose pairs the wrong masks", SUBSETS,
     "a.reshape(-1, rows, 2, 1 << i).transpose(0, 2, 3, 1)",
     "a.reshape(-1, 2, rows, 1 << i).transpose(0, 1, 3, 2)", LATTICE_TESTS, None),
    ("_block runs tiles from bit 3", SUBSETS, "if i < GROUP and a.shape[0] >= TILE",
     "if i < GROUP - 1 and a.shape[0] >= TILE", LATTICE_TESTS, None),
    ("_block runs tiles from n = 13", SUBSETS, "if i < GROUP and a.shape[0] >= TILE",
     "if i < GROUP and a.shape[0] > TILE", LATTICE_TESTS, None),
    ("lattice runs blocks of SLICE >> 1", SUBSETS, "return min(n, SLICE.bit_length() - 1)",
     "return min(n, SLICE.bit_length() - 2)", LATTICE_TESTS, None),
    ("_groups' chunks one bit narrower", SUBSETS, "width = SLICE >> g",
     "width = SLICE >> (g + 1)", LATTICE_TESTS, None),
    ("_groups pairs lo with lo", SUBSETS, "yield b + j, pairs[:, 0], pairs[:, 1]",
     "yield b + j, pairs[:, 0], pairs[:, 0]", LATTICE_TESTS, None),
    ("_groups of 3 bits", SUBSETS, "g = min(a.shape[0].bit_length() - 1 - b, GROUP)",
     "g = min(a.shape[0].bit_length() - 1 - b, GROUP - 1)", LATTICE_TESTS, None),
    ("a subset key index is read by int() alone", SUBSETS,
     "            if str(i) != part:  # as \" 1\", \"+1\", \"01\", \"1_0\" or a non-ASCII digit\n"
     "                raise ValueError\n", "", ["tests/test_set_function.py::TestJson"], None),
    ("_drops narrows a grouped bit to one block", SET_FUNCTION, "        if i < blocked:",
     "        if blocked:", FIRST_DROP_TESTS, None),
    ("the search counts a row of lo alone", SET_FUNCTION, "(r + k // cols) * (2 << i)",
     "(r + k // cols) * (1 << i)", FIRST_DROP_TESTS, None),
    ("the search without its row offset in a piece", SET_FUNCTION,
     "mask = start + (r + k // cols) * (2 << i) + c + k % cols",
     "mask = start + r * (2 << i) + c + k", FIRST_DROP_TESTS, None),
    ("the search drops its column offset", SET_FUNCTION, "+ c + k % cols", "+ k % cols",
     FIRST_DROP_TESTS, None),
    ("the search's row in a piece by the bit's width", SET_FUNCTION, "k // cols",
     "k // (1 << i)", FIRST_DROP_TESTS,
     "a piece of a bit below 16 has 2**i columns, and one of a bit at or above 16 has "
     "one row of SLICE columns, so k // 2**i and k // SLICE are both 0 there"),
    ("ordinal_mobius keeps a flat step", SET_FUNCTION, "flat = np.less_equal(v, out,",
     "flat = np.less(v, out,", SET_FUNCTION_TESTS, None),
    ("ordinal_mobius zeroes no entry", SET_FUNCTION, "            np.putmask(out, flat, 0.0)\n",
     "", SET_FUNCTION_TESTS, None),
    ("ordinal_zeta's shortcut keeps -0.0", SET_FUNCTION, "mu.values + 0.0", "mu.values.copy()",
     ORDINAL_TESTS, None),
    ("ordinal_mobius refers to a capacity with -0.0 at the empty set", SET_FUNCTION,
     " and not np.signbit(vals[0])", "", ORDINAL_TESTS, None),
    ("a table that keeps no drop is taken as exactly monotone", SET_FUNCTION,
     "monotone = drop is not None and drop <= 0.0", "monotone = (drop is None or drop <= 0.0)",
     ORDINAL_TESTS, None),
    ("ordinal_mobius refers to a table that fails the check", SET_FUNCTION,
     "    if monotone:\n", "    if True:\n", ORDINAL_TESTS, None),
    ("a copy keeps the table ordinal_zeta returns", SET_FUNCTION, '"_zeta", "_largest_drop")',
     '"_largest_drop")', PATH_TESTS, None),
    ("a copy keeps the largest drop", SET_FUNCTION, ', "_largest_drop")', ")", PATH_TESTS, None),
    ("a capacity with an equal step is taken as strict", SET_FUNCTION,
     "if drop is not None and drop < 0.0:", "if drop is not None and drop <= 0.0:",
     ORDINAL_TESTS, None),
    ("a capacity monotone within tol alone is taken as exactly monotone", SET_FUNCTION,
     "monotone = drop is not None and drop <= 0.0 and", "monotone = drop is not None and",
     ORDINAL_TESTS, None),
    ("a capacity with an equal step is taken as not exactly monotone", SET_FUNCTION,
     "drop is not None and drop <= 0.0 and", "drop is not None and drop < 0.0 and",
     PATH_TESTS, None),
    ("ordinal_mobius skips the sign check where the table is not monotone", SET_FUNCTION,
     "    if not monotone:\n        OrdinalMobiusRepr._check(a)\n", "", ORDINAL_TESTS, None),
    ("a strict capacity refers to its table under a -0.0 empty set", SET_FUNCTION,
     "    if monotone:\n        vars(om)", "    if monotone or drop is not None and drop < 0.0:\n"
     "        vars(om)", ORDINAL_TESTS, None),
    ("monotonicity is checked before normalization", SET_FUNCTION,
     "    if vals[0] != 0.0:\n"
     "        return NotNormalized(\"mu(empty) must be 0, got %.17g\" % vals[0])\n"
     "    if abs(vals[-1] - 1.0) > tol:\n"
     "        return NotNormalized(\"mu(N) must be 1 within %g, got %.17g\" % (tol, vals[-1]))\n"
     "    if first_drop is not None:\n",
     "    if first_drop is None and vals[0] != 0.0:\n"
     "        return NotNormalized(\"mu(empty) must be 0, got %.17g\" % vals[0])\n"
     "    if first_drop is None and abs(vals[-1] - 1.0) > tol:\n"
     "        return NotNormalized(\"mu(N) must be 1 within %g, got %.17g\" % (tol, vals[-1]))\n"
     "    if first_drop is not None:\n",
     SET_FUNCTION_TESTS, None),
    ("the singletons are checked before monotonicity", SET_FUNCTION,
     "    if first_drop is not None:\n        mask, i = first_drop\n",
     "    if require_positive_singletons and _nonpositive_singleton(vals, n):\n"
     "        return _nonpositive_singleton(vals, n)\n"
     "    if first_drop is not None:\n        mask, i = first_drop\n",
     SET_FUNCTION_TESTS, None),
    ("co_mobius without its column signs", SET_FUNCTION, "    grid *= cols\n", "",
     SET_FUNCTION_TESTS, None),
    ("co_mobius without its row signs", SET_FUNCTION, "    grid *= rows[:, None]\n", "",
     SET_FUNCTION_TESTS, None),
    ("the additive flag counts the singletons", SET_FUNCTION,
     "    m[1 << np.arange(n)] = 0.0\n", "", SET_FUNCTION_TESTS, None),
    ("the additive flag counts the empty set", SET_FUNCTION, "    m[0] = 0.0\n", "",
     SET_FUNCTION_TESTS, None),
    ("the additive flag is strict at tol", SET_FUNCTION, "np.abs(m, out=m).max() <= tol",
     "np.abs(m, out=m).max() < tol", SET_FUNCTION_TESTS, None),
    ("rank_acts splits a tie at tol 0", MODEL, "drops = ranked[1:] - ranked[:-1] < -tol",
     "drops = ranked[1:] - ranked[:-1] <= -tol", MODEL_TESTS, None),
    ("rank_acts sorts by input order first", MODEL,
     "    key *= k\n    key += order\n    key.sort()\n    chain, order = np.divmod(key, k)\n",
     "    key += order * k\n    key.sort()\n    order, chain = np.divmod(key, k)\n",
     MODEL_TESTS, None),
    ("rank_acts ranks ascending", MODEL, 'order = (-scores).argsort(kind="stable")',
     'order = scores.argsort(kind="stable")', MODEL_TESTS, None),
    ("the chain key leaves out the input index", MODEL, "    key += order\n", "",
     MODEL_TESTS, None),
    ("Act accepts a str as its entries", MODEL, "if isinstance(self.entries, _NOT_ENTRIES):",
     "if isinstance(self.entries, _NOT_ENTRIES[1:]):", MODEL_TESTS, None),
    ("Act accepts a non-str label", MODEL, "        if not isinstance(self.label, str):",
     "        if False:", MODEL_TESTS, None),
    ("UtilityScale accepts criterion 0", MODEL, "or self.criterion < 1:",
     "or self.criterion < 0:", MODEL_TESTS, None),
    ("AggregationModel accepts a scale past n", MODEL, "if scale.criterion > n:",
     "if scale.criterion > n + 1:", MODEL_TESTS, None),
    ("_utility_matrix takes only float columns", MODEL, 'if columns.dtype.kind in "iuf":',
     'if columns.dtype.kind in "f":', PATH_TESTS, None),
    ("model_from_dict takes any key int() reads", MODEL, "if str(criterion) != key:", "if False:",
     MODEL_TESTS, None),
    ("a scale key that int() refuses is read as no criterion", MODEL,
     'raise InvalidFormat("scale key %r is not a criterion number" % (key,)) from None',
     "criterion = None", MODEL_TESTS, None),
    ("acts_from_obj skips the entry check", MODEL, "    _check_entries(rows)\n", "",
     MODEL_TESTS, None),
    ("the batched check reads only the last act", MODEL,
     "issuperset(map(type, chain.from_iterable(rows)))",
     "issuperset(map(type, rows[-1] if rows else ()))", MODEL_TESTS, None),
    ("a structural error raised before the earlier entries are checked", MODEL,
     "    _check_entries(rows)\n    if error is not None:\n        raise InvalidFormat(error)\n",
     "    if error is not None:\n        raise InvalidFormat(error)\n    _check_entries(rows)\n",
     MODEL_TESTS, None),
    ("Act._own sets no label", MODEL, '        object.__setattr__(act, "label", label)\n', "",
     MODEL_TESTS, None),
    ("UtilityScale accepts a non-finite level", MODEL, "if not np.isfinite(levels[name]):",
     "if np.isnan(levels[name]):", MODEL_TESTS, None),
    ("UtilityScale without its good pin", MODEL, "if levels.get(GOOD) != 1.0:", "if False:",
     MODEL_TESTS, None),
    ("AggregationModel accepts a duplicate scale", MODEL,
     "if scale.criterion in by_criterion:", "if False:", MODEL_TESTS, None),
    ("cli._round12 at 11 digits", CLI, "        return float(_fmt(obj))",
     '        return float(format(obj, ".11g"))', CLI_TESTS, None),
    ("main exits 1 on a usage error", CLI,
     'print("usage error: %s" % exc, file=sys.stderr)\n        return 2',
     'print("usage error: %s" % exc, file=sys.stderr)\n        return 1', CLI_TESTS, None),
    ("main exits 2 on a domain error", CLI,
     'print("error: %s" % exc, file=sys.stderr)\n        return 1',
     'print("error: %s" % exc, file=sys.stderr)\n        return 2', CLI_TESTS, None),
    ("--format json prints the text rendering", CLI, 'if args.format == "json":', "if False:",
     CLI_TESTS, None),
    ("_mobius_rows dots a one-term table", INTEGRALS, "if n == 1 else np.vecdot",
     "if n == 0 else np.vecdot", INTEGRALS_TESTS, None),
    ("_mobius_rows adds the losses", INTEGRALS, "table -= subsets.fold(step, tn",
     "table += subsets.fold(step, tn", INTEGRALS_TESTS, None),
    ("_mobius_rows tests for scores of +0.0 by value", INTEGRALS,
     "not np.count_nonzero(t.view(np.uint64))", "not np.count_nonzero(t)", INTEGRALS_TESTS,
     None),
    ("_mobius_rows: the loss skip without its test", INTEGRALS,
     "if signed and np.count_nonzero(tn.view(np.uint64)):", "if signed:", PATH_TESTS, None),
    ("_mobius_rows blocks of 512 KiB", INTEGRALS, "min(k, _CHUNK >> (n + 3))",
     "min(k, _CHUNK >> (n + 2))", INTEGRALS_TESTS, None),
    ("_mobius_rows dots strided rows", INTEGRALS, "            np.copyto(rows, table.T)\n",
     "            rows = table.T\n", INTEGRALS_TESTS, None),
    ("_mle_rows scores every row anew", INTEGRALS,
     "keys = np.ascontiguousarray(t).view(np.dtype((np.void, 8 * n))).ravel()",
     "keys = np.arange(t.shape[0])", INTEGRALS_TESTS, None),
    ("_mle_rows adds the high table", INTEGRALS, "        low *= subsets.fold(np.multiply",
     "        low += subsets.fold(np.multiply", INTEGRALS_TESTS, None),
    ("_choquet_sum starts at the top rank", INTEGRALS, "acc = ts[0] * v[0]",
     "acc = ts[0] * v[-1]", INTEGRALS_TESTS, None),
    ("_choquet_sum adds backwards", INTEGRALS, "for term in terms:",
     "for term in terms[::-1]:", INTEGRALS_TESTS, None),
    ("_ranked breaks ties unstably", INTEGRALS, 'order = t.argsort(axis=1, kind="stable")',
     'order = t.argsort(axis=1, kind="quicksort")', INTEGRALS_TESTS, None),
    ("_ranked without N at the first rank", INTEGRALS, "upper[0] = full",
     "upper[0] = full >> 1", INTEGRALS_TESTS, None),
    ("_signed_ranked reads t- forwards", INTEGRALS, "np.maximum(-ts[::-1], 0.0), back",
     "np.maximum(-ts, 0.0), back", INTEGRALS_TESTS, None),
    ("_sugeno_rows takes the least gain", INTEGRALS, "a = (tp * nu[upper]).max(axis=0)",
     "a = (tp * nu[upper]).min(axis=0)", INTEGRALS_TESTS, None),
    ("Extension.many lets a non-finite value through", INTEGRALS,
     "if not np.isfinite(values).all():", "if np.isnan(values).any():", INTEGRALS_TESTS, None),
    ("_sugeno_rows keeps a tie of opposites", INTEGRALS, "np.where(b == -a, 0.0, b)",
     "np.where(b == -a, a, b)", INTEGRALS_TESTS, None),
    ("_split_choquet_rows reads the losses' sign bit alone", INTEGRALS,
     "if np.signbit(gains[-1]):", "if np.signbit(losses[-1]):", INTEGRALS_TESTS, None),
    ("the pseudo-product step drops the singleton", INTEGRALS, "        out[0] = x\n",
     "        out[0] = 0.0\n", INTEGRALS_TESTS, None),
    ("the pseudo-product step swaps its arguments", INTEGRALS,
     "_op_values(op.op, below[1:], x)", "_op_values(op.op, x, below[1:])", INTEGRALS_TESTS, None),
    ("the pseudo-product step folds from the empty set", INTEGRALS,
     "        out[0] = x\n        out[1:] = _op_values(op.op, below[1:], x)",
     "        out[:] = _op_values(op.op, below, x)", INTEGRALS_TESTS, None),
    ("a gap on the bound fails", AXIOMS, "np.abs(got - expected) <= cfg.tol",
     "np.abs(got - expected) < cfg.tol", AXIOMS_TESTS, None),
    ("the gap bound drops its floor of 1", AXIOMS, "cfg.tol * np.maximum(1.0, scale)",
     "cfg.tol * np.maximum(0.0, scale)", AXIOMS_TESTS, None),
    ("a failing block ends before its failure", AXIOMS, "end = int(failed[0]) + 1 if hit",
     "end = int(failed[0]) if hit", AXIOMS_TESTS, None),
    ("the failing trial is not counted", AXIOMS,
     "counted = int(np.count_nonzero(ok[:end])) + hit",
     "counted = int(np.count_nonzero(ok[:end]))", AXIOMS_TESTS, None),
    ("trials past the failure are skipped", AXIOMS, "skipped += end - counted",
     "skipped += len(block[0]) - counted", AXIOMS_TESTS, None),
    ("the first block ends with the probes", AXIOMS,
     "range(min(_FIRST_BLOCK, p + count), p + count", "range(min(_FIRST_BLOCK, p), p + count",
     PATH_TESTS, None),
    ("a straddling block draws for its probes too", AXIOMS,
     "drawn = draw(end - max(start, p))", "drawn = draw(end - start)", AXIOMS_TESTS, None),
    ("a straddling block puts its draws first", AXIOMS,
     "map(np.concatenate, zip(block, drawn))", "map(np.concatenate, zip(drawn, block))",
     AXIOMS_TESTS, None),
    ("32-bit draws ignore a pending half", AXIOMS,
     "(np.arange(ints.size) + self._half.size) % 2 == 0", "np.arange(ints.size) % 2 == 0",
     AXIOMS_TESTS, None),
    ("Lemire rejects below m", AXIOMS, "(scaled & _LOW) < (np.uint64(1 << 32) - mi) % mi",
     "(scaled & _LOW) < mi", AXIOMS_TESTS, None),
    ("Lemire rejects at the threshold", AXIOMS,
     "(scaled & _LOW) < (np.uint64(1 << 32) - mi) % mi",
     "(scaled & _LOW) <= (np.uint64(1 << 32) - mi) % mi", AXIOMS_TESTS, None),
    ("a block drops its last high half", AXIOMS, "self._half = halves[ints.size :]",
     "self._half = halves[:0]", AXIOMS_TESTS, None),
    ("a rejected opening draw drops its high half", AXIOMS,
     "self._half = halves[j + 1 : j + 2] if opens[j] else halves[:0]",
     "self._half = halves[:0]", AXIOMS_TESTS, None),
    ("a ratio keeps a degenerate extension denominator", AXIOMS, "(np.abs(fc - fd) > tol) & ",
     "", AXIOMS_TESTS, None),
    ("S1 flips alpha on the other draw", AXIOMS, "np.where(x[:, n + 1] == 1, -alpha, alpha)",
     "np.where(x[:, n + 1] == 0, -alpha, alpha)", AXIOMS_TESTS, None),
    ("A reads the units backwards", AXIOMS, "np.concatenate([np.eye(n), t])",
     "np.concatenate([np.eye(n)[::-1], t])", AXIOMS_TESTS, None),
    ("A scales the first unit value", AXIOMS, "expected = a * unit_values[i]",
     "expected = a * unit_values[0]", AXIOMS_TESTS, None),
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
