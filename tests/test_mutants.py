"""The mutant list of ``mutants.py`` stays applicable to the source as it is.

A refactor that moves or rewrites a listed source text, or moves or renames
a listed test class, would otherwise break its entry silently, until the
mutation script next runs (where pytest exits 4 on a node id it cannot find).
"""

import ast

import large_tables
import mutants


def test_each_mutant_applies_to_the_source_as_it_is():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names), "mutant names repeat"
    tops = {}  # the top-level classes and functions of each test file, read without importing it
    for name, path, old, new, tests, reason in mutants.MUTANTS:
        source = (mutants.ROOT / path).read_text()
        assert source.count(old) == 1, (name, "source text found %d times" % source.count(old))
        assert old != new, name
        assert tests, name
        for test in tests:
            file, *target = test.split("::")
            assert (mutants.ROOT / file).is_file(), (name, test)
            if file not in tops:
                tree = ast.parse((mutants.ROOT / file).read_text())
                tops[file] = {node.name for node in tree.body
                              if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
            assert len(target) <= 1 and set(target) <= tops[file], (name, test)
        assert reason is None or (isinstance(reason, str) and reason.strip()), name


def test_large_tables_runs_at_n_22_to_24():
    # Importing it binds each tier-1 builder it calls, so renaming one fails here too.
    tests = [f for name, f in vars(large_tables).items()
             if name.startswith("test_") and callable(f)]
    assert [m.args for f in tests for m in f.pytestmark] == [("n", [22, 23, 24])] * 3
    assert large_tables.TestMemoryAt24.N == 24
