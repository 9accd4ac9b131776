"""The mutant list of ``mutants.py`` stays applicable to the source as it is.

A refactor that moves or rewrites a listed source text would otherwise break
its entry silently, until the mutation script next runs.
"""

import mutants


def test_each_mutant_applies_to_the_source_as_it_is():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names), "mutant names repeat"
    for name, path, old, new, tests, reason in mutants.MUTANTS:
        source = (mutants.ROOT / path).read_text()
        assert source.count(old) == 1, (name, "source text found %d times" % source.count(old))
        assert old != new, name
        assert tests, name
        for test in tests:
            assert (mutants.ROOT / test.split("::")[0]).is_file(), (name, test)
        assert reason is None or (isinstance(reason, str) and reason.strip()), name
