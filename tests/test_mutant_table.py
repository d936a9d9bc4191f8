"""The named mutant table in tests/mutants.py is well formed, checked without running a mutant.

tests/mutants.py reports a mutant whose text no longer occurs exactly once only when it runs, which
takes minutes; this reads the table and the files it names, and starts no process.
"""

from mutants import EQUIVALENT, MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


def test_every_equivalent_names_a_mutant():
    assert set(EQUIVALENT) - {name for name, *_ in MUTANTS} == set()


def test_every_mutant_text_occurs_once_in_its_file():
    counts = {name: (ROOT / path).read_text().count(text) for name, path, text, _ in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}
