"""The named mutant table in tests/mutants.py is well formed and scored as listed, checked without running a mutant.

tests/mutants.py reports a mutant whose text no longer occurs exactly once only when it runs, which
takes minutes; this reads the table and the files it names, scores hand-built verdicts, and starts no process.
"""

from mutants import EQUIVALENT, MUTANTS, ROOT, score


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []


def test_every_equivalent_names_a_mutant():
    assert set(EQUIVALENT) - {name for name, *_ in MUTANTS} == set()


def test_every_mutant_text_occurs_once_in_its_file():
    counts = {name: (ROOT / path).read_text().count(text) for name, path, text, _ in MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_a_listed_mutant_that_is_killed_is_stale():
    lines = []
    results = {"a": ("killed", "tests/x.py::t"), "b": ("survived", ""), "c": ("killed", "tests/y.py::u")}
    assert not score(results, {"a": "a's reason", "b": "b's reason"}, out=lines.append)
    assert lines == ["a: STALE: a's reason", "b: EQUIVALENT: b's reason", "c: KILLED: tests/y.py::u",
                     "3 mutants: 1 killed, 1 equivalent, 1 stale, 0 survived, 0 not applied"]
    assert score({name: results[name] for name in "bc"}, {"b": "b's reason"}, out=lines.append)
