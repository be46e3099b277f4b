"""The mutant list of ``tests/mutants.py`` against the working tree."""

from mutants import MUTANTS, ROOT, locate


def test_every_mutant_applies_to_the_source():
    # the check the runner makes before each run: old occurs on exactly one
    # line of its file, once, so an edit that orphans a mutant fails here
    # and not only in the slow runner
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        locate(m, (ROOT / m.path).read_text().splitlines(keepends=True))
