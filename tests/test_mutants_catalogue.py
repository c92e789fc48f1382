import pytest

from mutants import CATALOGUE, ROOT, main


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_each_mutant_changes_one_place_of_the_current_source(mutant):
    """A change that moves or rewrites mutated code must update the
    catalogue of ``tests/mutants.py`` with it."""
    text = (ROOT / "src" / "adinvar" / mutant.module).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert all((ROOT / node.split("::")[0]).is_file() for node in mutant.selection)


def test_an_unknown_name_exits_2_before_any_run(capsys):
    assert main([CATALOGUE[0].name, "no-such-mutant"]) == 2
    assert "unknown mutant: no-such-mutant" in capsys.readouterr().err
