"""``tools/mutants.py``'s patches still apply.

Static: the catalog is read from the tool's source with ``ast``; every
``old`` must occur exactly once in its file, so a change that moves the
code a mutant patches fails here until its entry is rewritten.  Nothing
is run; the mutation pass itself is ``python3 tools/mutants.py``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _literal(name):
    tree = ast.parse((ROOT / "tools" / "mutants.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tools/mutants.py defines no {name} literal")


CATALOG = _literal("CATALOG")


def test_mutant_runs_leave_this_file_out():
    """Every patch breaks this file's own check, so a mutant run that
    included it would report each mutant killed here and never reach
    the tests sorted after it."""
    assert f"--ignore=tests/{pathlib.Path(__file__).name}" in _literal("PYTEST_ARGS")


def test_catalog_holds_ten_mutants():
    assert len(CATALOG) >= 10
    assert len({(path, old) for path, old, _, _ in CATALOG}) == len(CATALOG)


@pytest.mark.parametrize("path,old,new,why", CATALOG,
                         ids=[f"{i}-{p.split('/')[-1]}"
                              for i, (p, _, _, _) in enumerate(CATALOG, 1)])
def test_every_patch_applies_exactly_once(path, old, new, why):
    text = (ROOT / path).read_text(encoding="utf-8")
    assert text.count(old) == 1, (path, old)
    assert new != old and why.strip()
