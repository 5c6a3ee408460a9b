"""``tools/reach.py``'s allowlist names only functions that exist.

Static: the allowlist is read from the tool's source with ``ast`` and each
name is looked up among the ``def``s under ``src/repro``, so deleting a
function fails here until its allowlist entry goes too.  Nothing is run.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _allowlist():
    tree = ast.parse((ROOT / "tools" / "reach.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ALLOWLIST"]):
            return ast.literal_eval(node.value)
    raise AssertionError("tools/reach.py defines no ALLOWLIST literal")


def _defs(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".")


def _defined():
    names = set()
    for path in PACKAGE.rglob("*.py"):
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(f"{module}::{q}" for q in _defs(tree.body, ""))
    return names


def test_every_allowlist_entry_names_a_function_and_gives_a_reason():
    allowlist = _allowlist()
    defined = _defined()
    seen = set()
    for reason, names in allowlist.items():
        assert isinstance(reason, str) and reason.strip(), names
        assert names, f"reason {reason!r} covers no function"
        for name in names:
            assert name in defined, f"{name} is allowlisted but not defined"
            assert name not in seen, f"{name} is allowlisted twice"
            seen.add(name)
