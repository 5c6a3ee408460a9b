"""Every command an instruction quotes must still have its entry point.

A deleted module or script survives longest in prose: README, the docs,
the verify skill and the CI workflow are read by people (and run by CI)
long after the tests that imported the module went with it.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for path in [
        ROOT / "README.md",
        ROOT / "EXPERIMENTS.md",
        ROOT / "DESIGN.md",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ROOT / ".github" / "workflows" / "ci.yml",
        *(ROOT / "docs").glob("*.md"),
    ] if path.exists()
)

#: One interpreter invocation, up to the end of its line or shell segment.
COMMAND = re.compile(r"\bpython3?\s+[^\n`|;&]*")
MODULE = re.compile(r"(?<!\S)-m\s+([A-Za-z_][\w.]*)")
SCRIPT = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")
#: One pytest invocation up to a comment, and the paths it is handed: a
#: word with a slash or a ``.py`` file, so ``pip install pytest hypothesis``
#: names no path.
PYTEST = re.compile(r"\bpytest\s+[^\n`|;&#]*")
PATH = re.compile(r"(?<!\S)([\w.][\w.-]*/[\w./-]*|[\w.-]+\.py)(?!\S)")


def quoted_entry_points(text):
    modules, scripts, paths = set(), set(), set()
    for command in COMMAND.findall(text):
        modules.update(MODULE.findall(command))
        scripts.update(SCRIPT.findall(command))
    for command in PYTEST.findall(text):
        paths.update(PATH.findall(command))
    return modules, scripts, paths


def test_extraction_sees_both_spellings():
    modules, scripts, paths = quoted_entry_points(
        "run `PYTHONPATH=src python -m repro.bench --exp t4` or\n"
        "python -m cProfile -o FILE -m repro.apps fib | tail\n"
        "    python3 ledger/run.py --workload tables; python setup.py develop\n"
        "pip install numpy pytest hypothesis; pytest tests/ -x  # 1/2\n"
        "python -m pytest tests/test_a.py tests/b/ -q\n"
    )
    assert modules == {"repro.bench", "cProfile", "repro.apps", "pytest"}
    assert scripts == {"ledger/run.py", "setup.py"}
    assert paths == {"tests/", "tests/test_a.py", "tests/b/"}


@pytest.mark.parametrize("source", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_quoted_commands_resolve(source):
    modules, scripts, paths = quoted_entry_points(
        source.read_text(encoding="utf-8"))
    missing = sorted(
        f"python -m {name}" for name in modules if not _resolves(name)
    ) + sorted(
        f"python {path}" for path in scripts if not (ROOT / path).is_file()
    ) + sorted(
        f"pytest {path}" for path in paths if not (ROOT / path).exists()
    )
    assert not missing, f"{source.relative_to(ROOT)} quotes {missing}"


def _resolves(module):
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:  # a parent package is missing
        return False
