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


def quoted_entry_points(text):
    modules, scripts = set(), set()
    for command in COMMAND.findall(text):
        modules.update(MODULE.findall(command))
        scripts.update(SCRIPT.findall(command))
    return modules, scripts


def test_extraction_sees_both_spellings():
    modules, scripts = quoted_entry_points(
        "run `PYTHONPATH=src python -m repro.bench --exp t4` or\n"
        "python -m cProfile -o FILE -m repro.apps fib | tail\n"
        "    python3 ledger/run.py --workload tables; python setup.py develop\n"
    )
    assert modules == {"repro.bench", "cProfile", "repro.apps"}
    assert scripts == {"ledger/run.py", "setup.py"}


@pytest.mark.parametrize("source", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_quoted_commands_resolve(source):
    modules, scripts = quoted_entry_points(source.read_text(encoding="utf-8"))
    missing = sorted(
        f"python -m {name}" for name in modules if not _resolves(name)
    ) + sorted(
        f"python {path}" for path in scripts if not (ROOT / path).is_file()
    )
    assert not missing, f"{source.relative_to(ROOT)} quotes {missing}"


def _resolves(module):
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:  # a parent package is missing
        return False
