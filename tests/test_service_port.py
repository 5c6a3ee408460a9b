"""The runtime services reach the kernel only through its public port.

Load balancing, quiescence detection, the sharing modes, the fault layer
and telemetry read the kernel and its engine by public names alone
(``engine.now``, ``kernel.trace``, ``kernel.post`` / ``deliver``, ...;
see docs/architecture.md, "Layering").  This is the line-level check that
keeps it so: outside ``core/`` and ``sim/``, no line under ``src/repro``
reads a private kernel name or the engine's old ``_now``.  Static: the
files are read as text, nothing is imported or run.
"""

import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
PRIVATE_READ = re.compile(r"kernel\._[a-z]|engine\._now|\bk\._[a-z]")
OWNERS = ("core", "sim")


def test_no_private_kernel_read_outside_core_and_sim():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0] in OWNERS:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            if PRIVATE_READ.search(line):
                offenders.append(f"src/repro/{rel.as_posix()}:{lineno}: "
                                 f"{line.strip()}")
    assert not offenders, "private kernel reads:\n" + "\n".join(offenders)
