"""EXPERIMENTS.md quotes what ``results/`` holds.

The committed ``results/`` is what ``python -m repro.bench --exp all
--scale paper --output results/`` writes.  A table EXPERIMENTS.md quotes
under a ``## <ID> —`` heading is a copy of part of ``results/<id>.txt``:
when its header line is in that file, every one of its lines must be too,
byte for byte.  Hand-typed figures drift (T4, T6 and T7 once did by a few
hundredths); a copy does not.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quoted_tables():
    """(id, table lines) for every fenced block under a ``## <ID> —``
    heading, shell snippets aside."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        text = fh.read()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        heading = re.match(r"(\S+) —", section)
        if heading is None:
            continue
        for block in re.findall(r"^```\n(.*?)^```", section, flags=re.M | re.S):
            yield heading.group(1).lower(), block.splitlines()


def test_every_quoted_table_is_a_copy_of_its_results_file():
    checked, drifted = set(), {}
    for exp_id, lines in _quoted_tables():
        path = os.path.join(ROOT, "results", f"{exp_id}.txt")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            held = set(fh.read().splitlines())
        if lines[0] not in held:
            continue  # a hand pivot of the data, not a copy of the table
        checked.add(exp_id)
        stray = [line for line in lines if line not in held]
        if stray:
            drifted[exp_id.upper()] = stray
    assert not drifted, f"EXPERIMENTS.md lines not in results/: {drifted}"
    # Every T table is quoted as a copy; a broken parser must not pass.
    assert {f"t{i}" for i in range(1, 12)} <= checked, sorted(checked)
