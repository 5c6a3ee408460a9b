"""EXPERIMENTS.md quotes what ``results/`` holds.

The committed ``results/`` is what ``python -m repro.bench --exp all
--scale paper --output results/`` writes.  A table EXPERIMENTS.md quotes
under a ``## <ID> —`` heading is a copy of part of ``results/<id>.txt``
(under a ``## A-series —`` heading, of one of ``results/a1.txt``,
``a2.txt``, ...): when its header line is in that file, every one of its
lines must be too, byte for byte.  Hand-typed figures drift (T4, T6, T7
and F1 once did by a few hundredths); a copy does not.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "results")


def _quoted_tables():
    """(candidate ids, table lines) for every fenced block under a
    ``## <ID> —`` heading, shell snippets (a fence with a language tag)
    aside.  A ``## R-series —`` block may copy ``r1``, ``r2``, ..."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        text = fh.read()
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        heading = re.match(r"(\S+) —", section)
        if heading is None:
            continue
        exp_id = heading.group(1).lower()
        series = re.fullmatch(r"([a-z])-series", exp_id)
        ids = (sorted(name[:-4] for name in os.listdir(RESULTS)
                      if re.fullmatch(series.group(1) + r"\d+\.txt", name))
               if series else [exp_id])
        for lang, block in re.findall(r"^```(\w*)\n(.*?)^```", section,
                                      flags=re.M | re.S):
            if not lang:
                yield ids, block.splitlines()


def _held(exp_id):
    path = os.path.join(RESULTS, f"{exp_id}.txt")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as fh:
        return set(fh.read().splitlines())


def test_every_quoted_table_is_a_copy_of_its_results_file():
    checked, drifted = set(), {}
    for ids, lines in _quoted_tables():
        # The block copies the file holding its header line; a block whose
        # header is in none is a hand pivot of the data, not a copy.
        for exp_id in ids:
            held = _held(exp_id)
            if lines[0] in held:
                break
        else:
            continue
        checked.add(exp_id)
        stray = [line for line in lines if line not in held]
        if stray:
            drifted[exp_id.upper()] = stray
    assert not drifted, f"EXPERIMENTS.md lines not in results/: {drifted}"
    # Every T table, both R tables and the F1 and F2 series are quoted as
    # copies; a broken parser must not pass.
    assert {f"t{i}" for i in range(1, 12)} | {"r1", "r2", "f1", "f2"} \
        <= checked, sorted(checked)
