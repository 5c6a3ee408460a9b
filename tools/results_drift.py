"""Does a regenerated ``results/`` equal the committed one?

    PYTHONPATH=src python -m repro.bench --exp all --scale paper --jobs 2 \\
        --no-cache --no-progress --output DIR
    python3 tools/results_drift.py results DIR

Every number the simulator produces is deterministic, so the two
directories must hold the same files and the same contents, except for
the host's wall clock: each ``.json`` is compared with every
``host_seconds`` key dropped, each ``.txt`` byte for byte with every
table column headed ``host (s)`` (T11, S5 and S6) blanked.  Prints each
file that differs and exits 1 if any does.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, List

HOST_KEY = "host_seconds"
HOST_HEADER = "host (s)"


def _without_host(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _without_host(v) for k, v in obj.items() if k != HOST_KEY}
    if isinstance(obj, list):
        return [_without_host(v) for v in obj]
    return obj


def mask_json(text: str) -> str:
    """``text``'s document with every ``host_seconds`` key dropped, as one
    canonical string (key order kept, so a reordered record differs)."""
    return json.dumps(_without_host(json.loads(text)))


def mask_txt(text: str) -> str:
    """``text`` with the ``host (s)`` column of every table blanked.

    A table is a header line, a line of dash groups under it and its rows
    up to the next blank line; the column is the span of the dash group
    under the header cell, to the end of the line when it is the last.
    """
    lines = text.split("\n")
    out: List[str] = []
    span = None
    for i, line in enumerate(lines):
        if span is None and HOST_HEADER in line and i + 1 < len(lines):
            dashes = lines[i + 1]
            at = line.index(HOST_HEADER) + len(HOST_HEADER) - 1
            if at < len(dashes) and dashes[at] == "-":
                start = dashes.rfind(" ", 0, at) + 1
                end = dashes.find(" ", at)
                span = (start, None if end < 0 else end)
        elif not line.strip():
            span = None
        if span is not None:
            start, end = span
            line = line[:start] + ("" if end is None else line[end:])
        out.append(line)
    return "\n".join(out)


def differences(committed: str, regenerated: str) -> List[str]:
    """One line per file that is missing, extra or different."""
    names = set(os.listdir(committed)) | set(os.listdir(regenerated))
    found = []
    for name in sorted(names):
        paths = [os.path.join(d, name) for d in (committed, regenerated)]
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            where = os.path.dirname(missing[0])
            found.append(f"{name}: missing from {where}")
            continue
        mask = mask_json if name.endswith(".json") else mask_txt
        texts = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                try:
                    texts.append(mask(fh.read()))
                except ValueError as exc:
                    texts.append(f"unreadable {path}: {exc}")
        if texts[0] != texts[1]:
            found.append(f"{name}: differs")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = differences(*argv)
    for line in found:
        print(line)
    print(f"{len(found)} file(s) drifted" if found
          else "results unchanged (host seconds aside)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
